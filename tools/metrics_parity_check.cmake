# Metrics parity: `--workload W --metrics --json` must emit exactly the
# rows `--suite --metrics --json` emits for W, counters included — both
# modes run the same engine jobs.
#
#   cmake -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>
#         -P metrics_parity_check.cmake

if (NOT DEFINED BIN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN and WORKDIR must be defined")
endif ()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(name "BFS/Kernel")
foreach (mode "suite" "workload")
    set(args --suite)
    if (mode STREQUAL "workload")
        set(args --workload ${name})
    endif ()
    execute_process(COMMAND ${BIN} ${args} --metrics
                            --json "${WORKDIR}/${mode}.jsonl"
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err)
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR "${mode} run failed (rc=${rc}):\n${err}")
    endif ()
endforeach ()

file(STRINGS "${WORKDIR}/suite.jsonl" expected
     REGEX "\"workload\":\"${name}\"")
list(JOIN expected "\n" expected)
file(READ "${WORKDIR}/workload.jsonl" actual)
if (expected STREQUAL "" OR NOT actual STREQUAL "${expected}\n")
    message(FATAL_ERROR
            "--workload ${name} --metrics rows differ from its "
            "--suite --metrics rows (${WORKDIR})")
endif ()
