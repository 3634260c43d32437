# Golden-output check: the default full-suite --json artifact must be
# byte-identical to the committed reference rows, in-process and
# sharded alike. The jobs4 leg pins four in-process workers, so the
# pipelined trace fetches and longest-first dispatch run even where the
# default worker count (hardware_concurrency) is 1. The workload leg pins
# --workload: its rows must be the reference rows of that workload.
# A model change that moves any simulated number fails here; the PR
# that makes it must say which numbers moved and why.
#
#   cmake -DBIN=<vgiw_run> -DGOLDEN=<suite.jsonl> -DWORKDIR=<scratch dir>
#         -P suite_golden_check.cmake

if (NOT DEFINED BIN OR NOT DEFINED GOLDEN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN, GOLDEN and WORKDIR must be defined")
endif ()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

foreach (leg "plain" "shards2" "jobs4")
    set(out "${WORKDIR}/suite_${leg}.jsonl")
    set(extra "")
    if (leg STREQUAL "shards2")
        set(extra --shards 2)
    elseif (leg STREQUAL "jobs4")
        set(extra --jobs 4)
    endif ()
    execute_process(COMMAND ${BIN} --suite ${extra} --json "${out}"
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err)
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR "${leg} suite run failed (rc=${rc}):\n${err}")
    endif ()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${GOLDEN}" "${out}"
                    RESULT_VARIABLE rc)
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${leg} suite JSON differs from the golden rows "
                "(${GOLDEN} vs ${out})")
    endif ()
endforeach ()

set(workload "LUD/lud_diagonal")
set(out "${WORKDIR}/workload.jsonl")
execute_process(COMMAND ${BIN} --workload ${workload} --json "${out}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR "workload run failed (rc=${rc}):\n${err}")
endif ()
file(STRINGS "${GOLDEN}" expected REGEX "\"workload\":\"${workload}\"")
list(JOIN expected "\n" expected)
file(READ "${out}" actual)
if (NOT actual STREQUAL "${expected}\n")
    message(FATAL_ERROR
            "workload JSON differs from the golden rows of ${workload} "
            "(${GOLDEN} vs ${out})")
endif ()
