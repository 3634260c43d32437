# Golden-output check: the default full-suite --json artifact must be
# byte-identical to the committed reference rows, in-process and
# sharded alike. A model change that moves any simulated number fails
# here; the PR that makes it must say which numbers moved and why.
#
#   cmake -DBIN=<vgiw_run> -DGOLDEN=<suite.jsonl> -DWORKDIR=<scratch dir>
#         -P suite_golden_check.cmake

if (NOT DEFINED BIN OR NOT DEFINED GOLDEN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN, GOLDEN and WORKDIR must be defined")
endif ()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

foreach (leg "plain" "shards2")
    set(out "${WORKDIR}/suite_${leg}.jsonl")
    set(extra "")
    if (leg STREQUAL "shards2")
        set(extra --shards 2)
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
