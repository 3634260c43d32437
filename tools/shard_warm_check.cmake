# Warm-start acceptance check for shard mode:
#
#   cmake -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>
#         -P shard_warm_check.cmake
#
# Populate the artifact store with a single-process sweep, then run the
# same sweep sharded against it. The whole fleet must warm-start from
# the shared store — zero functional executions, zero compilations
# summed across workers — and emit byte-identical JSON.

if (NOT DEFINED BIN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN and WORKDIR must be defined")
endif ()

set(store "${WORKDIR}/store")
set(cold "${WORKDIR}/cold.json")
set(warm "${WORKDIR}/warm.json")

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(COMMAND ${BIN} --suite --arch vgiw
                        --artifact-dir "${store}" --json "${cold}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR "cold run failed (rc=${rc}):\n${err}")
endif ()

execute_process(COMMAND ${BIN} --suite --arch vgiw --shards 2
                        --artifact-dir "${store}" --json "${warm}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR "warm sharded run failed (rc=${rc}):\n${err}")
endif ()
if (NOT out MATCHES "\\(0 functional executions, 0 compilations\\)")
    message(FATAL_ERROR
            "warm sharded sweep did not skip all tracing/compilation:"
            "\n${out}")
endif ()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${cold}" "${warm}"
                RESULT_VARIABLE rc)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR
            "warm sharded JSON differs from the cold reference "
            "(${cold} vs ${warm})")
endif ()
