# Warm-start acceptance: populate an artifact store with a cold suite
# run, then run the same suite warm against it. The warm run must (a)
# perform zero functional executions and zero compilations — its summary
# says so literally — and (b) produce a --json artifact byte-identical
# to the cold run's: the store serves traces and compile artifacts, it
# never changes a single statistic.
#
# Inputs: -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
set(STORE ${WORKDIR}/artifacts)
set(COLD_JSON ${WORKDIR}/suite_cold.jsonl)
set(WARM_JSON ${WORKDIR}/suite_warm.jsonl)

execute_process(COMMAND ${BIN} --suite --artifact-dir ${STORE}
                        --json ${COLD_JSON}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cold (store-populating) suite run failed "
                        "(exit ${rc})")
endif()

execute_process(COMMAND ${BIN} --suite --artifact-dir ${STORE}
                        --json ${WARM_JSON}
                RESULT_VARIABLE rc OUTPUT_VARIABLE warm_out
                ERROR_VARIABLE warm_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "warm suite run failed (exit ${rc})")
endif()

# The warm run's summary must report that nothing was traced or
# compiled: every job was served from the store.
if(NOT warm_out MATCHES "\\(0 functional executions, 0 compilations\\)")
    message(FATAL_ERROR "warm run was not fully store-served:\n"
                        "${warm_out}")
endif()
if(NOT warm_out MATCHES "artifact store: [1-9][0-9]* hits, 0 misses")
    message(FATAL_ERROR "warm run reported store misses:\n${warm_out}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${COLD_JSON} ${WARM_JSON}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "warm suite JSON differs from the cold run: "
            "${COLD_JSON} vs ${WARM_JSON}")
endif()

# Dice-only leg against the already-populated store: the dice.ck
# artifacts published by the "all" cold run above must warm-serve an
# --arch dice sweep with zero compilations and identical statistics.
set(DICE_COLD_JSON ${WORKDIR}/suite_dice_cold.jsonl)
set(DICE_WARM_JSON ${WORKDIR}/suite_dice_warm.jsonl)

execute_process(COMMAND ${BIN} --suite --arch dice --artifact-dir ${STORE}
                        --json ${DICE_COLD_JSON}
                RESULT_VARIABLE rc OUTPUT_VARIABLE dice_out
                ERROR_VARIABLE dice_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "warm dice suite run failed (exit ${rc})")
endif()
if(NOT dice_out MATCHES "\\(0 functional executions, 0 compilations\\)")
    message(FATAL_ERROR "dice run was not served from the all-arch "
                        "store:\n${dice_out}")
endif()

execute_process(COMMAND ${BIN} --suite --arch dice --artifact-dir ${STORE}
                        --json ${DICE_WARM_JSON}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "second warm dice suite run failed (exit ${rc})")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${DICE_COLD_JSON} ${DICE_WARM_JSON}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "repeated warm dice suite JSON differs: "
            "${DICE_COLD_JSON} vs ${DICE_WARM_JSON}")
endif()
