# Test driver: require a program's stdout to match a committed golden
# file byte-for-byte.
#
#   cmake -DBIN=<exe> [-DARGS=<arg;...>] -DGOLDEN=<file>
#         -P check_help_drift.cmake
#
# Two checks use it:
#  - `vgiw_run --help` (ARGS=--help) against docs/vgiw_run_help.txt. The
#    help text is generated from the flag table in vgiw_run.cc — the
#    single source of truth the README and EXPERIMENTS.md document — so
#    adding or editing a flag without regenerating the golden file fails
#    CI instead of silently letting the docs drift from the binary;
#  - `paper_figures` (no ARGS) against docs/paper_figures.txt. Its own
#    checks say that a value stays inside its band; this one shows every
#    value and verdict that moves as a diff of one file.

if (NOT DEFINED BIN OR NOT DEFINED GOLDEN)
    message(FATAL_ERROR "BIN and GOLDEN must be defined")
endif ()

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited ${rc}\nstderr:\n${err}")
endif ()

file(READ ${GOLDEN} golden)
if (NOT out STREQUAL golden)
    message(FATAL_ERROR
            "output of ${BIN} ${ARGS} drifted from ${GOLDEN}.\n"
            "Regenerate it:  ${BIN} ${ARGS} > ${GOLDEN}\n"
            "--- actual ---\n${out}\n--- golden ---\n${golden}")
endif ()
