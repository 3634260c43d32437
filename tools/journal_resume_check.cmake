# Kill-and-resume acceptance check, at the tool level:
#
#   cmake -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>
#         -P journal_resume_check.cmake
#
# 1. Run a suite sweep uninterrupted; keep its --json output as the
#    reference.
# 2. Run the same sweep with a journal under an execute_process TIMEOUT
#    short enough to SIGKILL it mid-sweep (if the machine is fast and
#    the sweep finishes first, that is fine — resuming a complete
#    journal is a no-op and the comparison still holds).
# 3. Resume with --journal --resume and write the merged --json.
# 4. The merged file must be byte-identical to the reference.
# 5. With --trace-out (counters in rows), a journaled run and a full
#    resume of its journal write byte-identical --json files.

if (NOT DEFINED BIN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN and WORKDIR must be defined")
endif ()

set(sweep --suite --arch vgiw --jobs 2)
set(journal "${WORKDIR}/sweep.jsonl")

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Run vgiw_run with the remaining arguments; it must exit 0.
function (run_ok what)
    execute_process(COMMAND ${BIN} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR "${what} failed (rc=${rc}):\n${out}\n${err}")
    endif ()
endfunction ()

# The two files must be byte-identical.
function (expect_same a b what)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                    RESULT_VARIABLE rc)
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR "${what} (${a} vs ${b})")
    endif ()
endfunction ()

# 1. Uninterrupted reference.
run_ok("reference run" ${sweep} --json "${WORKDIR}/reference.json")

# 2. Journaled run, killed by the TIMEOUT (SIGKILL — no handler can
#    soften it, so this exercises the torn-tail recovery path too).
execute_process(COMMAND ${BIN} ${sweep} --journal "${journal}"
                TIMEOUT 1
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if (NOT rc EQUAL 0 AND NOT rc MATCHES "timeout")
    message(FATAL_ERROR
            "journaled run neither completed nor timed out: rc=${rc}")
endif ()
if (NOT EXISTS "${journal}")
    message(FATAL_ERROR "journaled run left no journal at ${journal}")
endif ()

# 3. Resume against whatever prefix survived.
run_ok("resume run" ${sweep} --journal "${journal}" --resume
       --json "${WORKDIR}/merged.json")

# 4. Bit-identity: kill + resume must equal never-killed.
expect_same("${WORKDIR}/reference.json" "${WORKDIR}/merged.json"
            "merged JSON differs from the uninterrupted reference")

# 5. --trace-out: a resume re-emits every journaled row verbatim, so
#    the journaled run's own --json must carry the same "metrics".
set(traced --suite --arch sgmf --jobs 2 --journal "${WORKDIR}/traced.jsonl")
run_ok("traced journaled run" ${traced}
       --trace-out "${WORKDIR}/trace_full.json"
       --json "${WORKDIR}/traced_full.json")
run_ok("traced resume run" ${traced} --resume
       --trace-out "${WORKDIR}/trace_resumed.json"
       --json "${WORKDIR}/traced_resumed.json")
expect_same("${WORKDIR}/traced_full.json" "${WORKDIR}/traced_resumed.json"
            "--trace-out: the resumed JSON differs from the journaled run's")
