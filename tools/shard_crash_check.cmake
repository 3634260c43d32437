# Crash-containment acceptance check, at the tool level:
#
#   cmake -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>
#         -P shard_crash_check.cmake
#
# Inject a hard SIGSEGV (via VGIW_TEST_FAULT, armed at the replay
# fault-injection point) into one job of a sharded sweep. The sweep
# must complete with exit 3, the poisoned job must be reported as a
# quarantined `worker_crash` row with its dispatch count, every other
# JSON line must be byte-identical to a single-process run, and no
# worker process may outlive the sweep (checked via the pidfile
# breadcrumbs workers leave while alive).

if (NOT DEFINED BIN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN and WORKDIR must be defined")
endif ()

set(ref "${WORKDIR}/reference.json")
set(crash "${WORKDIR}/crashed.json")
set(pids "${WORKDIR}/pids")

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(MAKE_DIRECTORY "${pids}")

execute_process(COMMAND ${BIN} --suite --arch vgiw --json "${ref}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if (NOT rc EQUAL 0)
    message(FATAL_ERROR "reference run failed (rc=${rc}):\n${err}")
endif ()

# The fault fires on both dispatches of job 5 (every worker inherits
# the armed injector at its fork), so the job exhausts its crash
# budget and quarantines.
execute_process(COMMAND ${CMAKE_COMMAND} -E env
                        VGIW_TEST_FAULT=segv:5
                        "VGIW_SHARD_PIDFILE_DIR=${pids}"
                        ${BIN} --suite --arch vgiw --shards 2
                        --json "${crash}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if (NOT rc EQUAL 3)
    message(FATAL_ERROR
            "crashed sweep must exit 3 (jobs failed), got rc=${rc}:"
            "\n${out}\n${err}")
endif ()
if (NOT err MATCHES "lost job .* killed by signal 11")
    message(FATAL_ERROR
            "stderr does not report the signal-11 worker death:\n${err}")
endif ()

# Per-line comparison: exactly one line (the poisoned job) may differ,
# and that line must be the quarantined worker_crash row.
file(READ "${ref}" ref_text)
file(READ "${crash}" crash_text)
string(REPLACE "\n" ";" ref_lines "${ref_text}")
string(REPLACE "\n" ";" crash_lines "${crash_text}")
list(LENGTH ref_lines nref)
list(LENGTH crash_lines ncrash)
if (NOT nref EQUAL ncrash)
    message(FATAL_ERROR
            "row count differs: ${nref} reference vs ${ncrash} crashed")
endif ()
set(differing 0)
math(EXPR last "${nref} - 1")
foreach (i RANGE ${last})
    list(GET ref_lines ${i} a)
    list(GET crash_lines ${i} b)
    if (a STREQUAL b)
        continue ()
    endif ()
    math(EXPR differing "${differing} + 1")
    if (NOT b MATCHES "\"error_kind\":\"worker_crash\"")
        message(FATAL_ERROR
                "line ${i} differs but is not a worker_crash row:\n${b}")
    endif ()
    if (NOT b MATCHES "\"attempts\":2")
        message(FATAL_ERROR "crash row lacks the dispatch count:\n${b}")
    endif ()
    if (NOT b MATCHES "\"quarantined\":true")
        message(FATAL_ERROR "crash row is not quarantined:\n${b}")
    endif ()
endforeach ()
if (NOT differing EQUAL 1)
    message(FATAL_ERROR
            "expected exactly 1 differing row (the poisoned job), "
            "got ${differing}")
endif ()

# No orphans: clean workers unlinked their pidfiles; crashed workers
# left stale ones whose pids must be dead.
file(GLOB leftover "${pids}/worker-*.alive")
foreach (f ${leftover})
    file(READ "${f}" pid)
    string(STRIP "${pid}" pid)
    if (EXISTS "/proc/${pid}")
        message(FATAL_ERROR
                "worker pid ${pid} outlived the sweep (${f})")
    endif ()
endforeach ()
