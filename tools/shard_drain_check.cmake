# Graceful-drain acceptance check for shard mode:
#
#   cmake -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>
#         -P shard_drain_check.cmake
#
# SIGTERM the coordinator mid-sweep. It must forward the drain to the
# worker fleet, wait for in-flight jobs, mark the rest drained, exit
# with the documented interrupted-and-drained code (4), and leave no
# worker processes behind.

if (NOT DEFINED BIN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN and WORKDIR must be defined")
endif ()

find_program(BASH bash REQUIRED)

set(pids "${WORKDIR}/pids")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(MAKE_DIRECTORY "${pids}")

# Signal as soon as the journal holds its header and one completed job:
# the sweep is then provably under way with most of its 84 jobs still
# queued, however fast the machine. (A fixed sleep raced the sweep's
# own completion on fast hosts.) The poll gives up after 60 s and
# signals anyway, so a wedged sweep fails on the exit code, not on the
# ctest timeout.
set(journal "${WORKDIR}/drain.journal.jsonl")
execute_process(
    COMMAND ${BASH} -c
            "VGIW_SHARD_PIDFILE_DIR='${pids}' \
             '${BIN}' --suite --shards 2 --journal '${journal}' \
             --json '${WORKDIR}/drain.json' \
             > '${WORKDIR}/stdout.txt' 2> '${WORKDIR}/stderr.txt' & \
             pid=$!; \
             for i in $(seq 1 6000); do \
                 n=$(wc -l < '${journal}' 2>/dev/null || echo 0); \
                 [ \"$n\" -ge 2 ] && break; \
                 kill -0 $pid 2>/dev/null || break; \
                 sleep 0.01; \
             done; \
             kill -TERM $pid; wait $pid"
    RESULT_VARIABLE rc)
if (NOT rc EQUAL 4)
    file(READ "${WORKDIR}/stderr.txt" err)
    message(FATAL_ERROR
            "drained sweep must exit 4 (interrupted and drained), "
            "got rc=${rc}:\n${err}")
endif ()

file(READ "${WORKDIR}/stdout.txt" out)
if (NOT out MATCHES "not run: interrupted")
    message(FATAL_ERROR
            "stdout does not report the drained jobs:\n${out}")
endif ()

file(GLOB leftover "${pids}/worker-*.alive")
foreach (f ${leftover})
    file(READ "${f}" pid)
    string(STRIP "${pid}" pid)
    if (EXISTS "/proc/${pid}")
        message(FATAL_ERROR
                "worker pid ${pid} outlived the drained sweep (${f})")
    endif ()
endforeach ()
