/**
 * @file
 * vgiw_run — command-line driver for the simulator.
 *
 *   vgiw_run --list
 *   vgiw_run --workload BFS/Kernel [--arch vgiw|fermi|sgmf|dice|all]
 *            [--lvc-bytes N] [--cvt-bits N] [--no-replication]
 *            [--coalescing] [--dump-ir] [--verbose]
 *            [--jobs N] [--json <file>]
 *            [--metrics] [--trace-out <file>]
 *            [--max-replay-cycles N] [--deadline-ms N]
 *   vgiw_run --suite [--arch ...] [--jobs N] [--json <file>]
 *            [--metrics] [--trace-out <file>]
 *            [--max-replay-cycles N] [--deadline-ms N]
 *            [--journal <file>] [--resume]
 *            [--artifact-dir <dir>]
 *            [--shards N] [--shard-deadline-ms N]
 *   vgiw_run [--suite|--workload ...] --dry-run
 *
 * Both modes run through the parallel experiment engine, one job per
 * (workload, arch). Single-workload mode runs one Table 2 workload
 * (functional execution + golden check, then the requested core
 * models) and prints a RunStats report per arch. --suite sweeps the
 * whole registry; --jobs bounds the worker pool and --json emits one
 * JSON-lines object per (workload, arch) result alongside the ASCII
 * report. --max-replay-cycles and --deadline-ms set the one per-job
 * watchdog: a job that exceeds either budget is aborted and recorded
 * as a watchdog failure instead of hanging the sweep. Every job runs
 * once — a replay is deterministic, so a job that needs a larger
 * budget gets it from a larger flag value, not from a re-run.
 *
 * Observability: --metrics collects per-job deterministic counters
 * (CVT drains, LVC hit/miss per block, SIMT divergence events, SGMF
 * placement utilisation, ...) and adds a "metrics" object to every
 * --json line; without it the JSON is bit-identical to a metrics-free
 * run. --trace-out writes a Chrome trace-event file (open it in
 * chrome://tracing or Perfetto) of per-job spans — trace / compile /
 * replay / callback — timing where the sweep's wall clock went. Either
 * flag alone enables collection; counters only reach the JSON with an
 * explicit --metrics.
 *
 * Durability (long sweeps): --journal appends every completed job to a
 * write-ahead, fsync'd result journal; --resume skips the jobs the
 * journal already holds and re-runs only the rest, producing --json
 * output bit-identical to an uninterrupted run. SIGINT/SIGTERM drain
 * gracefully: no new jobs start, in-flight jobs finish (or trip their
 * watchdogs), the journal is flushed. --dry-run validates the
 * configuration and prints the job list (keys + sweep hash) without
 * simulating — a cheap pre-flight before an hours-long run.
 *
 * Warm starts: --artifact-dir mounts a persistent content-addressed
 * store under the sweep caches. A cold sweep publishes every traced
 * workload and compiled artifact; a warm sweep mmaps them back and
 * reports zero functional executions and zero compilations with
 * byte-identical --json output. Corrupt or stale blobs demote to
 * misses (recompute + republish), never errors.
 *
 * Crash containment: --shards N forks N supervised worker processes
 * (src/driver/worker_pool) that run jobs through their own engines and
 * stream results back over a checksummed pipe. A worker that
 * segfaults, aborts, is OOM-killed, goes heartbeat-silent or sends a
 * frame the coordinator cannot use — or stops mid-frame for a
 * heartbeat timeout — costs one job dispatch, not the sweep: the job
 * is dispatched once more to a fresh worker and quarantined as
 * `worker_crash` if that worker dies too.
 * --shard-deadline-ms arms a coordinator-side per-job wall-clock kill.
 * Surviving jobs' --json lines are byte-identical to a single-process
 * run; SIGINT/SIGTERM drain the whole fleet with no orphaned workers.
 *
 * Exit codes: 0 every job succeeded; 2 usage or configuration error
 * (nothing ran); 3 the run completed but some jobs failed (golden
 * mismatch, compile error, watchdog, panic); 4 the run was interrupted
 * (SIGINT/SIGTERM) and drained gracefully; 1 results could not be
 * written to the --json path, the --trace-out path or the journal.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.hh"
#include "common/signal_drain.hh"
#include "common/sim_error.hh"
#include "common/watchdog.hh"
#include "driver/artifact_store.hh"
#include "driver/experiment_engine.hh"
#include "driver/fault_injector.hh"
#include "driver/result_journal.hh"
#include "driver/result_table.hh"
#include "driver/worker_pool.hh"
#include "ir/printer.hh"
#include "workloads/workload.hh"

using namespace vgiw;

namespace
{

/**
 * One CLI flag: its spelling, value placeholder and one-line help.
 * This table is the single source of truth for the option surface:
 * usage() renders it, docs/vgiw_run_help.txt pins the rendering, and
 * the CI help-drift check diffs the two — so the --help text, the
 * documented flag table (README / EXPERIMENTS.md) and the parser
 * cannot drift apart silently. Adding a flag means adding a row here,
 * a parser case below, and regenerating the golden help file.
 */
struct FlagSpec
{
    const char *name; ///< e.g. "--arch"
    const char *arg;  ///< value placeholder, or nullptr for booleans
    const char *help; ///< one-line description
};

constexpr FlagSpec kFlags[] = {
    {"--workload", "<suite/kernel>",
     "run one registry workload (see --list)"},
    {"--suite", nullptr,
     "sweep the whole registry through the experiment engine"},
    {"--list", nullptr, "print the workload registry and exit"},
    {"--arch", "<vgiw|fermi|sgmf|dice|all>",
     "core model(s) to run (default: all)"},
    {"--jobs", "<n>",
     "sweep worker threads (default: hardware concurrency)"},
    {"--shards", "<n>",
     "fork n supervised worker processes; hard faults cost one job, "
     "not the sweep (--suite)"},
    {"--shard-deadline-ms", "<n>",
     "kill a shard worker whose job runs longer than n wall-clock ms "
     "(--shards)"},
    {"--json", "<file>",
     "also write one JSON object per result (JSON lines)"},
    {"--metrics", nullptr,
     "collect per-job counters; adds a \"metrics\" object to --json "
     "lines"},
    {"--trace-out", "<file>",
     "write a Chrome trace (chrome://tracing) of per-job spans"},
    {"--lvc-bytes", "<n>", "LVC capacity (default 65536)"},
    {"--cvt-bits", "<n>", "CVT capacity (default 65536)"},
    {"--max-replay-cycles", "<n>",
     "abort a job whose replay exceeds n simulated cycles"},
    {"--deadline-ms", "<n>",
     "abort a job running longer than n wall-clock ms"},
    {"--journal", "<file>",
     "append each completed job to a crash-safe result journal "
     "(--suite)"},
    {"--artifact-dir", "<dir>",
     "persistent artifact store: cold sweeps publish traces/compiled "
     "kernels, warm sweeps mmap them back (--suite)"},
    {"--resume", nullptr,
     "skip jobs the journal already holds; re-run only the rest"},
    {"--dry-run", nullptr,
     "validate and print the job list (keys + sweep hash), run nothing"},
    {"--no-replication", nullptr, "disable block replication"},
    {"--coalescing", nullptr,
     "enable the future-work inter-thread coalescer"},
    {"--dump-ir", nullptr, "print the kernel IR before running"},
    {"--verbose", nullptr, "per-component energy breakdown"},
    {"--help", nullptr, "print this help and exit"},
};

void
usage()
{
    std::printf("usage: vgiw_run --workload <suite/kernel> [options]\n"
                "       vgiw_run --suite [options]\n"
                "       vgiw_run --list\n"
                "\n"
                "options:\n");
    for (const FlagSpec &f : kFlags) {
        std::string left = f.name;
        if (f.arg) {
            left += ' ';
            left += f.arg;
        }
        std::printf("  %-30s %s\n", left.c_str(), f.help);
    }
    std::printf(
        "\n"
        "exit codes:\n"
        "  0  every requested job succeeded\n"
        "  2  usage or configuration error (nothing ran)\n"
        "  3  run completed but some jobs failed (golden mismatch,\n"
        "     compile error, watchdog trip, internal error)\n"
        "  4  interrupted (SIGINT/SIGTERM): drained gracefully,\n"
        "     journal flushed; resume with --journal --resume\n"
        "  1  results could not be written to the --json path, the\n"
        "     --trace-out path or the journal\n");
}

void
printStats(const RunStats &rs, bool verbose)
{
    if (!rs.supported) {
        std::printf("%-6s: unsupported (kernel CDFG exceeds the SGMF "
                    "fabric)\n",
                    rs.arch.c_str());
        return;
    }
    std::printf("%-6s: %llu cycles", rs.arch.c_str(),
                (unsigned long long)rs.cycles);
    if (rs.reconfigs) {
        std::printf(" (%llu reconfigs, %.2f%% overhead)",
                    (unsigned long long)rs.reconfigs,
                    100.0 * rs.configOverheadFraction());
    }
    std::printf("\n        energy: core %.1f nJ, die %.1f nJ, system "
                "%.1f nJ\n",
                rs.energy.corePj() / 1e3, rs.energy.diePj() / 1e3,
                rs.energy.systemPj() / 1e3);
    std::printf("        L1 %.1f%% miss | L2 %.1f%% miss | DRAM %llu "
                "lines (row hit %.0f%%)\n",
                100.0 * rs.l1Stats.missRate(),
                100.0 * rs.l2Stats.missRate(),
                (unsigned long long)rs.dramStats.accesses,
                100.0 * rs.dramStats.rowHitRate());
    if (rs.rfAccesses)
        std::printf("        RF accesses: %llu (per warp operand)\n",
                    (unsigned long long)rs.rfAccesses);
    if (rs.lvcAccesses)
        std::printf("        LVC accesses: %llu (%.1f%% miss)\n",
                    (unsigned long long)rs.lvcAccesses,
                    100.0 * rs.lvcStats.missRate());
    if (verbose) {
        for (size_t c = 0; c < kNumEnergyComponents; ++c) {
            const double pj = rs.energy.get(EnergyComponent(c));
            if (pj > 0) {
                std::printf("        energy[%-13s] %12.1f pJ\n",
                            energyComponentName(EnergyComponent(c)), pj);
            }
        }
        for (const auto &[name, value] : rs.extra.entries())
            std::printf("        %-28s %g\n", name.c_str(), value);
    }
}

/**
 * Parse a non-negative integer option value or exit(2) with a hint.
 * Values above @p max, the largest the destination holds, are
 * rejected rather than narrowed.
 */
uint64_t
parseCount(const std::string &opt, const char *value, uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(value, &end, 10);
    // strtoull happily wraps "-5"; insist on a plain digit string.
    if (!std::isdigit((unsigned char)value[0]) || end == value ||
        *end != '\0') {
        std::fprintf(stderr, "invalid value '%s' for %s\n", value,
                     opt.c_str());
        std::exit(2);
    }
    if (errno == ERANGE || n > max) {
        std::fprintf(stderr, "value '%s' for %s is out of range (max %llu)\n",
                     value, opt.c_str(), (unsigned long long)max);
        std::exit(2);
    }
    return n;
}

/**
 * Write a result table as JSON lines via temp-file + atomic rename: a
 * crash mid-write can never leave a truncated or half-valid artifact
 * at the --json path. Jobs drained by an interrupt are omitted — they
 * have no result; a resume will produce them. Each line was rendered
 * once, when its row was filled, by the formatter the journal uses
 * too. Returns false on I/O failure.
 */
bool
writeJson(const std::string &path, const ResultTable &table)
{
    struct LineSink : ResultSink
    {
        std::string out;
        void row(size_t, std::string_view jsonLine) override
        {
            out.append(jsonLine);
            out.push_back('\n');
        }
    } sink;
    table.renderInto(sink);
    std::string err;
    if (!writeFileAtomic(path, sink.out, &err)) {
        std::fprintf(stderr, "cannot write '%s': %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    return true;
}

/** Write the collector's Chrome trace atomically; false on I/O failure. */
bool
writeTrace(const std::string &path, const MetricsCollector &collector)
{
    std::string err;
    if (!writeFileAtomic(path, collector.chromeTraceJson(), &err)) {
        std::fprintf(stderr, "cannot write '%s': %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, arch = "all", json_path, journal_path;
    std::string trace_path, artifact_dir;
    VgiwConfig vcfg;
    WatchdogConfig wd;
    bool suite = false, dump_ir = false, verbose = false;
    bool resume = false, dry_run = false, metrics_on = false;
    unsigned jobs = 0, shards = 0;
    uint64_t shard_deadline_ms = 0;
    bool shards_set = false, shard_deadline_set = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--list") {
            for (const auto &e : workloadRegistry())
                std::printf("%s\n", e.name.c_str());
            return 0;
        } else if (a == "--workload") {
            workload = next();
        } else if (a == "--suite") {
            suite = true;
        } else if (a == "--arch") {
            arch = next();
        } else if (a == "--jobs") {
            jobs = unsigned(parseCount(a, next(), UINT_MAX));
        } else if (a == "--shards") {
            shards = unsigned(parseCount(a, next(), UINT_MAX));
            shards_set = true;
        } else if (a == "--shard-deadline-ms") {
            shard_deadline_ms = parseCount(a, next(), UINT64_MAX);
            shard_deadline_set = true;
        } else if (a == "--json") {
            json_path = next();
        } else if (a == "--metrics") {
            metrics_on = true;
        } else if (a == "--trace-out") {
            trace_path = next();
        } else if (a == "--journal") {
            journal_path = next();
        } else if (a == "--artifact-dir") {
            artifact_dir = next();
        } else if (a == "--resume") {
            resume = true;
        } else if (a == "--dry-run") {
            dry_run = true;
        } else if (a == "--lvc-bytes") {
            vcfg.lvcBytes = uint32_t(parseCount(a, next(), UINT32_MAX));
        } else if (a == "--cvt-bits") {
            vcfg.cvtCapacityBits =
                uint32_t(parseCount(a, next(), UINT32_MAX));
        } else if (a == "--max-replay-cycles") {
            wd.maxReplayCycles = parseCount(a, next(), UINT64_MAX);
        } else if (a == "--deadline-ms") {
            wd.deadlineMs = double(parseCount(a, next(), UINT64_MAX));
        } else if (a == "--no-replication") {
            vcfg.enableReplication = false;
        } else if (a == "--coalescing") {
            vcfg.enableMemoryCoalescing = true;
        } else if (a == "--dump-ir") {
            dump_ir = true;
        } else if (a == "--verbose") {
            verbose = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage();
            return 2;
        }
    }

    // Validate the architecture selector up front: a typo must not
    // silently run nothing and exit 0.
    if (arch != "all" && !isKnownArchitecture(arch)) {
        std::fprintf(stderr, "unknown architecture '%s'\n", arch.c_str());
        usage();
        return 2;
    }
    if (!suite && workload.empty()) {
        usage();
        return 2;
    }
    if (suite && !workload.empty()) {
        std::fprintf(stderr,
                     "--suite and --workload are mutually exclusive\n");
        return 2;
    }
    if (resume && journal_path.empty()) {
        std::fprintf(stderr, "--resume requires --journal <file>\n");
        return 2;
    }
    if (!suite && !journal_path.empty()) {
        std::fprintf(stderr, "--journal/--resume are only meaningful "
                             "with --suite\n");
        return 2;
    }
    if (!suite && !artifact_dir.empty()) {
        std::fprintf(stderr,
                     "--artifact-dir is only meaningful with --suite\n");
        return 2;
    }
    if (shards_set && !suite) {
        std::fprintf(stderr, "--shards is only meaningful with --suite\n");
        return 2;
    }
    if (shards_set && shards == 0) {
        std::fprintf(stderr, "--shards requires at least one worker\n");
        return 2;
    }
    if (shards_set && !trace_path.empty()) {
        // Span traces live in the worker processes and die with them;
        // pretending to merge them would emit a silently-partial trace.
        std::fprintf(stderr,
                     "--shards and --trace-out are mutually exclusive\n");
        return 2;
    }
    if (shard_deadline_set && !shards_set) {
        std::fprintf(stderr, "--shard-deadline-ms requires --shards\n");
        return 2;
    }

    SystemConfig cfg;
    cfg.vgiw = vcfg;
    cfg.watchdog = wd;
    // A malformed configuration is a usage error: report it before any
    // job consumes a functional execution.
    if (std::string msg = cfg.validate(arch); !msg.empty()) {
        std::fprintf(stderr, "invalid configuration: %s\n", msg.c_str());
        return 2;
    }
    std::vector<std::string> archs;
    if (arch == "all")
        archs = knownArchitectures();
    else
        archs = {arch};

    if (!suite && std::none_of(workloadRegistry().begin(),
                               workloadRegistry().end(),
                               [&](const WorkloadEntry &e) {
                                   return e.name == workload;
                               })) {
        std::fprintf(stderr, "unknown workload '%s' (see --list)\n",
                     workload.c_str());
        return 2;
    }
    // One job list for both modes, the dry run and the run: the suite,
    // or the one requested workload on each requested arch.
    const std::vector<ExperimentJob> plan =
        suite ? ExperimentEngine::suiteJobs(cfg, archs)
              : ExperimentEngine::suiteJobs(
                    std::vector<std::string>{workload}, cfg, archs);

    if (dry_run) {
        // Pre-flight for long runs: the validated job list, its stable
        // keys and the sweep hash a journal would be pinned to —
        // nothing is traced or replayed.
        std::printf("dry run: %zu jobs (%zu workloads x %zu archs), "
                    "sweep %s\n",
                    plan.size(), plan.size() / archs.size(), archs.size(),
                    ExperimentEngine::sweepHash(plan).c_str());
        for (const auto &j : plan)
            std::printf("%s\n", ExperimentEngine::jobKey(j).c_str());
        return 0;
    }

    std::string full_name;  // --workload rows name the instance
    if (!suite) {
        WorkloadInstance w = makeWorkload(workload);
        full_name = w.fullName();
        std::printf("workload %s (%s): %d blocks, %d threads (%d CTAs x "
                    "%d)\n\n",
                    w.fullName().c_str(), w.domain.c_str(),
                    w.kernel.numBlocks(), w.launch.numThreads(),
                    w.launch.numCtas, w.launch.ctaSize);
        if (dump_ir)
            std::printf("%s\n", kernelToString(w.kernel).c_str());
    }

    int failures = 0;
    EngineOptions opts;
    opts.jobs = jobs;
    opts.onResult = [&failures](size_t, const JobResult &r) {
        if (r.ok())
            return;
        ++failures;
        std::fprintf(stderr, "FAILED %s [%s]: %s\n", r.workload.c_str(),
                     r.arch.c_str(), r.error.c_str());
    };

    // --trace-out alone still needs the collector (spans); only an
    // explicit --metrics puts counters into the JSON output.
    MetricsCollector collector;
    const bool collect = metrics_on || !trace_path.empty();
    if (collect)
        opts.metrics = &collector;

    // Mount the persistent artifact store before anything traces or
    // compiles. An unopenable store directory is a configuration
    // error (exit 2): silently running cold would defeat the
    // warm-start contract the flag exists for.
    ArtifactStore store;
    if (!artifact_dir.empty()) {
        std::string err;
        if (!store.open(artifact_dir, &err)) {
            std::fprintf(stderr, "artifact store: %s\n", err.c_str());
            return 2;
        }
        opts.artifactStore = &store;
    }

    ResultJournal journal;
    if (!journal_path.empty()) {
        const std::string hash = ExperimentEngine::sweepHash(plan);
        std::string err;
        const bool opened =
            resume ? journal.openForResume(journal_path, hash, &err)
                   : journal.create(journal_path, hash, &err);
        if (!opened) {
            // A stale or unwritable journal is a configuration
            // error: nothing has run yet.
            std::fprintf(stderr, "journal: %s\n", err.c_str());
            return 2;
        }
        opts.journal = &journal;
        if (resume && !journal.entries().empty()) {
            std::printf("resuming: %zu journaled results found\n",
                        journal.entries().size());
        }
    }

    // SIGINT/SIGTERM drain the sweep instead of killing the
    // process: in-flight jobs finish, the journal stays intact.
    installDrainHandlers();
    opts.stop = &drainFlag();

    // Crash-containment tests arm a fault by spec: they drive this
    // binary and cannot pass an injector object.
    FaultInjector injector;
    if (const char *spec = std::getenv("VGIW_TEST_FAULT")) {
        if (auto fault = FaultSpec::parse(spec)) {
            injector.arm(*fault);
            opts.injector = &injector;
        }
    }

    // In-process, or (--shards) in forked, supervised worker
    // processes, where a hard fault (SIGSEGV, abort, OOM kill,
    // stall) costs one job dispatch, not the sweep. Everything
    // after the run is shared by both modes.
    ExperimentEngine engine(opts);
    std::optional<ShardSupervisor> sup;
    std::vector<JobResult> results;
    uint64_t executions = 0, compilations = 0;
    uint64_t store_hits = 0, store_misses = 0, store_mapped = 0;
    if (shards_set) {
        ShardOptions sopts;
        sopts.shards = shards;
        sopts.jobDeadlineMs = shard_deadline_ms;
        sopts.engine = opts;
        sup.emplace(sopts);
        for (ShardRow &row : sup->run(plan))
            results.push_back(std::move(row));
        // Trace/compile work happened in the workers; their final
        // Stats frames are the only census of it.
        const SupervisorStats &st = sup->stats();
        executions = st.functionalExecutions;
        compilations = st.compilations;
        store_hits = st.storeHits;
        store_misses = st.storeMisses;
        store_mapped = st.storeBytesMapped;
    } else {
        results = engine.run(plan);
        executions = engine.traceCache().functionalExecutions();
        compilations = engine.compileCache().compilations();
        store_hits = store.hits();
        store_misses = store.misses();
        store_mapped = store.bytesMapped();
    }
    ResultTable &table =
        sup ? sup->resultTable() : engine.resultTable();

    if (suite) {
        size_t restored = 0, drained = 0, quarantined = 0;
        std::printf("%-28s %-6s %12s %11s %9s %9s\n", "workload", "arch",
                    "cycles", "energy nJ", "L1 miss", "golden");
        for (const auto &r : results) {
            if (r.drained) {
                ++drained;
                std::printf("%-28s %-6s %44s\n", r.workload.c_str(),
                            r.arch.c_str(), "not run (drained)");
                continue;
            }
            restored += r.restored;
            quarantined += r.quarantined;
            if (r.restored && r.ok()) {
                // Stats live in the journaled JSON, not in memory;
                // don't print zeros as if they were measurements.
                std::printf("%-28s %-6s %44s\n", r.workload.c_str(),
                            r.arch.c_str(), "ok (restored)");
                continue;
            }
            if (!r.ok()) {
                std::printf("%-28s %-6s %44s\n", r.workload.c_str(),
                            r.arch.c_str(),
                            r.quarantined ? "QUARANTINED" : "SKIPPED");
                continue;
            }
            if (!r.stats.supported) {
                std::printf("%-28s %-6s %44s\n", r.workload.c_str(),
                            r.arch.c_str(), "unsupported");
                continue;
            }
            std::printf("%-28s %-6s %12llu %11.1f %8.1f%% %9s\n",
                        r.workload.c_str(), r.arch.c_str(),
                        (unsigned long long)r.stats.cycles,
                        r.stats.energy.systemPj() / 1e3,
                        100.0 * r.stats.l1Stats.missRate(),
                        r.goldenPassed ? "ok" : "FAIL");
        }
        std::printf("\n%zu results, %d failures (%llu functional "
                    "executions, %llu compilations)\n",
                    results.size(), failures,
                    (unsigned long long)executions,
                    (unsigned long long)compilations);
        if (!artifact_dir.empty()) {
            std::printf("artifact store: %llu hits, %llu misses, "
                        "%llu bytes mapped\n",
                        (unsigned long long)store_hits,
                        (unsigned long long)store_misses,
                        (unsigned long long)store_mapped);
        }
        if (restored)
            std::printf("%zu restored from the journal\n", restored);
        if (quarantined)
            std::printf("%zu quarantined after repeated worker crashes\n",
                        quarantined);
        if (drained)
            std::printf("%zu not run: interrupted%s\n", drained,
                        journal_path.empty()
                            ? ""
                            : "; resume with --journal --resume");
        if (sup) {
            const SupervisorStats &st = sup->stats();
            std::printf("supervisor: %llu restarts, %llu crashes, "
                        "%llu heartbeat misses\n",
                        (unsigned long long)st.restarts,
                        (unsigned long long)st.crashes,
                        (unsigned long long)st.heartbeatMisses);
            if (metrics_on)
                std::printf("supervisor metrics: %s\n",
                            st.countersJson().c_str());
        }
    } else {
        // The one workload's per-arch detail. Its jobs share one trace,
        // so the first job's verdict is the golden check's; a later job
        // failing with that same error has nothing more to show.
        const JobResult &first = results.front();
        const bool golden_failed = !first.drained && !first.goldenPassed;
        if (!first.drained) {
            std::printf("golden check: %s\n\n",
                        golden_failed ? ("FAILED: " + first.error).c_str()
                                      : "PASSED");
        }
        for (size_t i = 0; i < results.size(); ++i) {
            const JobResult &r = results[i];
            if (r.drained) {
                std::printf("%-6s: not run (drained)\n", r.arch.c_str());
            } else if (r.ok()) {
                printStats(r.stats, verbose);
            } else if (r.errorKind == SimErrorKind::Watchdog) {
                std::printf("%-6s: WATCHDOG: %s\n", r.arch.c_str(),
                            r.error.c_str());
            } else if (!golden_failed || r.error != first.error) {
                std::printf("%-6s: FAILED (%s): %s\n", r.arch.c_str(),
                            simErrorKindName(r.errorKind), r.error.c_str());
            }
            // The JSON rows of --workload name the instance, not the
            // registry entry (they differ for the BPNN kernels).
            results[i].workload = full_name;
            table.fill(i, results[i]);
        }
    }

    if (collect && !metrics_on) {
        // Spans were wanted, counters were not: strip them so the
        // --json output stays bit-identical to a metrics-free run.
        // Re-fill the engine's table rows so the render reflects
        // the strip; the journal keeps the metrics it recorded.
        // Restored rows still re-emit their journaled bytes
        // verbatim, exactly as before.
        for (size_t i = 0; i < results.size(); ++i) {
            results[i].metricsJson.clear();
            table.fill(i, results[i]);
        }
    }

    bool io_failed = false;
    if (!json_path.empty() && !writeJson(json_path, table))
        io_failed = true;
    if (!trace_path.empty() && !writeTrace(trace_path, collector))
        io_failed = true;
    journal.close();
    if (std::string jerr = journal.writeError(); !jerr.empty()) {
        std::fprintf(stderr, "journal: %s\n", jerr.c_str());
        io_failed = true;
    }
    if (io_failed)
        return 1;
    if (drainRequested())
        return 4;
    return failures ? 3 : 0;
}
