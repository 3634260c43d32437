/**
 * @file
 * perfbench_harness — end-to-end and per-layer measurement of sweeps.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     --reference-dir DIR --scratch-dir DIR
 *                     --archs a,b,c
 *   perfbench_harness --write-reference DIR
 *
 * One iteration is one batch sweep of the workload's job list, run as a
 * closed loop with a single client: the next sweep starts when the
 * previous one has returned and its rows have been rendered. With
 * --trace 0 the harness times iterations for S seconds and prints the
 * end-to-end metrics; with --trace 1 it runs the layer walk (ledger.cc)
 * and prints the per-layer metrics. Every rendered row is checked
 * against the reference outputs. The last stdout line is the result
 * object; perfbench/run.py validates it against BENCHMARK.json.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "common/bitops.hh"
#include "common/json.hh"
#include "driver/artifact_store.hh"
#include "driver/worker_pool.hh"
#include "perfbench.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

/** Engine worker threads: the host's cores, at most four. */
constexpr unsigned kMaxWorkers = 4;
/** Shard worker processes on suite_sharded (at most the workers). */
constexpr unsigned kShards = 2;
/** Cold starts per run; setup_s is their median. */
constexpr int kColdStarts = 5;
/** Timed iterations per run even when they overrun --seconds. */
constexpr int kMinIterations = 3;

const Shape kShapes[] = {
    {"suite_cold", Mode::Engine},
    {"suite_warm", Mode::Warm},
    {"suite_sharded", Mode::Sharded},
};

std::string
cpuModelName()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "unknown" : line.substr(start);
    }
    return "unknown";
}

unsigned
engineWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, kMaxWorkers);
}

/**
 * Return freed heap to the system and restart this process's peak-RSS
 * mark (Linux: clear_refs "5"), so an iteration's peak measures its own
 * footprint rather than what the allocator kept from earlier sweeps.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Peak resident set since the last resetPeakRss(), MB: this process's
 * VmHWM, or the largest reaped child's peak when that is higher (the
 * shard workers hold the traces on suite_sharded).
 */
double
peakRssMb()
{
    double kb = 0.0;
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            kb = std::atof(line.c_str() + 6);
    }
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return std::max(kb, double(kids.ru_maxrss)) / 1024.0;
}

/** What one sweep produced, for timing and for the output check. */
struct Sweep
{
    double wallS = 0.0;
    AllocSnapshot allocs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string problem;  ///< first failure, for the log
};

struct RunContext
{
    const Shape *shape = nullptr;
    unsigned workers = 1;
    unsigned shards = 1;
    const Reference *reference = nullptr;
};

/** Check every row: the job succeeded and its bytes match the reference. */
void
checkRows(const std::vector<vgiw::ExperimentJob> &jobs,
          const std::vector<bool> &jobOk, const RowBuffer &buf,
          const Reference &ref, Sweep &out)
{
    std::vector<bool> seen(jobs.size(), false);
    for (const auto &[i, line] : buf.rows()) {
        seen[i] = true;
        const auto &j = jobs[i];
        const std::string key = rowKey(j.workload, j.arch, j.configLabel);
        if (!jobOk[i] || !ref.matches(key, line)) {
            ++out.failed;
            if (out.problem.empty())
                out.problem = (jobOk[i] ? "row differs from the reference: "
                                        : "job failed: ") +
                              key;
        }
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!seen[i]) {
            ++out.failed;
            if (out.problem.empty())
                out.problem = "no row rendered for job " + std::to_string(i);
        }
    }
    out.attempted += jobs.size();
}

/**
 * One sweep of @p jobs in @p mode: the timed part is the run call plus
 * rendering every row into one buffer (the --json path without the
 * disk). @p storeDir is the artifact store for Mode::Warm, or the
 * store to publish into for a cold start (empty = no store).
 */
Sweep
runSweep(const RunContext &ctx, Mode mode,
         const std::vector<vgiw::ExperimentJob> &jobs,
         const std::string &storeDir)
{
    Sweep out;
    std::vector<bool> job_ok(jobs.size(), false);
    RowBuffer buf;

    vgiw::ArtifactStore store;
    if (!storeDir.empty()) {
        std::string err;
        if (!store.open(storeDir, &err)) {
            out.failed = jobs.size();
            out.attempted = jobs.size();
            out.problem = "artifact store: " + err;
            return out;
        }
    }

    // Forked shard workers must not inherit unflushed output.
    std::fflush(stdout);
    const AllocSnapshot a0 = allocSnapshot();
    const auto t0 = Clock::now();
    uint64_t execs = 0, comps = 0;
    if (mode == Mode::Sharded) {
        vgiw::ShardOptions so;
        so.shards = ctx.shards;
        vgiw::ShardSupervisor sup(so);
        const auto rows = sup.run(jobs);
        sup.resultTable().renderInto(buf);
        out.wallS = secondsSince(t0);
        out.allocs = allocSnapshot();
        for (size_t i = 0; i < rows.size(); ++i)
            job_ok[i] = rows[i].ok && rows[i].golden;
    } else {
        vgiw::EngineOptions opts{ctx.workers};
        if (!storeDir.empty())
            opts.artifactStore = &store;
        vgiw::ExperimentEngine engine{opts};
        const auto results = engine.run(jobs);
        engine.resultTable().renderInto(buf);
        out.wallS = secondsSince(t0);
        out.allocs = allocSnapshot();
        for (size_t i = 0; i < results.size(); ++i)
            job_ok[i] = results[i].ok() && results[i].goldenPassed;
        execs = engine.traceCache().functionalExecutions();
        comps = engine.compileCache().compilations();
    }
    out.allocs.count -= a0.count;
    out.allocs.bytes -= a0.bytes;

    checkRows(jobs, job_ok, buf, *ctx.reference, out);
    // The store's contract: a warm sweep traces and compiles nothing.
    if (mode == Mode::Warm && (execs != 0 || comps != 0)) {
        out.failed = out.attempted;
        out.problem = "warm sweep traced or compiled (" +
                      std::to_string(execs) + " executions, " +
                      std::to_string(comps) + " compilations)";
    }
    return out;
}

/**
 * One cold start: build the default-suite job list and run it once in
 * a fresh engine — publishing into a fresh store for suite_warm, through
 * the supervisor for suite_sharded.
 */
Sweep
coldStart(const RunContext &ctx, std::mt19937_64 &order,
          const std::string &storeDir)
{
    const auto t0 = Clock::now();
    const auto jobs = makeJobs(order);
    const Mode mode =
        ctx.shape->mode == Mode::Sharded ? Mode::Sharded : Mode::Engine;
    Sweep s = runSweep(ctx, mode, jobs, storeDir);
    s.wallS = secondsSince(t0);
    return s;
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string referenceDir;
    std::string scratchDir;
    std::string archs;
    std::string writeReferenceDir;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench_harness: %s\n", msg);
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 --reference-dir DIR "
                 "--scratch-dir DIR --archs a,b,...\n"
                 "       perfbench_harness --write-reference DIR\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v);
        else if (flag == "--trace")
            a.trace = std::atoi(v);
        else if (flag == "--reference-dir")
            a.referenceDir = v;
        else if (flag == "--scratch-dir")
            a.scratchDir = v;
        else if (flag == "--archs")
            a.archs = v;
        else if (flag == "--write-reference")
            a.writeReferenceDir = v;
        else
            usage(("unknown option " + flag).c_str());
    }
    return a;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    for (std::string item; std::getline(ss, item, ',');)
        out.push_back(item);
    return out;
}

void
printContext(const Args &args, const RunContext &ctx)
{
    const Shape &shape = *ctx.shape;
    std::string archs;
    for (const auto &a : vgiw::knownArchitectures())
        archs += (archs.empty() ? "\"" : ",\"") + a + "\"";
    std::printf("context {\"cpu_model\": \"%s\", \"nproc\": %u, "
                "\"workers\": %u, \"shards\": %u, \"build_type\": \"%s\", "
                "\"bitops_backend\": \"%s\", \"archs\": [%s], "
                "\"workload\": \"%s\", \"seed\": %" PRIu64 ", "
                "\"jobs_per_iteration\": %zu, \"trace\": %d}\n",
                vgiw::jsonEscape(cpuModelName()).c_str(),
                std::thread::hardware_concurrency(), ctx.workers,
                shape.mode == Mode::Sharded ? ctx.shards : 0u,
                PERFBENCH_BUILD_TYPE, vgiw::bitops::backendName(),
                archs.c_str(), shape.name.c_str(), args.seed,
                vgiw::workloadRegistry().size() *
                    vgiw::knownArchitectures().size(),
                args.trace);
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const MetricList &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.json().c_str());
    std::fflush(stdout);
}

/** The timed closed loop: the end-to-end metrics. */
int
runEndToEnd(const Args &args, const RunContext &ctx)
{
    namespace fs = std::filesystem;
    const Shape &shape = *ctx.shape;
    uint64_t attempted = 0, failed = 0;
    std::string problem;
    auto account = [&](const Sweep &s) {
        attempted += s.attempted;
        failed += s.failed;
        if (problem.empty())
            problem = s.problem;
    };

    // Every sweep of the run submits its jobs in a fresh order drawn
    // from the seed, so a run's medians average over orders.
    std::mt19937_64 order(args.seed);

    // Set-up: several cold starts; the warm workload keeps the last
    // filled store for its iterations.
    std::vector<double> setup;
    std::string store_dir;
    for (int k = 0; k < kColdStarts; ++k) {
        std::string dir;
        if (shape.mode == Mode::Warm) {
            dir = (fs::path(args.scratchDir) /
                   ("store-" + std::to_string(k)))
                      .string();
            fs::remove_all(dir);
            if (!store_dir.empty())
                fs::remove_all(store_dir);
            store_dir = dir;
        }
        const Sweep s = coldStart(ctx, order, dir);
        account(s);
        setup.push_back(s.wallS);
        std::printf("setup %d: %.4f s\n", k, s.wallS);
    }

    size_t jobs_per_sweep = 0;
    std::vector<double> walls, allocs, mbs, rss;
    const auto start = Clock::now();
    while (int(walls.size()) < kMinIterations ||
           secondsSince(start) < args.seconds) {
        const auto jobs = makeJobs(order);
        jobs_per_sweep = jobs.size();
        resetPeakRss();
        const Sweep s = runSweep(ctx, shape.mode, jobs, store_dir);
        rss.push_back(peakRssMb());
        account(s);
        walls.push_back(s.wallS);
        allocs.push_back(double(s.allocs.count));
        mbs.push_back(double(s.allocs.bytes) / 1e6);
        std::printf("iteration %zu: %.4f s, %" PRIu64 " allocations, "
                    "%.1f MB allocated, %.1f MB peak RSS\n",
                    walls.size() - 1, s.wallS, s.allocs.count,
                    double(s.allocs.bytes) / 1e6, rss.back());
    }
    if (!store_dir.empty())
        fs::remove_all(store_dir);

    const double fail_frac = double(failed) / double(attempted);
    MetricList m;
    m.add("wall_s", median(walls), "s");
    m.add("jobs_per_s", double(jobs_per_sweep) / median(walls), "1/s");
    m.add("setup_s", median(setup), "s");
    m.add("heap_allocs", median(allocs), "count");
    m.add("heap_mb", median(mbs), "MB");
    m.add("peak_rss_mb", median(rss), "MB");
    std::printf("%zu iterations of %zu jobs; fail_frac %.6g (%" PRIu64
                "/%" PRIu64 " rows failed or mismatched)\n",
                walls.size(), jobs_per_sweep, fail_frac, failed, attempted);
    if (!problem.empty())
        std::printf("first problem: %s\n", problem.c_str());
    printResult(failed == 0, attempted, failed, m);
    return 0;
}

/** The traced run: the per-layer metrics. */
int
runTraced(const Args &args, const RunContext &ctx,
          const std::vector<std::string> &archs)
{
    namespace fs = std::filesystem;
    LedgerOptions lo;
    lo.shape = ctx.shape;
    lo.seed = args.seed;
    lo.seconds = args.seconds;
    lo.shards = ctx.shards;
    lo.archs = &archs;
    lo.reference = ctx.reference;

    uint64_t attempted = 0, failed = 0;
    if (ctx.shape->mode == Mode::Warm) {
        lo.storeDir = (fs::path(args.scratchDir) / "store").string();
        lo.publishDir = (fs::path(args.scratchDir) / "publish").string();
        fs::remove_all(lo.storeDir);
        std::mt19937_64 order(args.seed);
        const Sweep s = coldStart(ctx, order, lo.storeDir);
        attempted += s.attempted;
        failed += s.failed;
    }
    LedgerResult r = runLedger(lo);
    if (!lo.storeDir.empty()) {
        fs::remove_all(lo.storeDir);
        fs::remove_all(lo.publishDir);
    }
    attempted += r.attempted;
    failed += r.failed;
    std::printf("layer walk: %" PRIu64 " rows checked, %" PRIu64
                " failed or mismatched; sim.* %s across walks\n",
                attempted, failed, r.simRepeats ? "repeat" : "DIFFER");
    printResult(failed == 0 && r.simRepeats, attempted, failed, r.metrics);
    return 0;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const Shape *
findShape(const std::string &name)
{
    for (const auto &s : kShapes)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<vgiw::ExperimentJob>
makeJobs(std::mt19937_64 &order)
{
    std::vector<vgiw::ExperimentJob> jobs =
        vgiw::ExperimentEngine::suiteJobs(vgiw::SystemConfig{});
    for (size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[size_t(order() % i)]);
    return jobs;
}

std::string
rowKey(std::string_view workload, std::string_view arch,
       std::string_view configLabel)
{
    std::string k;
    k.reserve(workload.size() + arch.size() + configLabel.size() + 2);
    k.append(workload).append("|").append(arch).append("|").append(
        configLabel);
    return k;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    const unsigned workers = engineWorkers();

    if (!args.writeReferenceDir.empty()) {
        std::string err;
        if (!writeReference(args.writeReferenceDir, workers, &err)) {
            std::fprintf(stderr, "perfbench_harness: %s\n", err.c_str());
            return 1;
        }
        return 0;
    }

    const Shape *shape = findShape(args.workload);
    if (!shape)
        usage(("unknown workload '" + args.workload + "'").c_str());
    if (args.referenceDir.empty() || args.scratchDir.empty())
        usage("--reference-dir and --scratch-dir are required");
    if (args.trace != 0 && args.trace != 1)
        usage("--trace takes 0 or 1");

    // The benchmark names every architecture it measures; a registry
    // that grew or shrank would silently change job counts.
    const std::vector<std::string> archs = splitCommas(args.archs);
    if (archs != vgiw::knownArchitectures()) {
        std::string have;
        for (const auto &a : vgiw::knownArchitectures())
            have += (have.empty() ? "" : ",") + a;
        std::fprintf(stderr,
                     "perfbench_harness: registered architectures (%s) "
                     "differ from the benchmark's (%s)\n",
                     have.c_str(), args.archs.c_str());
        return 1;
    }

    Reference ref;
    std::string err;
    if (!ref.load(args.referenceDir, &err)) {
        std::fprintf(stderr, "perfbench_harness: reference: %s\n",
                     err.c_str());
        return 1;
    }
    std::filesystem::create_directories(args.scratchDir);

    RunContext ctx;
    ctx.shape = shape;
    ctx.workers = workers;
    ctx.shards = std::min(kShards, workers);
    ctx.reference = &ref;
    printContext(args, ctx);
    try {
        return args.trace ? runTraced(args, ctx, archs)
                          : runEndToEnd(args, ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
