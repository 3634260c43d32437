/**
 * @file
 * bench_throughput — the repository's tracked wall-clock trajectory.
 *
 * Runs the full Table 2 registry across every registered architecture
 * (VGIW, Fermi, SGMF and DICE) under a multi-point LVC/CVT design-space
 * sweep (the shape every ablation harness has), several times, and
 * reports wall-clock, full-suite sweeps/sec, jobs/sec and heap
 * allocation counts. The numbers land in BENCH_throughput.json at the
 * working directory — committed at the repo root so every later PR has
 * a perf trajectory to beat.
 *
 * The sweep varies only replay-side parameters (LVC bytes, CVT bits),
 * so kernel compilation (DFG construction + MT-CGRF placement) is
 * identical across config points: exactly the situation the driver's
 * CompileCache amortises.
 *
 *   bench_throughput [--quick] [--repeats N] [--configs N] [--jobs N]
 *                    [--out FILE] [--metrics-overhead]
 *                    [--overhead-bound PCT]
 *
 * --metrics-overhead additionally times the same sweep with a
 * MetricsCollector attached and reports the instrumentation cost as a
 * percentage — the observability layer's contract is that the enabled
 * path stays under --overhead-bound (default 2%) of sweep wall clock
 * (and the disabled path is free). Both legs are best-of-N and the
 * bound applies to the *signed* overhead only when it is positive: a
 * negative number just means run-to-run noise exceeded the real cost,
 * which is not a contract violation. The extra fields appear in the
 * JSON only in that mode, so the default schema is unchanged.
 *
 * The harness also times the artifact-store warm path: a cold sweep
 * against a scratch --artifact-dir-style store (publishing every trace
 * and compiled kernel), then warm sweeps that must report zero
 * functional executions and zero compilations. The cold/warm wall
 * clocks and the warm speedup are pinned in the JSON.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "bench_util.hh"
#include "common/json.hh"
#include "driver/artifact_store.hh"
#include "driver/experiment_engine.hh"
#include "workloads/workload.hh"

// ---------------------------------------------------------------------
// Heap traffic accounting: the replay hot paths are supposed to be
// allocation-free, and this harness is where that claim is measured.
// Counting is done here, in the binary, so the library stays untouched.
// ---------------------------------------------------------------------

namespace
{

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *operator new(std::size_t n, std::align_val_t a)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    void *p = std::aligned_alloc(std::size_t(a),
                                 (n + std::size_t(a) - 1) &
                                     ~(std::size_t(a) - 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return operator new(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace vgiw;

/** One timed full sweep (all config points through one fresh engine). */
struct RepeatResult
{
    double wallMs = 0.0;
    uint64_t allocations = 0;
    uint64_t allocBytes = 0;
    size_t jobsOk = 0;
    uint64_t functionalExecutions = 0;
    uint64_t compilations = 0;
};

/**
 * The replay-side design-space points: LVC capacity x CVT capacity.
 * Compilation (grid, timing, replication) is identical at every point.
 */
std::vector<SystemConfig>
sweepConfigs(int points)
{
    static const uint32_t lvc_kb[] = {8,  16, 24, 32,  48,
                                      64, 96, 128, 192, 256};
    static const uint32_t cvt_bits[] = {64 * 1024, 32 * 1024};
    std::vector<SystemConfig> out;
    out.reserve(size_t(points));
    for (int i = 0; i < points; ++i) {
        SystemConfig cfg;
        cfg.vgiw.lvcBytes = lvc_kb[size_t(i) % std::size(lvc_kb)] * 1024;
        cfg.vgiw.cvtCapacityBits =
            cvt_bits[(size_t(i) / std::size(lvc_kb)) % std::size(cvt_bits)];
        out.push_back(cfg);
    }
    return out;
}

RepeatResult
runOnce(const std::vector<SystemConfig> &configs, unsigned jobs,
        MetricsCollector *metrics = nullptr,
        ArtifactStore *store = nullptr)
{
    std::vector<ExperimentJob> all;
    for (size_t c = 0; c < configs.size(); ++c) {
        auto pts = ExperimentEngine::suiteJobs(
            configs[c], knownArchitectures(), "pt" + std::to_string(c));
        all.insert(all.end(), std::make_move_iterator(pts.begin()),
                   std::make_move_iterator(pts.end()));
    }

    EngineOptions opts{jobs};
    opts.metrics = metrics;
    opts.artifactStore = store;
    ExperimentEngine engine{opts};
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const uint64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    auto results = engine.run(all);
    const auto t1 = std::chrono::steady_clock::now();

    RepeatResult r;
    r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.allocations = g_allocs.load(std::memory_order_relaxed) - a0;
    r.allocBytes = g_alloc_bytes.load(std::memory_order_relaxed) - b0;
    for (const auto &res : results)
        if (res.ok())
            ++r.jobsOk;
    r.functionalExecutions = engine.traceCache().functionalExecutions();
    r.compilations = engine.compileCache().compilations();
    return r;
}

/**
 * The host CPU's marketing name from /proc/cpuinfo, or "unknown" off
 * Linux — wall-clock numbers are meaningless without knowing what
 * silicon produced them.
 */
std::string
cpuModelName()
{
    FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "unknown";
    std::string model = "unknown";
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "model name", 10) != 0)
            continue;
        if (const char *colon = std::strchr(line, ':')) {
            std::string s = colon + 1;
            while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
                s.erase(0, 1);
            while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                                  s.back() == ' '))
                s.pop_back();
            if (!s.empty())
                model = s;
        }
        break;
    }
    std::fclose(f);
    return model;
}

} // namespace

int
main(int argc, char **argv)
{
    int repeats = 3;
    int configs = 20;
    unsigned jobs = 0;
    std::string out_path = "BENCH_throughput.json";
    bool quick = false;
    bool metrics_overhead = false;
    double overhead_bound = 2.0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--quick") {
            quick = true;
        } else if (a == "--repeats") {
            repeats = std::atoi(next());
        } else if (a == "--configs") {
            configs = std::atoi(next());
        } else if (a == "--jobs") {
            jobs = unsigned(std::atoi(next()));
        } else if (a == "--out") {
            out_path = next();
        } else if (a == "--metrics-overhead") {
            metrics_overhead = true;
        } else if (a == "--overhead-bound") {
            overhead_bound = std::atof(next());
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            std::fprintf(stderr,
                         "usage: bench_throughput [--quick] [--repeats N] "
                         "[--configs N] [--jobs N] [--out FILE] "
                         "[--metrics-overhead] [--overhead-bound PCT]\n");
            return 2;
        }
    }
    if (quick) {
        repeats = 1;
        configs = 4;
    }
    if (repeats < 1 || configs < 1) {
        std::fprintf(stderr, "--repeats and --configs must be >= 1\n");
        return 2;
    }

    const auto cfgs = sweepConfigs(configs);
    const size_t workloads = workloadRegistry().size();
    const size_t archs = knownArchitectures().size();
    const size_t jobs_per_sweep = workloads * archs * cfgs.size();

    vgiw::bench::printHeader(
        "Suite-sweep throughput (wall clock, tracked trajectory)",
        "the harness perf baseline, not a paper figure");
    std::printf("  %zu workloads x %zu archs x %zu config points = %zu "
                "jobs/sweep, %d repeat(s)\n\n",
                workloads, archs, cfgs.size(), jobs_per_sweep, repeats);

    std::vector<RepeatResult> runs;
    for (int rep = 0; rep < repeats; ++rep) {
        RepeatResult r = runOnce(cfgs, jobs);
        std::printf("  repeat %d: %9.1f ms, %zu/%zu jobs ok, %llu "
                    "allocations (%.1f MB)\n",
                    rep, r.wallMs, r.jobsOk, jobs_per_sweep,
                    (unsigned long long)r.allocations,
                    double(r.allocBytes) / (1024.0 * 1024.0));
        if (r.jobsOk != jobs_per_sweep) {
            std::fprintf(stderr, "FAILED: %zu jobs did not complete\n",
                         jobs_per_sweep - r.jobsOk);
            return 1;
        }
        runs.push_back(r);
    }

    double best = runs[0].wallMs, sum = 0.0;
    for (const auto &r : runs) {
        best = std::min(best, r.wallMs);
        sum += r.wallMs;
    }
    const double mean = sum / double(runs.size());
    const double sweeps_per_sec = 1000.0 / best;
    const double jobs_per_sec = double(jobs_per_sweep) * 1000.0 / best;

    std::printf("\n  best %9.1f ms | mean %9.1f ms | %.2f full sweeps/s "
                "| %.0f jobs/s\n",
                best, mean, sweeps_per_sec, jobs_per_sec);

    // Optional instrumentation-cost measurement: the same sweep with
    // the observability layer enabled, against the best disabled time.
    double metrics_best = 0.0, overhead_pct = 0.0;
    if (metrics_overhead) {
        std::printf("\n  metrics-enabled repeats:\n");
        for (int rep = 0; rep < repeats; ++rep) {
            MetricsCollector collector;
            RepeatResult r = runOnce(cfgs, jobs, &collector);
            std::printf("  repeat %d: %9.1f ms, %zu/%zu jobs ok\n", rep,
                        r.wallMs, r.jobsOk, jobs_per_sweep);
            if (r.jobsOk != jobs_per_sweep) {
                std::fprintf(stderr,
                             "FAILED: %zu jobs did not complete\n",
                             jobs_per_sweep - r.jobsOk);
                return 1;
            }
            metrics_best = rep == 0 ? r.wallMs
                                    : std::min(metrics_best, r.wallMs);
        }
        overhead_pct = 100.0 * (metrics_best - best) / best;
        std::printf("  metrics best %9.1f ms | overhead %+.2f%% "
                    "(contract: < %.1f%% when positive)\n",
                    metrics_best, overhead_pct, overhead_bound);
        // Both legs are best-of-N, so residual noise can make the
        // signed overhead negative — that is not a violation. Only a
        // positive overhead beyond the bound breaks the contract.
        if (overhead_pct > overhead_bound) {
            std::fprintf(stderr,
                         "FAILED: metrics overhead %+.2f%% exceeds the "
                         "%.1f%% bound\n",
                         overhead_pct, overhead_bound);
            return 1;
        }
    }

    // ------------------------------------------------------------------
    // Artifact-store phases: publish everything once (cold), then time
    // sweeps that mmap traces and compiled kernels back (warm). Warm
    // legs must do zero functional executions and zero compilations —
    // that is the store's contract, asserted here, not just reported.
    // ------------------------------------------------------------------
    const std::string store_dir = out_path + ".artifacts.tmp";
    std::error_code scratch_ec;
    std::filesystem::remove_all(store_dir, scratch_ec);
    double cold_wall = 0.0, warm_best = 0.0;
    uint64_t warm_execs = 0, warm_comps = 0;
    uint64_t warm_hits = 0, warm_bytes = 0;
    {
        std::printf("\n  artifact-store phases (cold publish, then warm "
                    "mmap):\n");
        ArtifactStore cold_store;
        std::string err;
        if (!cold_store.open(store_dir, &err)) {
            std::fprintf(stderr, "FAILED: artifact store: %s\n",
                         err.c_str());
            return 1;
        }
        RepeatResult cold = runOnce(cfgs, jobs, nullptr, &cold_store);
        cold_wall = cold.wallMs;
        std::printf("  cold:   %9.1f ms (traced %llu, compiled %llu, "
                    "store populated)\n",
                    cold.wallMs,
                    (unsigned long long)cold.functionalExecutions,
                    (unsigned long long)cold.compilations);
        if (cold.jobsOk != jobs_per_sweep) {
            std::fprintf(stderr, "FAILED: cold store sweep lost jobs\n");
            return 1;
        }
        for (int rep = 0; rep < repeats; ++rep) {
            ArtifactStore warm_store;
            if (!warm_store.open(store_dir, &err)) {
                std::fprintf(stderr, "FAILED: artifact store: %s\n",
                             err.c_str());
                return 1;
            }
            RepeatResult w = runOnce(cfgs, jobs, nullptr, &warm_store);
            std::printf("  warm %d: %9.1f ms, %llu functional "
                        "executions, %llu compilations\n",
                        rep, w.wallMs,
                        (unsigned long long)w.functionalExecutions,
                        (unsigned long long)w.compilations);
            if (w.jobsOk != jobs_per_sweep ||
                w.functionalExecutions != 0 || w.compilations != 0) {
                std::fprintf(stderr,
                             "FAILED: warm sweep was not fully served "
                             "from the store\n");
                return 1;
            }
            if (rep == 0 || w.wallMs < warm_best) {
                warm_best = w.wallMs;
                warm_hits = warm_store.hits();
                warm_bytes = warm_store.bytesMapped();
            }
            warm_execs += w.functionalExecutions;
            warm_comps += w.compilations;
        }
        std::printf("  warm best %9.1f ms | %.2fx vs cold | %.2fx vs "
                    "best plain sweep\n",
                    warm_best, cold_wall / warm_best, best / warm_best);
    }
    std::filesystem::remove_all(store_dir, scratch_ec);

    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"bench_throughput\",\n"
                 "  \"quick\": %s,\n"
                 "  \"workloads\": %zu,\n"
                 "  \"archs\": %zu,\n"
                 "  \"config_points\": %zu,\n"
                 "  \"jobs_per_sweep\": %zu,\n"
                 "  \"repeats\": %d,\n",
                 quick ? "true" : "false", workloads, archs, cfgs.size(),
                 jobs_per_sweep, repeats);
    // Hardware context (additive — every pre-existing field keeps its
    // name and position): numbers from unknown silicon are noise. The
    // host core count and the engine's actual worker count are distinct
    // facts (--jobs can pin the latter), so both are recorded.
    std::fprintf(f,
                 "  \"host\": {\"cpu_model\": \"%s\", \"cores\": %u},\n"
                 "  \"engine_workers\": %u,\n",
                 vgiw::jsonEscape(cpuModelName()).c_str(),
                 std::thread::hardware_concurrency(),
                 jobs ? jobs : std::thread::hardware_concurrency());
    std::fprintf(f, "  \"runs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        std::fprintf(f,
                     "    {\"wall_ms\": %.3f, \"allocations\": %llu, "
                     "\"alloc_bytes\": %llu, \"functional_executions\": "
                     "%llu, \"compilations\": %llu}%s\n",
                     runs[i].wallMs,
                     (unsigned long long)runs[i].allocations,
                     (unsigned long long)runs[i].allocBytes,
                     (unsigned long long)runs[i].functionalExecutions,
                     (unsigned long long)runs[i].compilations,
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"best_wall_ms\": %.3f,\n"
                 "  \"mean_wall_ms\": %.3f,\n"
                 "  \"sweeps_per_sec\": %.4f,\n"
                 "  \"jobs_per_sec\": %.1f,\n"
                 "  \"artifact_store\": {\"cold_wall_ms\": %.3f, "
                 "\"warm_best_wall_ms\": %.3f, \"warm_speedup\": %.3f, "
                 "\"warm_functional_executions\": %llu, "
                 "\"warm_compilations\": %llu, \"warm_hits\": %llu, "
                 "\"warm_bytes_mapped\": %llu}",
                 best, mean, sweeps_per_sec, jobs_per_sec, cold_wall,
                 warm_best, cold_wall / warm_best,
                 (unsigned long long)warm_execs,
                 (unsigned long long)warm_comps,
                 (unsigned long long)warm_hits,
                 (unsigned long long)warm_bytes);
    if (metrics_overhead) {
        // Only in --metrics-overhead runs: the tracked trajectory file
        // keeps its schema.
        std::fprintf(f,
                     ",\n  \"metrics_best_wall_ms\": %.3f,\n"
                     "  \"metrics_overhead_pct\": %.3f",
                     metrics_best, overhead_pct);
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", out_path.c_str());
    return 0;
}
