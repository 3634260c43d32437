/**
 * @file
 * The traced layer walk: per-layer host time, allocations and counts.
 *
 * The engine runs a job as trace → compile → replay → render behind its
 * caches and worker pool. To see each layer without instrumenting the
 * program, the walk drives the same public functions itself, one call
 * at a time on one thread, with a span (steady-clock time plus an
 * allocation count) around each call:
 *
 *   workloads.build   WorkloadEntry::make
 *   interp.run        Interpreter::run (with the memory-image copy)
 *   workloads.golden  WorkloadInstance::check
 *   interp.intern     TraceSet::buildAccessIntern
 *   compile.<arch>    CoreModel::compile
 *   replay.<arch>     CoreModel::run
 *   render            ResultTable::fill + ResultTable::renderRow
 *   store.load        TraceCache::get / CompileCache::get served from
 *                     the artifact store (ArtifactStore::load,
 *                     TraceSet::deserialize, deserializeArtifact and,
 *                     on this path, the access-intern build)
 *   store.publish     TraceSet::serializeInto / serializeArtifact +
 *                     ArtifactStore::publish into a scratch store
 *
 * Spans do not nest, so each layer's time is its self time; whatever
 * the walk spends outside every span (core-model construction, job
 * bookkeeping, the output check) is reported as ledger.unaccounted_ms.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "driver/artifact_store.hh"
#include "driver/compile_cache.hh"
#include "driver/trace_cache.hh"
#include "driver/worker_pool.hh"
#include "interp/interpreter.hh"
#include "perfbench.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

/** Accumulated cost of one layer. */
struct Layer
{
    double ns = 0.0;
    uint64_t allocs = 0;
};

/** Number of spans opened; the tracing-overhead estimate scales it. */
thread_local uint64_t t_spans = 0;

/** Times one call into a layer and counts its allocations. */
class Span
{
  public:
    explicit Span(Layer &layer)
        : layer_(layer), a0_(allocSnapshot().count), t0_(Clock::now())
    {
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        const auto t1 = Clock::now();
        layer_.ns += std::chrono::duration<double, std::nano>(t1 - t0_).count();
        layer_.allocs += allocSnapshot().count - a0_;
        ++t_spans;
    }

  private:
    Layer &layer_;
    uint64_t a0_;
    Clock::time_point t0_;
};

/** Deterministic outputs of the modelled design, summed per arch. */
struct SimTotals
{
    uint64_t cycles = 0;
    uint64_t l1Accesses = 0, l1Misses = 0;
    uint64_t dramAccesses = 0, dramRowHits = 0;
    uint64_t lvcAccesses = 0, lvcMisses = 0;
    double systemPj = 0.0;

    void
    add(const vgiw::RunStats &s)
    {
        cycles += s.cycles;
        l1Accesses += s.l1Stats.accesses();
        l1Misses += s.l1Stats.misses();
        dramAccesses += s.dramStats.accesses;
        dramRowHits += s.dramStats.rowHits;
        lvcAccesses += s.lvcStats.accesses();
        lvcMisses += s.lvcStats.misses();
        systemPj += s.energy.systemPj();
    }
};

/** Per-architecture state of one walk. */
struct ArchLedger
{
    Layer compile, replay;
    uint64_t jobs = 0;
    uint64_t threadOps = 0;
    SimTotals sim;
};

/** Everything one walk measured. */
struct Walk
{
    Layer build, interp, golden, intern, render, storeLoad, storePublish;
    std::map<std::string, ArchLedger> arch;
    double interpMaxNs = 0.0;
    uint64_t compiles = 0;
    uint64_t blockExecs = 0, traceBytes = 0, traceRawBytes = 0;
    uint64_t renderBytes = 0;
    uint64_t storeHits = 0, storeMisses = 0, storeBytesMapped = 0;
    double wallNs = 0.0;
    uint64_t attempted = 0, failed = 0;

    double
    layerNs() const
    {
        double sum = build.ns + interp.ns + golden.ns + intern.ns +
                     render.ns + storeLoad.ns + storePublish.ns;
        for (const auto &[name, a] : arch)
            sum += a.compile.ns + a.replay.ns;
        return sum;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Replay, render and check every job of one workload. */
void
replayJobs(Walk &w, const std::vector<const vgiw::ExperimentJob *> &jobs,
           const vgiw::TraceSet &traces, bool goldenPassed,
           const std::function<std::shared_ptr<const vgiw::CompiledKernel>(
               const vgiw::CoreModel &)> &compiled,
           vgiw::ResultTable &table, const Reference &ref)
{
    table.reset(jobs.size());
    for (size_t k = 0; k < jobs.size(); ++k) {
        const vgiw::ExperimentJob &job = *jobs[k];
        ArchLedger &al = w.arch[job.arch];
        const auto model = vgiw::makeCoreModel(job.arch, job.config);
        const auto ck = compiled(*model);

        vgiw::JobResult r;
        r.workload = job.workload;
        r.arch = job.arch;
        r.configLabel = job.configLabel;
        r.goldenPassed = goldenPassed;
        {
            Span s(al.replay);
            r.stats = model->run(traces, *ck);
        }
        r.ran = true;
        std::string_view line;
        {
            Span s(w.render);
            table.fill(k, r);
            line = table.renderRow(k);
        }
        w.renderBytes += line.size();
        ++al.jobs;
        al.threadOps += r.stats.dynThreadOps;
        al.sim.add(r.stats);
        ++w.attempted;
        if (!goldenPassed ||
            !ref.matches(rowKey(job.workload, job.arch, job.configLabel),
                         line))
            ++w.failed;
    }
}

/** Jobs grouped by workload, in order of first appearance. */
std::vector<std::pair<std::string, std::vector<const vgiw::ExperimentJob *>>>
groupByWorkload(const std::vector<vgiw::ExperimentJob> &jobs)
{
    std::vector<std::pair<std::string,
                          std::vector<const vgiw::ExperimentJob *>>>
        groups;
    std::map<std::string, size_t> at;
    for (const auto &j : jobs) {
        auto [it, fresh] = at.emplace(j.workload, groups.size());
        if (fresh)
            groups.push_back({j.workload, {}});
        groups[it->second].second.push_back(&j);
    }
    return groups;
}

const vgiw::WorkloadEntry &
registryEntry(const std::string &name)
{
    for (const auto &e : vgiw::workloadRegistry())
        if (e.name == name)
            return e;
    throw std::runtime_error("unknown workload " + name);
}

/** Trace and compile every workload from scratch (no store). */
void
coldWalk(Walk &w, const std::vector<vgiw::ExperimentJob> &jobs,
         const Reference &ref)
{
    vgiw::ResultTable table;
    for (const auto &[name, group] : groupByWorkload(jobs)) {
        vgiw::WorkloadInstance inst;
        {
            Span s(w.build);
            inst = registryEntry(name).make();
        }
        vgiw::MemoryImage mem;
        vgiw::TraceSet traces;
        const double interp_before = w.interp.ns;
        {
            Span s(w.interp);
            mem = inst.memory;
            traces = vgiw::Interpreter{}.run(inst.kernel, inst.launch, mem);
        }
        // The slowest trace is the critical path at N workers.
        w.interpMaxNs = std::max(w.interpMaxNs, w.interp.ns - interp_before);
        bool golden = true;
        {
            Span s(w.golden);
            std::string err;
            if (inst.check)
                golden = inst.check(mem, err);
        }
        {
            Span s(w.intern);
            traces.buildAccessIntern();
        }
        w.blockExecs += traces.totalBlockExecs();
        w.traceBytes += traces.compressedBytes();
        w.traceRawBytes += traces.uncompressedBytes();

        // One compile per (compile slice, kernel), as the engine's
        // CompileCache does.
        std::map<std::string, std::shared_ptr<const vgiw::CompiledKernel>>
            cks;
        auto compiled = [&](const vgiw::CoreModel &model) {
            auto [it, fresh] = cks.emplace(model.compileKey(), nullptr);
            if (fresh) {
                Span s(w.arch[model.name()].compile);
                it->second = model.compile(inst.kernel);
                ++w.compiles;
            }
            return it->second;
        };
        replayJobs(w, group, traces, golden, compiled, table, ref);
    }
}

/** Serve every workload from the filled artifact store. */
void
warmWalk(Walk &w, const std::vector<vgiw::ExperimentJob> &jobs,
         const LedgerOptions &opts)
{
    vgiw::ArtifactStore store, publish;
    std::string err;
    if (!store.open(opts.storeDir, &err) ||
        !publish.open(opts.publishDir, &err))
        throw std::runtime_error("artifact store: " + err);
    vgiw::TraceCache tcache;
    vgiw::CompileCache ccache;
    tcache.setStore(&store);
    ccache.setStore(&store);
    vgiw::ResultTable table;
    for (const auto &[name, group] : groupByWorkload(jobs)) {
        vgiw::WorkloadInstance inst;
        {
            Span s(w.build);
            inst = registryEntry(name).make();
        }
        vgiw::TraceResult traced;
        {
            Span s(w.storeLoad);
            traced = tcache.get(
                name, [&inst] { return std::move(inst); },
                /*nameIsUnique=*/true);
        }
        if (!traced.traces)
            throw std::runtime_error("no traces for " + name);
        const vgiw::TraceSet &traces = *traced.traces;
        w.blockExecs += traces.totalBlockExecs();
        w.traceBytes += traces.compressedBytes();
        w.traceRawBytes += traces.uncompressedBytes();
        {
            Span s(w.storePublish);
            std::string payload;
            traces.serializeInto(payload);
            publish.publish("trace", "trace|" + name, payload);
        }

        std::map<std::string, std::shared_ptr<const vgiw::CompiledKernel>>
            cks;
        auto compiled = [&](const vgiw::CoreModel &model) {
            auto [it, fresh] = cks.emplace(model.compileKey(), nullptr);
            if (fresh) {
                {
                    Span s(w.storeLoad);
                    it->second = ccache.get(
                        model, vgiw::TraceCache::keyFor(name, traces.launch),
                        traced.traces);
                }
                Span s(w.storePublish);
                const std::string bytes = model.serializeArtifact(*it->second);
                if (!bytes.empty())
                    publish.publish(model.name() + ".ck",
                                    "ck|" + name + "|" + model.compileKey(),
                                    bytes);
            }
            return it->second;
        };
        replayJobs(w, group, traces, traced.ok(), compiled, table,
                   *opts.reference);
    }
    w.storeHits = store.hits();
    w.storeMisses = store.misses();
    w.storeBytesMapped = store.bytesMapped();
    if (tcache.functionalExecutions() != 0 || ccache.compilations() != 0)
        w.failed = w.attempted;  // the store did not serve the walk
}

/** Per-walk metrics, in the order BENCHMARK.json lists them. */
std::vector<std::pair<std::string, std::pair<double, std::string>>>
walkMetrics(const Walk &w, const std::vector<std::string> &archs)
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
    auto add = [&m](const std::string &n, double v, const char *u) {
        m.push_back({n, {v, u}});
    };
    add("workloads.build_ms", w.build.ns / 1e6, "ms");
    add("workloads.golden_ms", w.golden.ns / 1e6, "ms");
    add("interp.run_ms", w.interp.ns / 1e6, "ms");
    add("interp.run_ms.max", w.interpMaxNs / 1e6, "ms");
    add("interp.block_execs", double(w.blockExecs), "count");
    add("interp.ns_per_block_exec", ratio(w.interp.ns, double(w.blockExecs)),
        "ns");
    add("interp.trace_bytes", double(w.traceBytes), "bytes");
    add("interp.compression_ratio",
        ratio(double(w.traceRawBytes), double(w.traceBytes)), "ratio");
    add("interp.intern_ms", w.intern.ns / 1e6, "ms");
    for (const auto &a : archs) {
        const auto it = w.arch.find(a);
        add("compile." + a + ".ms",
            it == w.arch.end() ? 0.0 : it->second.compile.ns / 1e6, "ms");
    }
    add("compile.count", double(w.compiles), "count");
    for (const auto &a : archs) {
        const auto it = w.arch.find(a);
        const ArchLedger al = it == w.arch.end() ? ArchLedger{} : it->second;
        add("replay." + a + ".ms", al.replay.ns / 1e6, "ms");
        add("replay." + a + ".ns_per_op",
            ratio(al.replay.ns, double(al.threadOps)), "ns");
        add("replay." + a + ".allocs_per_job",
            ratio(double(al.replay.allocs), double(al.jobs)), "count");
    }
    add("render.ms", w.render.ns / 1e6, "ms");
    add("render.bytes", double(w.renderBytes), "bytes");
    add("store.load_ms", w.storeLoad.ns / 1e6, "ms");
    add("store.hits", double(w.storeHits), "count");
    add("store.misses", double(w.storeMisses), "count");
    add("store.bytes_mapped", double(w.storeBytesMapped), "bytes");
    add("store.publish_ms", w.storePublish.ns / 1e6, "ms");
    for (const auto &a : archs) {
        const auto it = w.arch.find(a);
        const SimTotals s = it == w.arch.end() ? SimTotals{} : it->second.sim;
        add("sim." + a + ".cycles", double(s.cycles), "cycles");
        add("sim." + a + ".l1_miss_ratio",
            ratio(double(s.l1Misses), double(s.l1Accesses)), "ratio");
        add("sim." + a + ".dram_row_hit_ratio",
            ratio(double(s.dramRowHits), double(s.dramAccesses)), "ratio");
        add("sim." + a + ".system_uj", s.systemPj / 1e6, "uJ");
        if (a == "vgiw")
            add("sim.vgiw.lvc_miss_ratio",
                ratio(double(s.lvcMisses), double(s.lvcAccesses)), "ratio");
    }
    add("ledger.wall_ms", w.wallNs / 1e6, "ms");
    add("ledger.unaccounted_ms", (w.wallNs - w.layerNs()) / 1e6, "ms");
    return m;
}

/** Cost of one empty span, ns (calibrates the tracing overhead). */
double
spanCostNs()
{
    Layer dummy;
    constexpr int kN = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kN; ++i)
        Span s(dummy);
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
           kN;
}

/** One untraced sweep: its wall time and its cache census. */
struct EngineRun
{
    double seconds = 0.0;
    double executions = 0.0;
    double compilations = 0.0;
};

/** Time one untraced sweep of @p jobs, rows rendered as --json would. */
EngineRun
timeEngine(const std::vector<vgiw::ExperimentJob> &jobs, unsigned workers,
           const std::string &storeDir)
{
    vgiw::ArtifactStore store;
    vgiw::EngineOptions opts{workers};
    if (!storeDir.empty()) {
        std::string err;
        if (!store.open(storeDir, &err))
            throw std::runtime_error("artifact store: " + err);
        opts.artifactStore = &store;
    }
    vgiw::ExperimentEngine engine{opts};
    RowBuffer buf;
    const auto t0 = Clock::now();
    engine.run(jobs);
    engine.resultTable().renderInto(buf);
    EngineRun r;
    r.seconds = secondsSince(t0);
    r.executions = double(engine.traceCache().functionalExecutions());
    r.compilations = double(engine.compileCache().compilations());
    return r;
}

} // namespace

LedgerResult
runLedger(const LedgerOptions &opts)
{
    std::mt19937_64 order(opts.seed);
    const auto jobs = makeJobs(order);
    const std::vector<std::string> &archs = *opts.archs;
    const bool warm = opts.shape->mode == Mode::Warm;
    LedgerResult out;

    // Walk until --seconds have passed (at least once); every timing is
    // the median over walks, every count must repeat exactly.
    std::vector<std::vector<std::pair<std::string,
                                      std::pair<double, std::string>>>>
        walks;
    const double span_ns = spanCostNs();
    std::vector<double> layer_ms;
    uint64_t spans = 0;
    double walk_ns = 0.0;
    const auto start = Clock::now();
    do {
        Walk w;
        const uint64_t spans0 = t_spans;
        const auto t0 = Clock::now();
        if (warm)
            warmWalk(w, jobs, opts);
        else
            coldWalk(w, jobs, *opts.reference);
        w.wallNs =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        spans += t_spans - spans0;
        walk_ns += w.wallNs;
        layer_ms.push_back(w.layerNs() / 1e6);
        out.attempted += w.attempted;
        out.failed += w.failed;
        walks.push_back(walkMetrics(w, archs));
        if (warm)
            std::filesystem::remove_all(opts.publishDir);
    } while (secondsSince(start) < opts.seconds);

    std::map<std::string, std::vector<double>> series;
    for (const auto &wm : walks)
        for (const auto &[name, vu] : wm)
            series[name].push_back(vu.first);
    for (const auto &[name, vu] : walks.front()) {
        const std::vector<double> &v = series[name];
        if (name.rfind("sim.", 0) == 0) {
            for (double x : v)
                out.simRepeats = out.simRepeats && x == v.front();
        }
        out.metrics.add(name, median(v), vu.second);
    }
    out.metrics.add("ledger.overhead_pct",
                    100.0 * ratio(double(spans) * span_ns, walk_ns), "%");

    // The untraced engine on the same jobs at one worker: what the walk
    // leaves out is the engine's own overhead.
    const EngineRun base =
        timeEngine(jobs, 1, warm ? opts.storeDir : std::string{});
    out.metrics.add("driver.engine_overhead_ms",
                    base.seconds * 1e3 - median(layer_ms), "ms");
    out.metrics.add("driver.trace_cache.reuse",
                    ratio(double(jobs.size()), base.executions), "ratio");
    out.metrics.add("driver.compile_cache.reuse",
                    ratio(double(jobs.size()), base.compilations), "ratio");

    // Supervision: the same jobs through forked shards against the
    // in-process engine at the same parallelism.
    double shard_execs = 0, restarts = 0, crashes = 0, shard_overhead = 0;
    if (opts.shape->mode == Mode::Sharded) {
        vgiw::ShardOptions so;
        so.shards = opts.shards;
        vgiw::ShardSupervisor sup(so);
        std::fflush(stdout);  // forked workers must not inherit it
        const auto t0 = Clock::now();
        const auto rows = sup.run(jobs);
        RowBuffer buf;
        sup.resultTable().renderInto(buf);
        const double sharded_s = secondsSince(t0);
        for (size_t i = 0; i < rows.size(); ++i) {
            ++out.attempted;
            const auto &j = jobs[i];
            if (!rows[i].ok ||
                !opts.reference->matches(
                    rowKey(j.workload, j.arch, j.configLabel),
                    rows[i].jsonLine))
                ++out.failed;
        }
        const double inproc_s = timeEngine(jobs, opts.shards, {}).seconds;
        shard_execs = double(sup.stats().functionalExecutions);
        restarts = double(sup.stats().restarts);
        crashes = double(sup.stats().crashes);
        shard_overhead = (sharded_s - inproc_s) * 1e3;
    }
    out.metrics.add("shard.functional_executions", shard_execs, "count");
    out.metrics.add("shard.restarts", restarts, "count");
    out.metrics.add("shard.crashes", crashes, "count");
    out.metrics.add("shard.overhead_ms", shard_overhead, "ms");
    return out;
}

} // namespace perfbench
