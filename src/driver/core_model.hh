/**
 * @file
 * The common interface of the four timing/energy models (VGIW, Fermi,
 * SGMF, DICE — docs/architectures.md maps them). Every core
 * replays the same functional traces (bit-identical work, Section 5), so
 * one abstract surface is all the driver needs to dispatch a sweep over
 * an arbitrary set of architectures instead of hand-written
 * per-architecture if-chains.
 *
 * Execution is split into two phases, mirroring the paper's own
 * compile/execute separation (the VGIW compiler emits per-block graph
 * instruction words once; the BBS replays them for every thread vector):
 *
 *  - compile(): everything that depends only on the kernel and the
 *    compile-relevant configuration — per-block DFG construction,
 *    MT-CGRF place-and-route, static op counts, live-in ID lists,
 *    post-dominator analysis. The result is an opaque, immutable
 *    CompiledKernel artifact.
 *  - run(traces, compiled): the dynamic replay, reading the artifact.
 *
 * A design-space sweep that varies only replay-side parameters (LVC
 * size, CVT capacity, miss window...) therefore compiles each kernel
 * once, not once per config point; the driver's CompileCache keys
 * artifacts by compileKey() — a fingerprint of every configuration
 * field compile() reads.
 *
 * compile() and run() being const is a load-bearing guarantee: the
 * experiment engine replays one shared TraceSet (and one shared
 * CompiledKernel) from many worker threads concurrently.
 */

#ifndef VGIW_DRIVER_CORE_MODEL_HH
#define VGIW_DRIVER_CORE_MODEL_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "driver/run_stats.hh"
#include "interp/trace.hh"

namespace vgiw
{

struct SystemConfig;

/**
 * Opaque, immutable result of a core model's compile phase. Each
 * architecture derives its own artifact type (placed per-block DFGs for
 * VGIW, the whole-kernel spatial mapping for SGMF, decoded instructions
 * and post-dominators for Fermi, per-block placements plus the static
 * modulo schedule for DICE); run() downcasts and asserts.
 */
struct CompiledKernel
{
    virtual ~CompiledKernel() = default;
};

/** Abstract core model: a named, compilable, replayable architecture. */
class CoreModel
{
  public:
    virtual ~CoreModel() = default;

    /** Stable architecture identifier ("vgiw", "fermi", "sgmf"). */
    virtual std::string name() const = 0;

    /**
     * Fingerprint of every configuration field compile() reads (grid
     * shape, unit timings, replication policy, ...), prefixed with the
     * architecture name. Two models with equal compileKey() produce
     * interchangeable artifacts for the same kernel — the CompileCache
     * key. Replay-only parameters (LVC/CVT sizes, miss window) must NOT
     * appear here, or sweeping them would defeat the cache.
     */
    virtual std::string compileKey() const = 0;

    /**
     * Fingerprint of every *replay-side* configuration field run()
     * reads (LVC/CVT sizes, miss window, scheduler limits, ...) — the
     * complement of compileKey(). compileKey() + replayKey() together
     * pin everything that can change a job's statistics, which is what
     * the result journal keys resumable jobs by. Watchdog budgets are
     * deliberately excluded: they bound a replay without changing its
     * result, and a resume may legitimately widen them.
     */
    virtual std::string replayKey() const = 0;

    /**
     * Compile @p kernel into this architecture's replay artifact:
     * per-block DFG construction, placement, static analysis. Launch
     * geometry does not participate (tiling happens at replay time).
     * Throws (vgiw_fatal) when the kernel cannot be compiled at all;
     * SGMF's "does not fit the fabric" is not an error — it yields an
     * artifact whose replay reports supported == false, as before.
     */
    virtual std::shared_ptr<const CompiledKernel>
    compile(const Kernel &kernel) const = 0;

    /**
     * Replay @p traces with a precompiled artifact and return
     * timing/energy statistics. @p compiled must come from compile() on
     * the same kernel by a model with an identical compileKey(). Must be
     * reentrant: the engine calls run() on the same object, the same
     * TraceSet and the same CompiledKernel from several threads at once.
     *
     * Observability: implementations may read currentMetricSink() once
     * at entry and, when it is non-null, emit per-mechanism counters
     * (see DESIGN.md §11). Emitted counters must be deterministic
     * functions of (traces, compiled, replay config) — never wall
     * clock or scheduling observables — because the engine serialises
     * them into result JSON whose bit-identity across worker counts is
     * tested. A null sink must cost nothing beyond the entry check.
     */
    virtual RunStats run(const TraceSet &traces,
                         const CompiledKernel &compiled) const = 0;

    /** Compile-and-replay in one step (tools, tests, one-shot runs). */
    RunStats
    run(const TraceSet &traces) const
    {
        return run(traces, *compile(*traces.kernel));
    }

    /**
     * Serialize @p compiled into a persistable byte string, the inverse
     * of deserializeArtifact(). An empty return means "this model does
     * not persist artifacts" and the artifact store skips it. The bytes
     * are only ever interpreted by a model with the same name() — and,
     * through the store key, the same compileKey() and kernel content
     * hash — so the payload needs no self-description beyond its
     * leading per-arch version word.
     */
    virtual std::string
    serializeArtifact(const CompiledKernel &compiled) const
    {
        (void)compiled;
        return {};
    }

    /**
     * Reconstruct a compile() artifact from serializeArtifact() bytes.
     * Returns nullptr on any malformed input (truncation, version skew,
     * impossible field values) — the caller treats that as a cache miss
     * and recompiles; it must never throw on bad bytes.
     */
    virtual std::shared_ptr<const CompiledKernel>
    deserializeArtifact(std::string_view bytes) const
    {
        (void)bytes;
        return nullptr;
    }
};

/** The architecture names every sweep understands, in report order. */
const std::vector<std::string> &knownArchitectures();

/** Whether @p arch names a concrete core model. */
bool isKnownArchitecture(std::string_view arch);

/**
 * Instantiate the core model named @p arch with its configuration taken
 * from @p cfg: the named core's config plus the one `cfg.watchdog`.
 * Returns nullptr for an unknown architecture name.
 */
std::unique_ptr<CoreModel> makeCoreModel(std::string_view arch,
                                         const SystemConfig &cfg);

/**
 * Instantiate the models selected by @p archSelector: a concrete
 * architecture name or "all" (the report-order full set). Unknown
 * selectors yield an empty list.
 */
std::vector<std::unique_ptr<CoreModel>>
makeCoreModels(const SystemConfig &cfg, std::string_view archSelector = "all");

} // namespace vgiw

#endif // VGIW_DRIVER_CORE_MODEL_HH
