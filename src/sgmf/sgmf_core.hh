/**
 * @file
 * The SGMF dataflow GPGPU baseline (Voitsechov & Etsion, ISCA 2014),
 * reimplemented as the paper's second comparison point.
 *
 * SGMF statically maps the *entire* kernel CDFG onto the MT-CGRF — all
 * control paths at once (Figure 1c). Consequences modelled here:
 *
 *  - kernels whose CDFG exceeds the fabric's per-kind capacity are
 *    simply unsupported (the paper compares on "the subset of kernels
 *    that can be mapped");
 *  - a thread is injected once per loop-path traversal (token
 *    recirculation over the spatial fabric), and whole-kernel mapping
 *    leaves little room for replication, so throughput is lower than
 *    VGIW's replicated per-block graphs;
 *  - every statically mapped compute unit fires for every injection,
 *    including the units on control paths the thread did not take —
 *    the divergence energy waste Figures 8/11 quantify. Predication
 *    suppresses untaken memory accesses;
 *  - there is no LVC/CVT and no reconfiguration: values flow directly
 *    through the fabric (SGMF's efficiency edge on small kernels).
 */

#ifndef VGIW_SGMF_SGMF_CORE_HH
#define VGIW_SGMF_SGMF_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cgrf/dataflow_graph.hh"
#include "cgrf/grid.hh"
#include "cgrf/placer.hh"
#include "common/watchdog.hh"
#include "driver/core_model.hh"
#include "driver/run_stats.hh"
#include "interp/trace.hh"

namespace vgiw
{

/** Configuration of the SGMF core model. */
struct SgmfConfig
{
    GridConfig grid = GridConfig::makeTable1();
    CgrfTiming timing{};
    /** Outstanding-miss window (same reservation buffers as VGIW). */
    uint32_t missWindow = 512;
    int maxReplicas = 8;

    /** Well-formedness check, run at job entry by the experiment
     * engine. Empty string when valid. */
    std::string validate() const;
};

/**
 * SGMF compile artifact: the whole-kernel spatial mapping plus the
 * static graph properties replay multiplies by injection counts. A
 * kernel that does not fit the fabric still compiles (fits == false);
 * the verdict is part of the artifact so sweeps don't re-place it.
 */
struct SgmfCompiledKernel final : CompiledKernel
{
    bool fits = false;
    double unitsNeeded = 0.0;  ///< when !fits: demand that overflowed
    PlacedKernel placed;
    int replicas = 1;          ///< whole-graph replication factor
    uint64_t opsInt = 0, opsFp = 0, opsScu = 0;
    uint64_t edges = 0, hops = 0;
    int criticalPath = 0;      ///< pipeline depth over forward edges
    std::vector<uint32_t> blockOps;  ///< static ops per block
};

/** Cycle-approximate SGMF core model. */
class SgmfCore final : public CoreModel
{
  public:
    /** @p watchdog bounds each replay; the default is unlimited.
     * SGMF's injection loop is not cycle-stepped, so maxReplayCycles
     * is checked against the issue-cycle proxy (injections /
     * replicas). */
    explicit SgmfCore(const SgmfConfig &cfg = {},
                      const WatchdogConfig &watchdog = {})
        : cfg_(cfg), watchdog_(watchdog)
    {
    }

    std::string name() const override { return "sgmf"; }

    std::string compileKey() const override;
    std::string replayKey() const override;

    /** Whole-kernel placement, replication and static graph counts. */
    std::shared_ptr<const CompiledKernel>
    compile(const Kernel &kernel) const override;

    /**
     * Replay @p traces against a compiled mapping. When the kernel does
     * not fit the fabric the returned stats have supported == false
     * (and no timing data).
     */
    RunStats run(const TraceSet &traces,
                 const CompiledKernel &compiled) const override;
    using CoreModel::run;

    /** Persist / rehydrate an SgmfCompiledKernel (artifact store). */
    std::string
    serializeArtifact(const CompiledKernel &compiled) const override;
    std::shared_ptr<const CompiledKernel>
    deserializeArtifact(std::string_view bytes) const override;

    /** Whether @p kernel can be mapped at all. */
    bool supports(const Kernel &kernel) const;

    const SgmfConfig &config() const { return cfg_; }

  private:
    SgmfConfig cfg_;
    WatchdogConfig watchdog_;
};

} // namespace vgiw

#endif // VGIW_SGMF_SGMF_CORE_HH
