/**
 * @file
 * The von Neumann GPGPU baseline: a Fermi-style streaming multiprocessor.
 *
 * Warps of 32 threads execute in lockstep under SIMT execution masks with
 * a reconvergence stack (so divergent warps pay for both branch paths —
 * the cost Figure 1b illustrates). The model is event-driven at warp
 * instruction granularity: every issue occupies the SM's issue port, ALU
 * latency is hidden by multithreading, loads block the issuing warp until
 * the cache hierarchy answers, and an inter-warp coalescer merges a
 * warp's accesses into 128 B transactions before the L1 (the capability
 * VGIW lacks, Section 5). Register-file traffic is counted one access per
 * warp operand, exactly the Figure 3 denominator.
 */

#ifndef VGIW_SIMT_FERMI_CORE_HH
#define VGIW_SIMT_FERMI_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/watchdog.hh"
#include "driver/core_model.hh"
#include "driver/run_stats.hh"
#include "interp/trace.hh"
#include "ir/opcode.hh"
#include "ir/post_dominators.hh"

namespace vgiw
{

/** Configuration of the Fermi-style SM model. */
struct FermiConfig
{
    int warpSize = 32;
    int maxResidentWarps = 48;  ///< Fermi SM limit
    int maxResidentCtas = 8;
    /** Issue-port cycles for a non-pipelined (SFU) operation: 32 lanes
     * over 4 SFUs. */
    int scuIssueCycles = 8;
    /**
     * Dependent-issue latency of the arithmetic pipeline (Fermi's
     * documented read-after-write latency is ~18-22 cycles). A warp
     * whose next instruction depends on the previous one — the common
     * case in the address/compute chains of these kernels — is not
     * ready again until the result is forwarded; other resident warps
     * hide the gap when occupancy suffices.
     */
    uint32_t aluDependencyLatency = 20;
    uint32_t sharedLatency = 24;

    /**
     * Well-formedness check, run at job entry by the experiment engine.
     * The warp state arrays are 32 wide and scheduling divides by the
     * residency limits, so out-of-range values must fail fast as a
     * `config`-kind error. Empty string when valid.
     */
    std::string validate() const;
};

/** One pre-decoded warp instruction (the SM frontend's work, done once
 * per kernel instead of once per dynamic issue). */
struct FermiDecodedInstr
{
    uint32_t rfAccesses = 0;  ///< warp RF ops: register reads + dest write
    bool isMemory = false;
    bool isShared = false;
    bool isStore = false;
    ResourceClass resource = ResourceClass::IntAlu;
};

/**
 * Fermi compile artifact: the post-dominator tree that drives SIMT
 * reconvergence plus the per-block decoded instruction streams.
 */
struct FermiCompiledKernel final : CompiledKernel
{
    explicit FermiCompiledKernel(const Kernel &kernel) : pd(kernel) {}
    /** Rehydration path: an already-computed reconvergence tree. */
    explicit FermiCompiledKernel(PostDominators pdoms)
        : pd(std::move(pdoms))
    {
    }

    PostDominators pd;
    std::vector<std::vector<FermiDecodedInstr>> decoded;  ///< per block
    /** Per block: terminator is a branch whose condition reads a
     * register (one RF access per dynamic branch). */
    std::vector<uint8_t> branchCondRf;
};

/** Event-driven Fermi SM model. */
class FermiCore final : public CoreModel
{
  public:
    /** @p watchdog bounds each replay (cycle budget / wall-clock
     * deadline); the default is unlimited. */
    explicit FermiCore(const FermiConfig &cfg = {},
                       const WatchdogConfig &watchdog = {})
        : cfg_(cfg), watchdog_(watchdog)
    {
    }

    std::string name() const override { return "fermi"; }

    std::string compileKey() const override;
    std::string replayKey() const override;

    /** Decode the kernel and build the reconvergence (post-dominator)
     * tree. Config-independent: every Fermi sweep point shares it. */
    std::shared_ptr<const CompiledKernel>
    compile(const Kernel &kernel) const override;

    /** Replay @p traces and return timing/energy statistics. */
    RunStats run(const TraceSet &traces,
                 const CompiledKernel &compiled) const override;
    using CoreModel::run;

    /** Persist / rehydrate a FermiCompiledKernel (artifact store). */
    std::string
    serializeArtifact(const CompiledKernel &compiled) const override;
    std::shared_ptr<const CompiledKernel>
    deserializeArtifact(std::string_view bytes) const override;

    const FermiConfig &config() const { return cfg_; }

  private:
    FermiConfig cfg_;
    WatchdogConfig watchdog_;
};

} // namespace vgiw

#endif // VGIW_SIMT_FERMI_CORE_HH
