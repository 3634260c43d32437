/**
 * @file
 * GPUWattch-style event energy model.
 *
 * The paper derives per-operation energies from RTL synthesis (65 nm,
 * extrapolated to 40 nm) and feeds them into GPUWattch (Section 4). We
 * cannot ship those synthesis results, so the table below encodes
 * per-event energies in picojoules drawn from the public literature the
 * paper builds on (GPUWattch's Fermi breakdown, Horowitz's energy-per-op
 * survey), scaled to a 40 nm-class process. Cores only count events;
 * priceEnergy(stats, table) (driver/run_stats.hh) prices the counts, so a
 * user with real synthesis numbers reprices stored results without a
 * replay.
 *
 * Two modelling decisions mirror the paper's argument:
 *  - the von Neumann front end (fetch/decode/schedule) plus the vector
 *    register file are priced so they amount to roughly 30% of a Fermi
 *    SM's core energy, the figure the paper cites from [3, 4];
 *  - VGIW replaces those with direct token communication (token-buffer
 *    read/write + interconnect hops) and the much smaller LVC/CVT.
 */

#ifndef VGIW_POWER_ENERGY_MODEL_HH
#define VGIW_POWER_ENERGY_MODEL_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace vgiw
{

/** Per-event energies in picojoules. */
struct EnergyTable
{
    // Datapath (identical circuits on every architecture).
    double intAluOp = 4.0;
    double fpAluOp = 12.0;
    double scuOp = 40.0;      ///< div/sqrt/transcendental circuit
    double ldstIssue = 5.0;   ///< LDST unit issue + reservation buffer

    // Dataflow fabric (VGIW and SGMF).
    double tokenBufferRw = 1.5;  ///< write + read of one 32-bit token
    double tokenHop = 1.0;       ///< one interconnect hop of one token
    double lvcAccessWord = 8.0;  ///< 64 KB banked LVC, word granularity
    double cvtAccessWord = 1.5;  ///< CVT 64-bit word read/write
    double configPerUnit = 3.0;  ///< loading one unit's configuration

    // Von Neumann SM (Fermi baseline).
    double rfAccessWarp = 700.0;   ///< 128 B vector RF access (per warp)
    double frontendWarpInstr = 600.0;  ///< fetch+decode+schedule per warp
    double sharedAccessWord = 8.0;

    // Statically scheduled CGRA (DICE).
    double operandBufferWord = 2.5;  ///< schedule-managed live-value word

    // Memory system (identical on both sides of every comparison).
    double l1AccessWord = 15.0;   ///< one bank access, word granularity
    double l1AccessLine = 80.0;   ///< one 128 B transaction (coalesced)
    double l2AccessLine = 260.0;
    double dramAccessLine = 16000.0;  ///< GDDR5, ~15 pJ/bit incl. I/O
};

/** Energy sinks tracked separately so Fig. 10's levels can be formed. */
enum class EnergyComponent : uint8_t
{
    Datapath,      ///< ALU/FPU/SCU/LDST-issue circuits
    Frontend,      ///< fetch/decode/schedule (von Neumann only)
    RegisterFile,  ///< vector RF (Fermi) / operand buffers (DICE)
    TokenFabric,   ///< token buffers + interconnect hops (dataflow only)
    Lvc,           ///< live value cache (VGIW only)
    Cvt,           ///< control vector table (VGIW only)
    Config,        ///< grid reconfiguration (VGIW/SGMF/DICE)
    Scratchpad,    ///< shared-memory scratchpad
    L1,
    L2,
    Dram,
    NumComponents,
};

constexpr size_t kNumEnergyComponents =
    size_t(EnergyComponent::NumComponents);

const char *energyComponentName(EnergyComponent c);

/** Accumulated energy, split by component. */
class EnergyAccount
{
  public:
    void
    add(EnergyComponent c, double pj)
    {
        pj_[size_t(c)] += pj;
    }

    double get(EnergyComponent c) const { return pj_[size_t(c)]; }

    /** Core level: the compute engine, incl. RF or LVC+CVT (Fig. 10). */
    double
    corePj() const
    {
        return get(EnergyComponent::Datapath) +
               get(EnergyComponent::Frontend) +
               get(EnergyComponent::RegisterFile) +
               get(EnergyComponent::TokenFabric) +
               get(EnergyComponent::Lvc) + get(EnergyComponent::Cvt) +
               get(EnergyComponent::Config) +
               get(EnergyComponent::Scratchpad);
    }

    /** Die level: core + L1 + L2 + memory controller/interconnect. */
    double
    diePj() const
    {
        return corePj() + get(EnergyComponent::L1) +
               get(EnergyComponent::L2);
    }

    /** System level: die + DRAM. */
    double systemPj() const { return diePj() + get(EnergyComponent::Dram); }

    void
    merge(const EnergyAccount &o)
    {
        for (size_t i = 0; i < kNumEnergyComponents; ++i)
            pj_[i] += o.pj_[i];
    }

  private:
    std::array<double, kNumEnergyComponents> pj_{};
};

} // namespace vgiw

#endif // VGIW_POWER_ENERGY_MODEL_HH
