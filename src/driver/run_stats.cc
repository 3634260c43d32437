#include "driver/run_stats.hh"

namespace vgiw
{

EnergyAccount
priceEnergy(const RunStats &rs, const EnergyTable &t)
{
    const EnergyEvents &ev = rs.events;
    EnergyAccount a;
    a.add(EnergyComponent::Datapath,
          ev.intOps * t.intAluOp + ev.fpOps * t.fpAluOp +
              ev.scuOps * t.scuOp + ev.ldstIssues * t.ldstIssue);
    a.add(EnergyComponent::Frontend, rs.dynWarpInstrs * t.frontendWarpInstr);
    a.add(EnergyComponent::RegisterFile,
          rs.rfAccesses * t.rfAccessWarp +
              ev.operandBufferWords * t.operandBufferWord);
    a.add(EnergyComponent::TokenFabric,
          ev.tokenRws * t.tokenBufferRw + ev.tokenHops * t.tokenHop);
    a.add(EnergyComponent::Lvc, rs.lvcAccesses * t.lvcAccessWord);
    a.add(EnergyComponent::Cvt, ev.cvtWords * t.cvtAccessWord);
    a.add(EnergyComponent::Config, ev.configuredUnits * t.configPerUnit);
    a.add(EnergyComponent::Scratchpad, ev.sharedWords * t.sharedAccessWord);
    a.add(EnergyComponent::L1,
          rs.l1Stats.accesses() *
              (ev.l1PerLine ? t.l1AccessLine : t.l1AccessWord));
    a.add(EnergyComponent::L2, rs.l2Stats.accesses() * t.l2AccessLine);
    a.add(EnergyComponent::Dram, rs.dramStats.accesses * t.dramAccessLine);
    return a;
}

} // namespace vgiw
