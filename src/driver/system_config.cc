#include "driver/system_config.hh"

#include <ostream>

#include "common/json.hh"
#include "driver/core_model.hh"
#include "mem/memory_system.hh"

namespace vgiw
{

std::string
SystemConfig::validate() const
{
    return validate("all");
}

std::string
SystemConfig::validate(std::string_view arch) const
{
    if (coreGhz <= 0 || interconnectGhz <= 0 || l2Ghz <= 0 ||
        dramGhz <= 0) {
        return "clock domain frequencies must be positive";
    }
    const bool all = arch != "vgiw" && arch != "fermi" &&
                     arch != "sgmf" && arch != "dice";
    if (all || arch == "vgiw") {
        if (std::string d = vgiw.validate(); !d.empty())
            return d;
    }
    if (all || arch == "fermi") {
        if (std::string d = fermi.validate(); !d.empty())
            return d;
    }
    if (all || arch == "sgmf") {
        if (std::string d = sgmf.validate(); !d.empty())
            return d;
    }
    if (all || arch == "dice") {
        if (std::string d = dice.validate(); !d.empty())
            return d;
    }
    return {};
}

std::string
SystemConfig::jobFingerprint(std::string_view arch) const
{
    // jsonNumber's %.17g round-trips doubles, so two configs with the
    // same clocks fingerprint identically across runs and platforms.
    std::string fp = "clk:" + jsonNumber(coreGhz) + "," +
                     jsonNumber(interconnectGhz) + "," +
                     jsonNumber(l2Ghz) + "," + jsonNumber(dramGhz);
    if (auto model = makeCoreModel(arch, *this))
        fp += "|" + model->compileKey() + "|" + model->replayKey();
    else
        fp += "|unknown-arch";
    return fp;
}

void
SystemConfig::printTable1(std::ostream &os) const
{
    const GridConfig &g = vgiw.grid;
    os << "Table 1: VGIW system configuration\n";
    os << "  VGIW core        : " << g.numUnits()
       << " interconnected func./LDST/control units (" << g.width << "x"
       << g.height << " grid)\n";
    os << "  Functional units : " << countOf(g.counts, UnitKind::FpAlu)
       << " combined FPU-ALU units, " << countOf(g.counts, UnitKind::Scu)
       << " Special Compute units\n";
    os << "  Load/Store units : " << countOf(g.counts, UnitKind::Lvu)
       << " Live Value Units, " << countOf(g.counts, UnitKind::LdSt)
       << " regular LDST units\n";
    os << "  Control units    : " << countOf(g.counts, UnitKind::Sju)
       << " Split/Join units, " << countOf(g.counts, UnitKind::Cvu)
       << " Control Vector Units\n";
    os << "  Frequency [GHz]  : core " << coreGhz << ", interconnect "
       << interconnectGhz << ", L2 " << l2Ghz << ", DRAM " << dramGhz
       << "\n";
    const CacheGeometry l1 = vgiwL1Geometry();
    os << "  L1               : " << l1.sizeBytes / 1024 << "KB, "
       << l1.banks << " banks, " << l1.lineBytes << "B/line, " << l1.ways
       << "-way (write-back, write-allocate)\n";
    const CacheGeometry l2 = l2Geometry();
    os << "  L2               : " << l2.sizeBytes / 1024 << "KB, "
       << l2.banks << " banks, " << l2.lineBytes << "B/line, " << l2.ways
       << "-way\n";
    const DramConfig d;
    os << "  GDDR5 DRAM       : " << d.banksPerChannel << " banks, "
       << d.channels << " channels\n";
    os << "  LVC              : " << vgiw.lvcBytes / 1024
       << "KB (4x smaller than the Fermi register file)\n";
}

} // namespace vgiw
