#include "driver/core_model.hh"

#include "driver/system_config.hh"

namespace vgiw
{

const std::vector<std::string> &
knownArchitectures()
{
    static const std::vector<std::string> archs = {"vgiw", "fermi",
                                                   "sgmf", "dice"};
    return archs;
}

bool
isKnownArchitecture(std::string_view arch)
{
    for (const auto &a : knownArchitectures())
        if (a == arch)
            return true;
    return false;
}

std::unique_ptr<CoreModel>
makeCoreModel(std::string_view arch, const SystemConfig &cfg)
{
    if (arch == "vgiw")
        return std::make_unique<VgiwCore>(cfg.vgiw, cfg.watchdog);
    if (arch == "fermi")
        return std::make_unique<FermiCore>(cfg.fermi, cfg.watchdog);
    if (arch == "sgmf")
        return std::make_unique<SgmfCore>(cfg.sgmf, cfg.watchdog);
    if (arch == "dice")
        return std::make_unique<DiceCore>(cfg.dice, cfg.watchdog);
    return nullptr;
}

std::vector<std::unique_ptr<CoreModel>>
makeCoreModels(const SystemConfig &cfg, std::string_view archSelector)
{
    std::vector<std::unique_ptr<CoreModel>> out;
    if (archSelector == "all") {
        for (const auto &a : knownArchitectures())
            out.push_back(makeCoreModel(a, cfg));
    } else if (auto m = makeCoreModel(archSelector, cfg)) {
        out.push_back(std::move(m));
    }
    return out;
}

} // namespace vgiw
