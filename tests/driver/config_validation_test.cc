/**
 * @file
 * Config-validation tests: every malformed knob the sweep harnesses can
 * plausibly produce (a size sweep generating a non-aligned LVC, a zero
 * miss window, a corrupted grid table) must be caught by validate()
 * with a readable one-line diagnostic — and the experiment engine must
 * classify such a job as a `config` failure before it consumes a
 * functional execution.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cgrf/grid.hh"
#include "driver/experiment_engine.hh"
#include "driver/system_config.hh"

namespace vgiw
{
namespace
{

TEST(ConfigValidation, DefaultConfigsAreValid)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.validate(), "");
    EXPECT_EQ(cfg.validate("vgiw"), "");
    EXPECT_EQ(cfg.validate("fermi"), "");
    EXPECT_EQ(cfg.validate("sgmf"), "");
    EXPECT_EQ(cfg.validate("dice"), "");
    EXPECT_EQ(VgiwConfig{}.validate(), "");
    EXPECT_EQ(FermiConfig{}.validate(), "");
    EXPECT_EQ(SgmfConfig{}.validate(), "");
    EXPECT_EQ(DiceConfig{}.validate(), "");
}

TEST(ConfigValidation, Table1ConfigPrints)
{
    std::ostringstream os;
    SystemConfig{}.printTable1(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("108"), std::string::npos);
    EXPECT_NE(s.find("32 combined FPU-ALU"), std::string::npos);
    EXPECT_NE(s.find("GDDR5"), std::string::npos);
}

TEST(ConfigValidation, GridStructuralChecks)
{
    GridConfig g = GridConfig::makeTable1();
    EXPECT_EQ(validateGridConfig(g), "");

    GridConfig bad = g;
    bad.width = 0;
    EXPECT_NE(validateGridConfig(bad), "");

    bad = g;
    countOf(bad.counts, UnitKind::FpAlu) += 1;  // counts no longer fill
    EXPECT_NE(validateGridConfig(bad), "");

    bad = g;
    bad.kindAt.pop_back();  // table size mismatch
    EXPECT_NE(validateGridConfig(bad), "");

    bad = g;
    // Right sizes, wrong tally: swap one unit's kind.
    for (auto &k : bad.kindAt) {
        if (k == UnitKind::Scu) {
            k = UnitKind::FpAlu;
            break;
        }
    }
    EXPECT_NE(validateGridConfig(bad), "");
}

TEST(ConfigValidation, VgiwKnobs)
{
    VgiwConfig c;
    c.lvcBytes = 100;  // not a multiple of lineBytes*ways
    EXPECT_NE(c.validate().find("lvcBytes"), std::string::npos);

    c = VgiwConfig{};
    c.cvtCapacityBits = 0;
    EXPECT_NE(c.validate().find("cvtCapacityBits"), std::string::npos);

    c = VgiwConfig{};
    c.maxReplicas = 0;
    EXPECT_NE(c.validate().find("maxReplicas"), std::string::npos);

    c = VgiwConfig{};
    c.missWindow = 0;
    EXPECT_NE(c.validate().find("missWindow"), std::string::npos);
}

TEST(ConfigValidation, FermiKnobs)
{
    FermiConfig c;
    c.warpSize = 0;
    EXPECT_NE(c.validate().find("warpSize"), std::string::npos);
    c.warpSize = 33;
    EXPECT_NE(c.validate().find("warpSize"), std::string::npos);

    c = FermiConfig{};
    c.maxResidentWarps = 0;
    EXPECT_NE(c.validate().find("maxResidentWarps"), std::string::npos);
}

TEST(ConfigValidation, SgmfKnobs)
{
    SgmfConfig c;
    c.missWindow = 0;
    EXPECT_NE(c.validate().find("missWindow"), std::string::npos);

    c = SgmfConfig{};
    c.maxReplicas = 0;
    EXPECT_NE(c.validate().find("maxReplicas"), std::string::npos);
}

TEST(ConfigValidation, DiceKnobs)
{
    DiceConfig c;
    c.laneWidth = 0;
    EXPECT_NE(c.validate().find("laneWidth"), std::string::npos);

    c = DiceConfig{};
    c.missWindow = 0;
    EXPECT_NE(c.validate().find("missWindow"), std::string::npos);

    c = DiceConfig{};
    c.switchCycles = -1;
    EXPECT_NE(c.validate().find("switchCycles"), std::string::npos);

    // A zero-unit array column would make the reservation table divide
    // by zero; validate() must reject it with the offending kind named.
    c = DiceConfig{};
    c.arrayCounts[0] = 0;
    EXPECT_NE(c.validate().find("arrayCounts"), std::string::npos);
}

TEST(ConfigValidation, ArchScopedValidationIgnoresOtherCores)
{
    // A sweep varying VGIW knobs must not fail its Fermi baseline jobs
    // over a VGIW diagnostic.
    SystemConfig cfg;
    cfg.vgiw.lvcBytes = 100;
    EXPECT_NE(cfg.validate(), "");
    EXPECT_NE(cfg.validate("vgiw"), "");
    EXPECT_EQ(cfg.validate("fermi"), "");
    EXPECT_EQ(cfg.validate("sgmf"), "");
    EXPECT_EQ(cfg.validate("dice"), "");

    // And the converse: a broken DICE array must not leak into the
    // other cores' scoped checks.
    SystemConfig dcfg;
    dcfg.dice.laneWidth = 0;
    EXPECT_NE(dcfg.validate(), "");
    EXPECT_NE(dcfg.validate("dice"), "");
    EXPECT_EQ(dcfg.validate("vgiw"), "");
    EXPECT_EQ(dcfg.validate("fermi"), "");
    EXPECT_EQ(dcfg.validate("sgmf"), "");
}

TEST(ConfigValidation, EngineFailsFastWithConfigKind)
{
    ExperimentJob job;
    job.workload = "NN/euclid";
    job.arch = "vgiw";
    job.config.vgiw.lvcBytes = 100;

    ExperimentEngine engine;
    auto results = engine.run({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Config);
    EXPECT_NE(results[0].error.find("lvcBytes"), std::string::npos);
    // Fail fast: the invalid point must not consume a functional
    // execution.
    EXPECT_EQ(engine.traceCache().functionalExecutions(), 0u);

    const std::string line(engine.resultTable().renderRow(0));
    EXPECT_NE(line.find("\"error_kind\":\"config\""), std::string::npos);
}

TEST(ConfigValidation, UnknownArchAndWorkloadAreConfigKind)
{
    std::vector<ExperimentJob> jobs(2);
    jobs[0].workload = "NN/euclid";
    jobs[0].arch = "bogus";
    jobs[1].workload = "NOPE/nope";
    jobs[1].arch = "vgiw";

    ExperimentEngine engine;
    auto results = engine.run(jobs);
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Config);
    EXPECT_EQ(results[1].errorKind, SimErrorKind::Config);
}

} // namespace
} // namespace vgiw
