/**
 * @file
 * ResultTable and renderJobLine, the single JSON-lines formatter. The
 * reference formatter below is a frozen copy of the engine's historical
 * per-struct ostringstream serialiser — renderRow must reproduce its
 * bytes exactly for every result shape, which is the byte-identity
 * contract the journal and --json artifacts rely on.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "driver/experiment_engine.hh"
#include "driver/result_table.hh"

namespace vgiw
{
namespace
{

/** Frozen copy of the pre-columnar serialiser (the golden bytes). */
std::string
referenceJsonLine(const JobResult &r)
{
    if (r.restored)
        return r.verbatimJson;
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(r.workload) << "\""
       << ",\"arch\":\"" << jsonEscape(r.arch) << "\""
       << ",\"config\":\"" << jsonEscape(r.configLabel) << "\""
       << ",\"golden\":" << (r.goldenPassed ? "true" : "false")
       << ",\"ok\":" << (r.ok() ? "true" : "false");
    if (!r.error.empty())
        os << ",\"error\":\"" << jsonEscape(r.error) << "\"";
    if (r.errorKind != SimErrorKind::None)
        os << ",\"error_kind\":\"" << simErrorKindName(r.errorKind)
           << "\"";
    if (r.partial.valid)
        os << ",\"partial_cycles\":" << r.partial.cycles
           << ",\"partial_block_execs\":" << r.partial.dynBlockExecs
           << ",\"partial_thread_ops\":" << r.partial.dynThreadOps;
    if (!r.ok()) {
        if (r.attempts > 1)
            os << ",\"attempts\":" << r.attempts;
        if (r.quarantined)
            os << ",\"quarantined\":true";
    }
    if (r.ran) {
        const RunStats &s = r.stats;
        os << ",\"supported\":" << (s.supported ? "true" : "false")
           << ",\"cycles\":" << s.cycles
           << ",\"config_cycles\":" << s.configCycles
           << ",\"reconfigs\":" << s.reconfigs
           << ",\"dyn_block_execs\":" << s.dynBlockExecs
           << ",\"dyn_thread_ops\":" << s.dynThreadOps
           << ",\"dyn_warp_instrs\":" << s.dynWarpInstrs
           << ",\"rf_accesses\":" << s.rfAccesses
           << ",\"lvc_accesses\":" << s.lvcStats.accesses()
           << ",\"energy_core_pj\":" << jsonNumber(s.energy.corePj())
           << ",\"energy_die_pj\":" << jsonNumber(s.energy.diePj())
           << ",\"energy_system_pj\":" << jsonNumber(s.energy.systemPj())
           << ",\"l1_accesses\":" << s.l1Stats.accesses()
           << ",\"l1_misses\":" << s.l1Stats.misses()
           << ",\"l2_accesses\":" << s.l2Stats.accesses()
           << ",\"l2_misses\":" << s.l2Stats.misses()
           << ",\"lvc_misses\":" << s.lvcStats.misses()
           << ",\"dram_accesses\":" << s.dramStats.accesses
           << ",\"dram_row_hits\":" << s.dramStats.rowHits;
        os << ",\"extra\":{";
        bool first = true;
        for (const auto &[name, value] : s.extra.entries()) {
            if (!first)
                os << ",";
            first = false;
            os << "\"" << jsonEscape(name) << "\":" << jsonNumber(value);
        }
        os << "}";
    }
    if (!r.metricsJson.empty())
        os << ",\"metrics\":" << r.metricsJson;
    os << "}";
    return os.str();
}

JobResult
successResult()
{
    JobResult r;
    r.workload = "BFS/Kernel";
    r.arch = "vgiw";
    r.configLabel = "lvc=64k";
    r.goldenPassed = true;
    r.ran = true;
    r.stats.supported = true;
    r.stats.cycles = 123456789012345ull;
    r.stats.configCycles = 4096;
    r.stats.reconfigs = 17;
    r.stats.dynBlockExecs = 99;
    r.stats.dynThreadOps = 1234;
    r.stats.dynWarpInstrs = 0;
    r.stats.rfAccesses = 7;
    r.stats.lvcStats.readHits = 4242;
    r.stats.energy.add(EnergyComponent(0), 1.5e6);
    r.stats.extra.set("vgiw.batches", 321.0);
    r.stats.extra.set("vgiw.replicas", 2.5);
    return r;
}

JobResult
failureResult()
{
    JobResult r;
    r.workload = "NW/needle \"quoted\"";
    r.arch = "sgmf";
    r.configLabel = "tab\there";
    r.error = "watchdog: exceeded 10 cycles\nline two";
    r.errorKind = SimErrorKind::Watchdog;
    r.partial.valid = true;
    r.partial.cycles = 11;
    r.partial.dynBlockExecs = 22;
    r.partial.dynThreadOps = 33;
    r.attempts = 3;
    r.quarantined = true;
    return r;
}

TEST(ResultTable, MatchesReferenceFormatterForEveryShape)
{
    std::vector<JobResult> cases;
    cases.push_back(successResult());
    cases.push_back(failureResult());
    {
        JobResult r = successResult();  // success with metrics attached
        r.metricsJson = "{\"cvt.drains\":12,\"lvc.hits\":34}";
        cases.push_back(r);
    }
    {
        JobResult r = failureResult();  // failure with metrics attached
        r.metricsJson = "{\"lvc.misses\":3}";
        cases.push_back(r);
    }
    {
        JobResult r;  // config error: never ran, no stats block
        r.workload = "X/y";
        r.arch = "fermi";
        r.error = "unknown architecture";
        r.errorKind = SimErrorKind::Config;
        cases.push_back(r);
    }
    {
        JobResult r;  // restored: verbatim bytes, never re-rendered
        r.workload = "BFS/Kernel";
        r.arch = "vgiw";
        r.restored = true;
        r.verbatimJson = "{\"workload\":\"BFS/Kernel\",\"frozen\":true}";
        r.goldenPassed = true;
        r.ran = true;
        cases.push_back(r);
    }

    ResultTable table;
    table.reset(cases.size());
    for (size_t i = 0; i < cases.size(); ++i)
        table.fill(i, cases[i]);
    for (size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(std::string(table.renderRow(i)),
                  referenceJsonLine(cases[i]))
            << "case " << i;
    }
}

TEST(ResultTable, RenderIntoSkipsDrainedAndPreservesOrder)
{
    ResultTable table;
    table.reset(4);  // row 3 is never filled
    JobResult a = successResult();
    JobResult d;
    d.workload = "drained/one";
    d.drained = true;
    JobResult b = failureResult();
    table.fill(0, a);
    table.fill(1, d);
    table.fill(2, b);

    struct CollectSink : ResultSink
    {
        std::vector<size_t> indices;
        std::vector<std::string> lines;
        void row(size_t i, std::string_view line) override
        {
            indices.push_back(i);
            lines.emplace_back(line);
        }
    } sink;
    table.renderInto(sink);
    ASSERT_EQ(sink.indices.size(), 2u);
    EXPECT_EQ(sink.indices[0], 0u);
    EXPECT_EQ(sink.indices[1], 2u);
    EXPECT_EQ(sink.lines[0], referenceJsonLine(a));
    EXPECT_EQ(sink.lines[1], referenceJsonLine(b));
    EXPECT_FALSE(table.filled(3));
    EXPECT_EQ(table.renderRow(3), "{}");
}

TEST(ResultTable, RefillInvalidatesRenderCache)
{
    ResultTable table;
    table.reset(1);
    JobResult r = successResult();
    table.fill(0, r);
    const std::string first(table.renderRow(0));
    // A callback demotion re-fills the row; the render must follow.
    r.error = "onResult callback threw: boom";
    r.errorKind = SimErrorKind::Internal;
    table.fill(0, r);
    EXPECT_EQ(std::string(table.renderRow(0)), referenceJsonLine(r));
    EXPECT_NE(std::string(table.renderRow(0)), first);
}

TEST(ResultTable, ManyRowsAndLongFieldsRenderIntact)
{
    // Many rows plus one oversized field: every row's line must stay
    // intact after later rows are filled.
    const std::string huge(100000, 'x');
    ResultTable table;
    table.reset(600);
    std::vector<JobResult> rows(600);
    for (size_t i = 0; i < rows.size(); ++i) {
        rows[i] = successResult();
        rows[i].workload = "W/" + std::to_string(i * 7919);
        rows[i].configLabel = std::string(200, char('a' + i % 26));
        if (i == 300)
            rows[i].error = huge;
        table.fill(i, rows[i]);
    }
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(std::string(table.renderRow(i)),
                  referenceJsonLine(rows[i]))
            << "row " << i;
}

TEST(ResultTable, ConcurrentFillsOfDistinctRowsRenderIntact)
{
    // Pool workers fill distinct rows with no lock and read their own
    // row back at once (the journal line): the same pattern on four
    // threads, so a sanitizer build sees it.
    constexpr size_t kRows = 64;
    std::vector<JobResult> rows(kRows);
    for (size_t i = 0; i < kRows; ++i) {
        rows[i] = i % 2 ? failureResult() : successResult();
        rows[i].workload = "W/" + std::to_string(i);
    }
    ResultTable table;
    table.reset(kRows);
    std::vector<std::string> journaled(kRows);
    {
        std::vector<std::jthread> pool;
        for (size_t t = 0; t < 4; ++t) {
            pool.emplace_back([&, t] {
                for (size_t i = t; i < kRows; i += 4) {
                    table.fill(i, rows[i]);
                    journaled[i] = std::string(table.renderRow(i));
                }
            });
        }
    }
    for (size_t i = 0; i < kRows; ++i) {
        EXPECT_EQ(journaled[i], referenceJsonLine(rows[i])) << "row " << i;
        EXPECT_EQ(table.renderRow(i), journaled[i]) << "row " << i;
    }
}

} // namespace
} // namespace vgiw
