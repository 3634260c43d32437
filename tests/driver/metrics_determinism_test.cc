/**
 * @file
 * Engine-level metrics contracts:
 *
 *  - determinism: the per-job "metrics" counters of a --jobs 1 sweep
 *    are byte-identical to a --jobs N sweep (counters are replay
 *    statistics, never scheduling observables);
 *  - golden bit-identity: without a collector attached, result JSON
 *    carries no "metrics" field and is byte-identical to a run that
 *    did collect (modulo only the metrics suffix);
 *  - one attempt per job: a job that trips its watchdog runs once, and
 *    its spans are trace/compile/replay, each at depth 0.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/experiment_engine.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

TEST(MetricsDeterminism, SerialAndParallelCountersAreByteIdentical)
{
    SystemConfig cfg;
    auto jobs = ExperimentEngine::suiteJobs(cfg);

    MetricsCollector serial_metrics, parallel_metrics;
    EngineOptions serial_opts{1};
    serial_opts.metrics = &serial_metrics;
    EngineOptions parallel_opts{4};
    parallel_opts.metrics = &parallel_metrics;

    ExperimentEngine serial{serial_opts};
    ExperimentEngine parallel{parallel_opts};
    auto a = serial.run(jobs);
    auto b = parallel.run(jobs);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_FALSE(a[i].metricsJson.empty()) << a[i].workload;
        EXPECT_EQ(a[i].metricsJson, b[i].metricsJson)
            << a[i].workload << "/" << a[i].arch;
    }
}

TEST(MetricsDeterminism, NoCollectorMeansNoMetricsFieldAndIdenticalJson)
{
    SystemConfig cfg;
    auto jobs = ExperimentEngine::suiteJobs(cfg, {"vgiw"});

    ExperimentEngine plain{EngineOptions{2}};
    auto without = plain.run(jobs);

    MetricsCollector collector;
    EngineOptions opts{2};
    opts.metrics = &collector;
    ExperimentEngine instrumented{opts};
    auto with = instrumented.run(jobs);

    ASSERT_EQ(without.size(), with.size());
    for (size_t i = 0; i < without.size(); ++i) {
        const std::string bare(plain.resultTable().renderRow(i));
        EXPECT_EQ(bare.find("\"metrics\""), std::string::npos) << i;

        // The instrumented line is the bare line plus exactly the
        // metrics suffix before the closing brace: stripping it must
        // restore the bare bytes (the --metrics-off bit-identity
        // contract).
        std::string line(instrumented.resultTable().renderRow(i));
        const size_t at = line.find(",\"metrics\":");
        ASSERT_NE(at, std::string::npos) << i;
        line.erase(at, line.size() - at - 1);  // keep the final '}'
        EXPECT_EQ(line, bare) << i;
    }
}

TEST(MetricsDeterminism, WatchdogTripRunsOnceWithStageSpansAtDepthZero)
{
    // A deterministic replay would trip the same 10-cycle ceiling on
    // any re-run, so the engine runs the job once and reports it as a
    // plain failure: no dispatch count and no quarantine in its row.
    ExperimentJob job;
    job.workload = "NN/euclid";
    job.arch = "vgiw";
    job.config.watchdog.maxReplayCycles = 10;

    MetricsCollector collector;
    EngineOptions opts{1};
    opts.metrics = &collector;
    ExperimentEngine engine{opts};
    auto results = engine.run({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].errorKind, SimErrorKind::Watchdog)
        << results[0].error;
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_FALSE(results[0].quarantined);
    const std::string line(engine.resultTable().renderRow(0));
    EXPECT_EQ(line.find("\"attempts\""), std::string::npos) << line;
    EXPECT_EQ(line.find("\"quarantined\""), std::string::npos) << line;

    std::vector<std::string> names;
    for (const SpanRecord &s : collector.job(0).spans()) {
        EXPECT_EQ(s.depth, 0u) << s.name;
        EXPECT_NE(s.endNs, 0u) << s.name << " never closed";
        names.push_back(s.name);
    }
    EXPECT_EQ(names,
              (std::vector<std::string>{"trace", "compile", "replay"}));
}

} // namespace
} // namespace vgiw
