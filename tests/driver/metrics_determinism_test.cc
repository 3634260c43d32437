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
 *  - span taxonomy under retries: a transiently failing job yields one
 *    "attempt" span per attempt with trace/compile/replay nested under
 *    it, and the reported counters are the final attempt's.
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

/** Count spans named @p name at depth @p depth. */
size_t
countSpans(const JobMetrics &jm, const std::string &name, uint32_t depth)
{
    size_t n = 0;
    for (const auto &s : jm.spans())
        if (s.name == name && s.depth == depth)
            ++n;
    return n;
}

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

TEST(MetricsDeterminism, RetrySpansNestAndCountersAreFinalAttempts)
{
    // Job 0 fails its replay once with a retryable fault, then passes:
    // attempt 1 fails, attempt 2 succeeds.
    ExperimentJob job;
    job.workload = "NN/euclid";
    job.arch = "vgiw";

    FaultInjector injector;
    injector.armTransient(FaultInjector::Point::Replay, 0, 1);

    MetricsCollector collector;
    EngineOptions opts{1};
    opts.injector = &injector;
    opts.metrics = &collector;
    opts.retry.maxAttempts = 2;

    ExperimentEngine engine{opts};
    auto results = engine.run({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_EQ(results[0].attempts, 2u);

    const JobMetrics &jm = collector.job(0);
    // One top-level "attempt" span per attempt, pipeline stages nested.
    EXPECT_EQ(countSpans(jm, "attempt", 0), 2u);
    EXPECT_EQ(countSpans(jm, "replay", 1), 2u);
    EXPECT_GE(countSpans(jm, "trace", 1), 1u);
    EXPECT_GE(countSpans(jm, "compile", 1), 1u);
    // The callback span reports outside any attempt.
    EXPECT_EQ(countSpans(jm, "callback", 0), 1u);
    for (const auto &s : jm.spans()) {
        EXPECT_GE(s.endNs, s.beginNs) << s.name;
        EXPECT_NE(s.endNs, 0u) << s.name << " never closed";
    }

    // Counters are the final (successful) attempt's, not a double
    // accumulation across attempts: a clean single-attempt run of the
    // same job must produce identical counter bytes.
    MetricsCollector clean_collector;
    EngineOptions clean_opts{1};
    clean_opts.metrics = &clean_collector;
    ExperimentEngine clean{clean_opts};
    auto clean_results = clean.run({job});
    ASSERT_EQ(clean_results.size(), 1u);
    ASSERT_TRUE(clean_results[0].ok());

    std::string retried = results[0].metricsJson;
    std::string single = clean_results[0].metricsJson;
    // engine.attempts legitimately differs (2 vs 1); mask it out.
    const auto mask = [](std::string &s) {
        const size_t at = s.find("\"engine.attempts\":");
        ASSERT_NE(at, std::string::npos);
        const size_t end = s.find_first_of(",}", at);
        s.erase(at, end - at);
    };
    mask(retried);
    mask(single);
    EXPECT_EQ(retried, single);
}

} // namespace
} // namespace vgiw
