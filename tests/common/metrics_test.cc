/**
 * @file
 * Unit tests for the observability layer: counter semantics and JSON
 * serialisation, span nesting and RAII closure (including unwinding),
 * thread-local sink installation/restoration, and the shape of the
 * Chrome-trace export (rebased timestamps, renumbered tids, unclosed
 * spans dropped).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "common/metrics.hh"

namespace vgiw
{
namespace
{

TEST(JobMetrics, CountersAddSetAndSerialise)
{
    JobMetrics m;
    m.add("a.count", 1.0);
    m.add("a.count", 2.0);
    m.set("b.value", 0.5);
    m.set("a.count", 7.0);  // set overwrites, keeps insertion order

    EXPECT_EQ(m.countersJson(), "{\"a.count\":7,\"b.value\":0.5}");
}

TEST(JobMetrics, EmptyCountersSerialiseAsEmptyObject)
{
    JobMetrics m;
    EXPECT_EQ(m.countersJson(), "{}");
}

TEST(JobMetrics, SpanNestingRecordsDepth)
{
    JobMetrics m;
    {
        MetricSpan outer(&m, "attempt");
        {
            MetricSpan inner(&m, "replay");
        }
        {
            MetricSpan inner2(&m, "callback");
        }
    }
    {
        MetricSpan second(&m, "attempt");
    }
    ASSERT_EQ(m.spans().size(), 4u);
    EXPECT_EQ(m.spans()[0].depth, 0u);
    EXPECT_EQ(m.spans()[1].depth, 1u);
    EXPECT_EQ(m.spans()[2].depth, 1u);
    EXPECT_EQ(m.spans()[3].depth, 0u);  // depth restored after close
    for (const auto &s : m.spans()) {
        EXPECT_GE(s.endNs, s.beginNs) << s.name;
        EXPECT_NE(s.endNs, 0u) << s.name;
    }
}

TEST(JobMetrics, SpanClosesOnException)
{
    JobMetrics m;
    try {
        MetricSpan s(&m, "replay");
        throw std::runtime_error("watchdog");
    } catch (const std::runtime_error &) {
    }
    ASSERT_EQ(m.spans().size(), 1u);
    EXPECT_GE(m.spans()[0].endNs, m.spans()[0].beginNs);
    EXPECT_NE(m.spans()[0].endNs, 0u);
}

TEST(MetricSpan, NullSinkIsANoOp)
{
    // Must not crash or allocate a record anywhere.
    MetricSpan s(nullptr, "replay");
}

TEST(MetricSinkScope, InstallsAndRestores)
{
    EXPECT_EQ(currentMetricSink(), nullptr);
    JobMetrics a, b;
    {
        MetricSinkScope sa(&a);
        EXPECT_EQ(currentMetricSink(), &a);
        {
            MetricSinkScope sb(&b);
            EXPECT_EQ(currentMetricSink(), &b);
        }
        EXPECT_EQ(currentMetricSink(), &a);
    }
    EXPECT_EQ(currentMetricSink(), nullptr);
}

TEST(MetricSinkScope, IsThreadLocal)
{
    JobMetrics a;
    MetricSinkScope sa(&a);
    JobMetrics *seen = &a;  // must be overwritten with null
    std::thread t([&] { seen = currentMetricSink(); });
    t.join();
    EXPECT_EQ(seen, nullptr);
    EXPECT_EQ(currentMetricSink(), &a);
}

TEST(MetricsCollector, ResetSizesAndLabels)
{
    MetricsCollector c;
    c.reset(3);
    ASSERT_EQ(c.size(), 3u);
    c.setLabel(1, "BFS/Kernel|vgiw");
    EXPECT_EQ(c.label(1), "BFS/Kernel|vgiw");
    c.job(1).add("x", 1.0);
    c.reset(2);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.job(1).countersJson(), "{}");  // prior contents dropped
    EXPECT_EQ(c.label(1), "");
}

TEST(MetricsCollector, ChromeTraceShape)
{
    MetricsCollector c;
    c.reset(2);
    c.setLabel(0, "job0");
    c.setLabel(1, "job1");
    {
        MetricSpan s(&c.job(0), "attempt");
        MetricSpan inner(&c.job(0), "replay");
    }
    {
        MetricSpan s(&c.job(1), "attempt");
    }
    const std::string doc = c.chromeTraceJson();
    EXPECT_EQ(doc.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(doc.find("\"name\":\"attempt\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"replay\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"job\":\"job0\""), std::string::npos);
    EXPECT_NE(doc.find("\"job\":\"job1\""), std::string::npos);
    // One recording thread: every event must carry tid 0 (renumbered by
    // first appearance, not the raw hashed thread id).
    EXPECT_NE(doc.find("\"tid\":0"), std::string::npos);
    EXPECT_EQ(doc.find("\"tid\":1"), std::string::npos);
    // Rebased to the earliest span: the first event begins at ts 0.
    EXPECT_NE(doc.find("\"ts\":0.000"), std::string::npos);
}

TEST(MetricsCollector, ChromeTraceNumbersThreadsInDispatchOrder)
{
    // Job 1's span starts first, on another thread; job 0's starts
    // later, here. tid follows who began first, not submission order.
    MetricsCollector c;
    c.reset(2);
    c.setLabel(0, "job0");
    c.setLabel(1, "job1");
    std::thread([&c] { MetricSpan s(&c.job(1), "trace"); }).join();
    {
        MetricSpan s(&c.job(0), "attempt");
    }
    const std::string doc = c.chromeTraceJson();
    const size_t job0 = doc.find("\"name\":\"attempt\"");
    const size_t job1 = doc.find("\"name\":\"trace\"");
    ASSERT_NE(job0, std::string::npos);
    ASSERT_NE(job1, std::string::npos);
    EXPECT_NE(doc.find("\"tid\":1", job0), std::string::npos);
    EXPECT_LT(doc.find("\"tid\":1", job0), job1);
    EXPECT_NE(doc.find("\"tid\":0", job1), std::string::npos);
}

TEST(MetricsCollector, ChromeTraceSkipsUnclosedSpans)
{
    MetricsCollector c;
    c.reset(1);
    c.setLabel(0, "torn");
    c.job(0).beginSpan("never_closed");
    {
        MetricSpan s(&c.job(0), "closed");
    }
    const std::string doc = c.chromeTraceJson();
    EXPECT_EQ(doc.find("never_closed"), std::string::npos);
    EXPECT_NE(doc.find("closed"), std::string::npos);
}

TEST(MetricsCollector, EmptyCollectorProducesValidDocument)
{
    MetricsCollector c;
    EXPECT_EQ(c.chromeTraceJson(), "{\"traceEvents\":[]}");
}

} // namespace
} // namespace vgiw
