/**
 * @file
 * Golden tests: every Table 2 kernel, hand-lowered into the IR, must
 * reproduce its native C++ reference bit-for-bit (or within the stated
 * float tolerance) when run through the functional executor.
 */

#include <gtest/gtest.h>

#include "driver/trace_cache.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

class GoldenTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTest, FunctionalExecutionMatchesNativeReference)
{
    WorkloadInstance w = makeWorkload(GetParam());
    TraceResult traced = traceWorkload(w);
    EXPECT_TRUE(traced.goldenPassed) << traced.error;
    ASSERT_TRUE(traced.traces);
    const TraceSet &traces = *traced.traces;
    EXPECT_GT(traces.totalBlockExecs(), 0u);
    // Every thread ran to completion.
    for (uint32_t tid = 0; tid < traces.numThreads(); ++tid) {
        ASSERT_GT(traces.numExecs(tid), 0u);
        ThreadCursor c = traces.thread(tid);
        int last_succ = 0;
        for (; !c.done(); c.nextExec())
            last_succ = c.succ();
        EXPECT_EQ(last_succ, -1);
    }
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &e : workloadRegistry())
        names.push_back(e.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GoldenTest, ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '/' || c == '-')
                c = '_';
        return name;
    });

TEST(WorkloadRegistry, CoversTable2)
{
    // 12 application suites, 21 kernels (Table 2).
    const auto &reg = workloadRegistry();
    EXPECT_EQ(reg.size(), 21u);

    std::vector<std::string> suites;
    for (const auto &e : reg) {
        const std::string suite = e.name.substr(0, e.name.find('/'));
        if (std::find(suites.begin(), suites.end(), suite) == suites.end())
            suites.push_back(suite);
    }
    EXPECT_EQ(suites.size(), 12u);
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_THROW(makeWorkload("NOPE/nope"), std::runtime_error);
}

} // namespace
} // namespace vgiw
