#include "common/metrics.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common/json.hh"
#include "common/logging.hh"

namespace vgiw
{

namespace
{

uint64_t
steadyNowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

uint64_t
threadTag()
{
    return uint64_t(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

thread_local JobMetrics *t_sink = nullptr;

} // namespace

uint32_t
JobMetrics::beginSpan(const char *name)
{
    SpanRecord s;
    s.name = name;
    s.depth = depth_++;
    s.beginNs = steadyNowNs();
    s.threadTag = threadTag();
    spans_.push_back(std::move(s));
    return uint32_t(spans_.size() - 1);
}

void
JobMetrics::endSpan(uint32_t index)
{
    vgiw_assert(index < spans_.size(), "endSpan of unknown span ", index);
    spans_[index].endNs = steadyNowNs();
    if (depth_ > 0)
        --depth_;
}

std::string
JobMetrics::countersJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : counters_.entries()) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":" + jsonNumber(value);
    }
    out += "}";
    return out;
}

MetricSinkScope::MetricSinkScope(JobMetrics *sink) : previous_(t_sink)
{
    t_sink = sink;
}

MetricSinkScope::~MetricSinkScope() { t_sink = previous_; }

JobMetrics *
currentMetricSink()
{
    return t_sink;
}

void
MetricsCollector::reset(size_t num_jobs)
{
    jobs_.clear();
    jobs_.resize(num_jobs);
    labels_.clear();
    labels_.resize(num_jobs);
}

void
MetricsCollector::setLabel(size_t index, std::string label)
{
    labels_[index] = std::move(label);
}

std::string
MetricsCollector::chromeTraceJson() const
{
    // Rebase timestamps to the earliest span and renumber thread tags
    // in dispatch order — by the start of each thread's first span —
    // so tid 0 is the worker that began first.
    std::unordered_map<uint64_t, uint64_t> firstBegin;
    for (const auto &jm : jobs_) {
        for (const auto &s : jm.spans()) {
            if (s.endNs < s.beginNs || s.endNs == 0)
                continue;
            const auto [it, inserted] =
                firstBegin.emplace(s.threadTag, s.beginNs);
            if (!inserted)
                it->second = std::min(it->second, s.beginNs);
        }
    }
    std::vector<std::pair<uint64_t, uint64_t>> starts;  // (begin, tag)
    starts.reserve(firstBegin.size());
    for (const auto &[tag, begin] : firstBegin)
        starts.emplace_back(begin, tag);
    std::sort(starts.begin(), starts.end());
    const uint64_t base = starts.empty() ? 0 : starts.front().first;
    std::unordered_map<uint64_t, unsigned> tids;
    for (const auto &[begin, tag] : starts)
        tids.emplace(tag, unsigned(tids.size()));

    std::string out = "{\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (size_t i = 0; i < jobs_.size(); ++i) {
        for (const auto &s : jobs_[i].spans()) {
            if (s.endNs < s.beginNs || s.endNs == 0)
                continue;  // never closed: a crashed or torn span
            if (!first)
                out += ",";
            first = false;
            out += "{\"name\":\"" + jsonEscape(s.name) +
                   "\",\"cat\":\"job\",\"ph\":\"X\"";
            std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                          double(s.beginNs - base) / 1e3,
                          double(s.endNs - s.beginNs) / 1e3);
            out += buf;
            std::snprintf(buf, sizeof buf, ",\"pid\":0,\"tid\":%u",
                          tids.at(s.threadTag));
            out += buf;
            out += ",\"args\":{\"job\":\"" + jsonEscape(labels_[i]) +
                   "\",\"depth\":" + std::to_string(s.depth) + "}}";
        }
    }
    out += "]}";
    return out;
}

} // namespace vgiw
