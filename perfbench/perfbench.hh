/**
 * @file
 * Shared declarations of the perfbench harness: heap accounting, the
 * workload shapes, the reference check and the traced layer walk.
 *
 * Everything here lives in the benchmark, not in the simulator: the
 * library is linked unmodified and every measurement is taken around
 * calls into its public functions.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/experiment_engine.hh"

namespace perfbench
{

// ---------------------------------------------------------------------
// Heap accounting (alloc_count.cc). Every operator new in the process
// is tallied in a thread-local counter that is folded into a global one
// when its thread exits, so counting costs no shared cache line on the
// hot path. A snapshot is exact only while no other thread that
// allocated is still running: take it after the engine has joined its
// workers, or on a single-threaded path.
// ---------------------------------------------------------------------

struct AllocSnapshot
{
    uint64_t count = 0;
    uint64_t bytes = 0;
};

AllocSnapshot allocSnapshot();

// ---------------------------------------------------------------------
// Clock helpers.
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

// ---------------------------------------------------------------------
// Workload shapes and job lists.
// ---------------------------------------------------------------------

/** How one iteration executes its job list. */
enum class Mode
{
    Engine,   ///< in-process ExperimentEngine, no artifact store
    Warm,     ///< in-process engine served from a filled artifact store
    Sharded,  ///< ShardSupervisor::run over forked shard workers
};

/** A named workload: the default suite run one way. */
struct Shape
{
    std::string name;
    Mode mode = Mode::Engine;
};

/** The named workloads; nullptr for an unknown name. */
const Shape *findShape(const std::string &name);

/**
 * The default suite (registry × architectures, default config) in a
 * submission order drawn from @p order (Fisher-Yates). The benchmark
 * seeds @p order from --seed, so the seed changes only the order in
 * which jobs are submitted.
 */
std::vector<vgiw::ExperimentJob> makeJobs(std::mt19937_64 &order);

/** Identity of one result row: workload|arch|configLabel. */
std::string rowKey(std::string_view workload, std::string_view arch,
                   std::string_view configLabel);

/** Collects rendered rows into one buffer, as --json writes them. */
class RowBuffer : public vgiw::ResultSink
{
  public:
    void
    row(size_t index, std::string_view line) override
    {
        spans_.push_back({index, {text_.size(), line.size()}});
        text_.append(line);
        text_.push_back('\n');
    }

    /** Rows in render order: (row index, line). */
    std::vector<std::pair<size_t, std::string_view>>
    rows() const
    {
        std::vector<std::pair<size_t, std::string_view>> out;
        out.reserve(spans_.size());
        for (const auto &[i, s] : spans_)
            out.push_back(
                {i, std::string_view(text_).substr(s.first, s.second)});
        return out;
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
    /** Per row: (row index, (offset, length)) into text_. */
    std::vector<std::pair<size_t, std::pair<size_t, size_t>>> spans_;
};

// ---------------------------------------------------------------------
// Reference outputs (perfbench/reference).
// ---------------------------------------------------------------------

/**
 * Expected rendered rows, keyed by rowKey(): suite.jsonl, the plain
 * `vgiw_run --suite --json` output of the default suite.
 */
class Reference
{
  public:
    /** Load suite.jsonl from @p dir; false and @p error on failure. */
    bool load(const std::string &dir, std::string *error);

    /** Does @p row equal the reference row for @p key? */
    bool matches(const std::string &key, std::string_view row) const;

  private:
    std::map<std::string, std::string> rows_;
};

/** Write suite.jsonl for the current build into @p dir. */
bool writeReference(const std::string &dir, unsigned workers,
                    std::string *error);

// ---------------------------------------------------------------------
// Metric output.
// ---------------------------------------------------------------------

/** Named metrics in emission order, each with its unit. */
class MetricList
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, {value, unit}});
    }

    /** `{"name": {"value": v, "unit": "u"}, ...}` with full precision. */
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

// ---------------------------------------------------------------------
// The traced layer walk (ledger.cc).
// ---------------------------------------------------------------------

struct LedgerOptions
{
    const Shape *shape = nullptr;
    uint64_t seed = 0;
    double seconds = 1.0;
    unsigned shards = 2;
    /** Filled artifact store directory (Mode::Warm only). */
    std::string storeDir;
    /** Scratch directory for the publish-timing store (Mode::Warm). */
    std::string publishDir;
    const std::vector<std::string> *archs = nullptr;
    const Reference *reference = nullptr;
};

struct LedgerResult
{
    MetricList metrics;
    uint64_t attempted = 0;  ///< rows checked
    uint64_t failed = 0;     ///< rows failed or mismatching the reference
    bool simRepeats = true;  ///< sim.* identical across walks
};

/**
 * Walk the shape's jobs layer by layer on one thread — workload build,
 * interpreter, golden check, access interning, compile per arch, replay
 * per job, render — with a span and an allocation count around every
 * call, repeated until @p seconds have passed (at least once). Then
 * time the untraced engine on the same jobs at one worker (the engine
 * overhead baseline) and, for the sharded shape, the supervisor against
 * the engine at the same parallelism.
 */
LedgerResult runLedger(const LedgerOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
