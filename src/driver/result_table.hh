/**
 * @file
 * Columnar result storage and the one-shot JSON-lines serialiser.
 *
 * A sweep's results used to live as a vector of JobResult structs,
 * each carrying half a dozen heap strings, and every consumer (the
 * journal, --json, tests) re-serialised them through its own
 * ostringstream — thousands of small allocations per sweep and two
 * formatting code paths to keep bit-identical by hand.
 *
 * ResultTable replaces that with a column store: string fields are
 * interned once into a chunked arena (pointers stable for the table's
 * lifetime — rows can be filled and rendered concurrently), numeric
 * fields and flags live in flat per-column vectors, and renderRow() is
 * THE single formatter every JSON-lines consumer shares. The journal
 * line on disk and the --json line in the artifact are rendered by the
 * same code over the same columns, so they cannot drift apart — which
 * is what keeps kill + resume byte-identical.
 *
 * Rendering contract: renderRow() emits exactly the bytes the engine's
 * historical per-struct formatter produced — field order, failure-only
 * fields, the restored-verbatim rule — so artifacts are byte-identical
 * across the columnar migration.
 *
 * Thread-safety: reset() is exclusive; fill() may be called
 * concurrently for distinct rows (arena appends are mutex-guarded,
 * column slots are pre-sized); renderRow()/renderInto() for a row are
 * safe once that row's fill() has returned, including while other
 * rows are still being filled — a row's render reads only its own
 * column slots and row-owned extras, never a shared growable pool.
 */

#ifndef VGIW_DRIVER_RESULT_TABLE_HH
#define VGIW_DRIVER_RESULT_TABLE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_error.hh"

namespace vgiw
{

struct JobResult;

/** Streaming consumer of rendered JSON lines (see renderInto). */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;
    /** One rendered JSON-lines object (no newline), in row order. */
    virtual void row(size_t index, std::string_view jsonLine) = 0;
};

/** Columnar store for sweep results; single source of rendered JSON. */
class ResultTable
{
  public:
    ResultTable() = default;
    ResultTable(const ResultTable &) = delete;
    ResultTable &operator=(const ResultTable &) = delete;

    /** Size the table to @p rows empty rows, dropping previous data. */
    void reset(size_t rows);

    size_t numRows() const { return flags_.size(); }

    /**
     * Decompose @p r into the columns of row @p index. Safe to call
     * concurrently for distinct rows. May be called again for the same
     * row (a retry or callback demotion re-fills it); the last fill
     * wins and invalidates the row's render cache.
     */
    void fill(size_t index, const JobResult &r);

    /** Row has been fill()ed (unfilled rows render as "{}"). */
    bool filled(size_t index) const;

    /**
     * The row as a JSON-lines object (no newline) — the single
     * formatting code path behind the journal and --json.
     * Rows with a verbatimJson line (restored from a journal, or
     * rendered by a shard worker) re-emit it byte-for-byte. The view
     * is cached and stays valid until the row is re-filled or the
     * table is reset.
     */
    std::string_view renderRow(size_t index);

    /** Render every filled, non-drained row through @p sink in order. */
    void renderInto(ResultSink &sink);

    /** Bytes interned in the string arena (diagnostics). */
    size_t arenaBytes() const;

  private:
    /** Arena-interned string: pointer is stable until reset(). */
    struct Ref
    {
        const char *ptr = nullptr;
        uint32_t len = 0;
        std::string_view view() const { return {ptr ? ptr : "", len}; }
        bool empty() const { return len == 0; }
    };

    /** Per-row replay statistics, flat (only read when kRan is set). */
    struct StatRow
    {
        uint64_t cycles, configCycles, reconfigs;
        uint64_t dynBlockExecs, dynThreadOps, dynWarpInstrs;
        uint64_t rfAccesses, lvcAccesses;
        uint64_t l1Accesses, l1Misses, l2Accesses, l2Misses;
        uint64_t lvcMisses, dramAccesses, dramRowHits;
        double corePj, diePj, systemPj;
    };

    enum : uint8_t
    {
        kFilled = 1 << 0,
        kGolden = 1 << 1,
        kRan = 1 << 2,
        kSupported = 1 << 3,
        kQuarantined = 1 << 4,
        kVerbatim = 1 << 5,
        kPartialValid = 1 << 6,
        kDrained = 1 << 7,
    };

    Ref intern(std::string_view s);  ///< caller holds mu_

    std::mutex mu_;  ///< guards the arena chunks
    /** Chunked arena: chunks never move, so Refs stay valid across
     * concurrent fills — the property vector<char> cannot give. */
    std::vector<std::unique_ptr<char[]>> chunks_;
    size_t chunkUsed_ = 0;
    std::atomic<size_t> arenaBytes_{0};

    // One entry per row, pre-sized by reset().
    std::vector<uint8_t> flags_;
    std::vector<uint8_t> errorKind_;
    std::vector<uint32_t> attempts_;
    std::vector<Ref> workload_, arch_, config_, error_;
    std::vector<Ref> verbatimJson_, metricsJson_;
    std::vector<uint64_t> partialCycles_, partialBlockExecs_,
        partialThreadOps_;
    std::vector<StatRow> stats_;
    /** Per-row extras: a row's vector is written only by its fill()er
     * and read only by its renderer, so rendering one row never
     * touches state another row's concurrent fill mutates. */
    std::vector<std::vector<std::pair<Ref, double>>> extras_;
    /** Render cache; renderRow returns views into these. */
    std::vector<std::string> rendered_;
    std::vector<uint8_t> renderValid_;
};

} // namespace vgiw

#endif // VGIW_DRIVER_RESULT_TABLE_HH
