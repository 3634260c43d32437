/**
 * @file
 * The sweep's JSON-lines rows and their one formatter.
 *
 * renderJobLine() is the serialiser behind the journal line on disk,
 * the --json line in the artifact and the line a shard worker sends
 * back, so they cannot drift apart: that is what keeps kill + resume
 * and sharded sweeps byte-identical. ResultTable stores each row's
 * line once, rendered by fill().
 *
 * Thread-safety: reset() is exclusive; fill() may run concurrently for
 * distinct rows; a row's renderRow()/renderInto() is safe once its
 * fill() has returned, while other rows are still being filled.
 */

#ifndef VGIW_DRIVER_RESULT_TABLE_HH
#define VGIW_DRIVER_RESULT_TABLE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vgiw
{

struct JobResult;

/**
 * @p r as a JSON-lines object (no newline). A row with a verbatimJson
 * line (restored from a journal, or rendered by a shard worker)
 * re-emits it byte-for-byte.
 */
std::string renderJobLine(const JobResult &r);

/** Streaming consumer of rendered JSON lines (see renderInto). */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;
    /** One rendered JSON-lines object (no newline), in row order. */
    virtual void row(size_t index, std::string_view jsonLine) = 0;
};

/** One rendered JSON line per sweep row. */
class ResultTable
{
  public:
    /** Size the table to @p rows empty rows, dropping previous data. */
    void reset(size_t rows);

    size_t numRows() const { return lines_.size(); }

    /**
     * Render @p r into row @p index. Safe to call concurrently for
     * distinct rows. May be called again for the same row (a callback
     * demotion re-fills it); the last fill wins.
     */
    void fill(size_t index, const JobResult &r);

    /** Row has been fill()ed (unfilled rows render as "{}"). */
    bool filled(size_t index) const;

    /** The row's JSON line (no newline); the view stays valid until
     * the row is re-filled or the table is reset. */
    std::string_view renderRow(size_t index) const;

    /** Render every filled, non-drained row through @p sink in order. */
    void renderInto(ResultSink &sink) const;

  private:
    enum : uint8_t
    {
        kFilled = 1 << 0,
        kDrained = 1 << 1,
    };

    std::vector<std::string> lines_;
    std::vector<uint8_t> state_;  ///< kFilled | kDrained per row
};

} // namespace vgiw

#endif // VGIW_DRIVER_RESULT_TABLE_HH
