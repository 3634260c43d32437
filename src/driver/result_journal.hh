/**
 * @file
 * The write-ahead result journal: durable sweep progress.
 *
 * A design-space sweep is hours of work whose process can die at any
 * instant — SIGKILL, OOM, a machine reboot. PR 3 made in-process
 * faults survivable; the journal makes *process death* survivable.
 * Every terminal JobResult is appended as one fsync'd JSON line before
 * the sweep moves on, keyed by a stable job key (workload × arch ×
 * compile fingerprint × replay knobs — see ExperimentEngine::jobKey),
 * so a resumed run can skip exactly the jobs whose results already
 * exist and re-enqueue the rest. Because replay is deterministic, the
 * merged output of kill + resume is bit-identical to an uninterrupted
 * run: each entry stores the *exact* JSON line the original run
 * emitted, and resume replays those bytes verbatim.
 *
 * On-disk format (JSON lines):
 *
 *   {"journal":"vgiw-sweep","version":1,"sweep":"<hash>"}
 *   {"key":"<k>","ok":B,"golden":B,"quarantined":B,"result":{...}}
 *   ...
 *
 * The header pins the sweep definition hash: resuming against a
 * journal whose hash differs (the sweep's job list or any config knob
 * changed) is rejected — stale results must never be merged into a
 * different experiment. The loader tolerates a truncated final line
 * (the crash may have landed mid-append); everything before it is
 * intact because each append is flushed and fsync'd before the engine
 * reports the job done. A *completed* JobResult is therefore never
 * lost.
 *
 * Thread-safety: append() is internally serialised; workers call it
 * concurrently.
 */

#ifndef VGIW_DRIVER_RESULT_JOURNAL_HH
#define VGIW_DRIVER_RESULT_JOURNAL_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace vgiw
{

/** One journaled (or recovered) terminal job outcome. */
struct JournalEntry
{
    std::string key;     ///< ExperimentEngine::jobKey of the job
    bool ok = false;     ///< the job ran and succeeded
    bool golden = false; ///< golden check verdict
    /** The shard supervisor gave up on the job: its worker crashed
     * on every dispatch. */
    bool quarantined = false;
    /** The exact JSON line the run emitted for this job; resume
     * re-emits these bytes verbatim (bit-identity). If the original
     * run collected metrics, its "metrics" object is embedded here and
     * survives a resume unchanged — a restored job is never re-run, so
     * it is also never re-instrumented. */
    std::string jsonLine;
};

/** Append-only, fsync-per-record journal of sweep results. */
class ResultJournal
{
  public:
    ResultJournal() = default;
    ~ResultJournal() { close(); }

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    /**
     * Start a fresh journal at @p path for the sweep identified by
     * @p sweepHash. An existing file is rotated aside to "<path>.1"
     * (never silently destroyed). Returns false with a diagnostic in
     * @p error on I/O failure.
     */
    bool create(const std::string &path, const std::string &sweepHash,
                std::string *error = nullptr);

    /**
     * Resume from an existing journal: load and validate it (the
     * header hash must equal @p sweepHash — a stale journal is
     * rejected), populate entries(), and reopen for append so the
     * resumed run extends the same file. A missing file is not an
     * error: resume degrades to a fresh journal.
     */
    bool openForResume(const std::string &path,
                       const std::string &sweepHash,
                       std::string *error = nullptr);

    bool isOpen() const { return file_ != nullptr; }

    /** Entries recovered by openForResume, keyed by job key. */
    const std::map<std::string, JournalEntry> &entries() const
    {
        return entries_;
    }

    /**
     * Durably append one terminal result: the record is written,
     * flushed and fsync'd before returning. Serialised internally.
     * Returns false on I/O failure (also latched in writeError()); the
     * sweep keeps running — results still land in memory — but the
     * caller should surface the failure in its exit code.
     */
    bool append(const JournalEntry &entry);

    /** First append/open I/O failure, empty when none. */
    std::string writeError() const;

    /** Flush and close the file (idempotent). */
    void close();

    /** Parsed journal file, for inspection and tests. */
    struct Loaded
    {
        bool valid = false;  ///< header present and well-formed
        std::string error;   ///< why !valid
        std::string sweepHash;
        std::map<std::string, JournalEntry> entries;
    };

    /**
     * Parse the journal at @p path. Truncated or malformed lines are
     * dropped and parsing continues (openAppend newline-terminates a
     * predecessor's torn tail, so valid records can follow a bad
     * line); duplicate keys resolve last-complete-record-wins — a
     * restarted coordinator legitimately re-appends a key. A missing
     * or headerless file is invalid.
     */
    static Loaded load(const std::string &path);

    /** Serialise one entry as its journal line (no newline). */
    static std::string formatEntry(const JournalEntry &entry);

  private:
    bool openAppend(const std::string &path, std::string *error);

    mutable std::mutex mu_;
    std::FILE *file_ = nullptr;
    std::string path_;
    std::string writeError_;
    std::map<std::string, JournalEntry> entries_;
};

} // namespace vgiw

#endif // VGIW_DRIVER_RESULT_JOURNAL_HH
