/**
 * @file
 * Per-thread dynamic execution traces.
 *
 * The functional executor records, for every thread, the sequence of basic
 * blocks it executed and the memory accesses each execution issued. All
 * four timing models (VGIW, Fermi-SIMT, SGMF, DICE) replay these traces,
 * which guarantees that the architectures are compared on bit-identical
 * work.
 *
 * Storage is compressed: TraceCache keeps every traced workload of a
 * sweep resident, and raw BlockExec/MemAccess arrays made the cache the
 * dominant memory consumer. Traces are therefore held as per-thread
 * delta-varint byte streams with an LZ-style run code for the loop
 * repetition that dominates real control flow, and the replay models
 * read them through forward-only ThreadCursor decoders — replay order
 * is strictly sequential per thread in all four models, so nothing
 * ever needs random access. The streams are written online: as each
 * strip of a block vector finishes, the interpreter hands a TraceWriter
 * one call per lane with that execution's accesses, so no raw
 * per-thread arrays are ever built.
 *
 * Encoded format (per thread, two independent streams):
 *
 *  - exec stream: a sequence of tokens, one varint-led token per block
 *    execution. A LITERAL token is `zigzag(block - prevBlock) << 1 | 0`
 *    followed by `zigzag(succ - block)` and `numAccesses` varints. A
 *    RUN token is `((len << 2) | (dist - 1)) << 1 | 1` and copies `len`
 *    whole (block, succ, numAccesses) tuples from `dist` (1..4) tuples
 *    back, with periodic extension (len may exceed dist) — this captures
 *    straight-line loop bodies of up to four blocks as one or two bytes
 *    per iteration. `prevBlock` is the previously decoded tuple's block
 *    (0 initially).
 *
 *  - access stream: one varint per access,
 *    `zigzag(addr - prevAddr[isShared]) << 2 | isShared << 1 | isStore`,
 *    with separate previous-address chains for shared and global space
 *    (both 0 initially) so strided global streams are not disturbed by
 *    interleaved scratchpad traffic.
 *
 * External storage: a TraceSet can borrow its three arrays (thread
 * index, exec bytes, access bytes) from a caller-owned backing — an
 * mmap'd artifact-store blob — instead of owning vectors. Warm sweeps
 * decode straight out of the mapping; nothing is copied or
 * rematerialised. serializeInto()/deserialize() define the layout.
 * Owned or borrowed, every cursor decodes the same bytes the same way.
 */

#ifndef VGIW_INTERP_TRACE_HH
#define VGIW_INTERP_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/varint.hh"
#include "ir/kernel.hh"

namespace vgiw
{

/** One dynamic memory access. */
struct MemAccess
{
    uint32_t addr = 0;     ///< byte address (scratchpad-relative if shared)
    bool isStore = false;
    bool isShared = false;
};

/** One dynamic execution of a basic block by one thread. */
struct BlockExec
{
    uint16_t block = 0;
    int16_t succ = -1;  ///< next block id, or -1 when the thread exits
    uint32_t accessBegin = 0;  ///< range into ThreadTrace::accesses
    uint32_t accessEnd = 0;
};

/** The full dynamic trace of one thread, materialised (tests and
 * inspection; see TraceSet::decodeThread and TraceSet::fromThreads). */
struct ThreadTrace
{
    std::vector<BlockExec> execs;
    std::vector<MemAccess> accesses;
};

/**
 * Forward-only decoder over one thread's compressed trace. The replay
 * models hold one cursor per thread: the current block execution is
 * exposed through block()/succ()/numAccesses(), its accesses are pulled
 * with nextAccess(), and nextExec() advances to the next execution
 * (skipping any accesses the caller did not consume, so the delta
 * chains stay in sync). Cheap to copy: 112 bytes of state on LP64.
 */
class ThreadCursor
{
  public:
    ThreadCursor() = default;

    /** True when every block execution has been consumed. */
    bool done() const { return !hasCur_; }

    /** Current execution's block id. */
    int block() const { return int(cur_.block); }

    /** Current execution's successor block id (-1 = thread exit). */
    int succ() const { return int(cur_.succ); }

    /** Accesses the current execution issues. */
    uint32_t numAccesses() const { return cur_.nacc; }

    /** Decode the next access of the current execution; reading past
     * its numAccesses() panics instead of decoding the next one's. */
    MemAccess
    nextAccess()
    {
        vgiw_assert(accLeft_, "trace over-read: block ", cur_.block,
                    " has no access left");
        --accLeft_;
        const uint64_t v = varint::decode(ap_);
        MemAccess a;
        a.isStore = v & 1;
        a.isShared = (v >> 1) & 1;
        uint32_t &prev = prevAddr_[a.isShared ? 1 : 0];
        prev = uint32_t(int64_t(prev) + varint::unzigzag(v >> 2));
        a.addr = prev;
        return a;
    }

    /** Advance to the next block execution (or done()). */
    void
    nextExec()
    {
        while (accLeft_)
            nextAccess();
        if (execsLeft_) {
            --execsLeft_;
            decodeExec();
        } else {
            hasCur_ = false;
        }
    }

  private:
    friend class TraceSet;

    struct Tup
    {
        int32_t block = 0;
        int32_t succ = 0;
        uint32_t nacc = 0;
    };

    ThreadCursor(const uint8_t *exec, const uint8_t *acc,
                 uint32_t num_execs)
        : ep_(exec), ap_(acc), execsLeft_(num_execs)
    {
        if (execsLeft_) {
            --execsLeft_;
            decodeExec();
            hasCur_ = true;
        }
    }

    void
    decodeExec()
    {
        if (runLeft_) {
            --runLeft_;
            cur_ = ring_[(ringPos_ + 4 - runDist_) & 3];
        } else {
            uint64_t v = varint::decode(ep_);
            if (v & 1) {
                v >>= 1;
                runDist_ = uint32_t(v & 3) + 1;
                runLeft_ = uint32_t(v >> 2) - 1;
                cur_ = ring_[(ringPos_ + 4 - runDist_) & 3];
            } else {
                cur_.block =
                    prevBlock_ + int32_t(varint::unzigzag(v >> 1));
                cur_.succ = cur_.block +
                            int32_t(varint::unzigzag(varint::decode(ep_)));
                cur_.nacc = uint32_t(varint::decode(ep_));
            }
        }
        ring_[ringPos_] = cur_;
        ringPos_ = (ringPos_ + 1) & 3;
        prevBlock_ = cur_.block;
        accLeft_ = cur_.nacc;
    }

    const uint8_t *ep_ = nullptr;  ///< exec stream read position
    const uint8_t *ap_ = nullptr;  ///< access stream read position
    uint32_t execsLeft_ = 0;       ///< execs not yet decoded
    bool hasCur_ = false;
    Tup cur_;
    uint32_t accLeft_ = 0;         ///< undecoded accesses of cur_
    int32_t prevBlock_ = 0;
    uint32_t prevAddr_[2] = {0, 0};  ///< [global, shared] delta chains
    Tup ring_[4];                  ///< last 4 decoded tuples (run window)
    uint32_t ringPos_ = 0;
    uint32_t runLeft_ = 0;
    uint32_t runDist_ = 0;
};

/**
 * Compressed traces for every thread of a launch, plus launch metadata.
 *
 * @warning TraceSet borrows the kernel: the Kernel object passed to
 * Interpreter::run() (e.g. the WorkloadInstance that owns it) must
 * outlive every use of the traces by the core models. An externally
 * backed TraceSet (deserialize()) additionally borrows its streams
 * from the backing it was given; the shared backing pointer keeps the
 * mapping alive for the TraceSet's lifetime.
 */
class TraceSet
{
  public:
    const Kernel *kernel = nullptr;
    LaunchParams launch;

    /**
     * FNV-1a of the kernel's printed IR, or 0 when not computed. Set by
     * the trace cache when an artifact store is attached; the compile
     * cache keys per-arch artifacts by it (content addressing survives
     * workload renames, and two identical kernels share artifacts).
     */
    uint64_t contentHash = 0;
    /** Streams are served from an artifact-store mapping (warm load). */
    bool storeBacked = false;
    /** Payload bytes mmap'd for this trace set (0 when cold). */
    uint64_t mappedBytes = 0;

    TraceSet() = default;

    /**
     * Encode materialised per-thread traces through a TraceWriter. The
     * accesses of each thread must appear in execution order with each
     * exec's [accessBegin, accessEnd) ranges contiguous, as
     * decodeThread() lays them out.
     */
    static TraceSet fromThreads(const Kernel *kernel,
                                const LaunchParams &launch,
                                const std::vector<ThreadTrace> &threads);

    size_t numThreads() const { return extIndex_ ? extThreads_ : index_.size(); }

    /** A fresh decode cursor over thread @p tid's trace. */
    ThreadCursor
    thread(uint32_t tid) const
    {
        const ThreadIndex &ix = idx(tid);
        return ThreadCursor(execData() + ix.execOff,
                            accessData() + ix.accessOff, ix.numExecs);
    }

    uint32_t numExecs(uint32_t tid) const { return idx(tid).numExecs; }
    uint32_t
    numAccesses(uint32_t tid) const
    {
        return idx(tid).numAccesses;
    }

    /** Materialise one thread's full trace (tests / inspection). */
    ThreadTrace decodeThread(uint32_t tid) const;

    /** Total dynamic block executions over all threads. */
    uint64_t totalBlockExecs() const { return totalExecs_; }

    /** Total dynamic memory accesses over all threads. */
    uint64_t totalAccesses() const { return totalAccesses_; }

    /** Dynamic executions of block @p b summed over threads. */
    uint64_t blockExecCount(int b) const;

    /** Resident size of the encoded streams. */
    size_t
    compressedBytes() const
    {
        return size_t(execLen() + accessLen());
    }

    /** What the raw BlockExec/MemAccess arrays would occupy. */
    uint64_t
    uncompressedBytes() const
    {
        return totalExecs_ * sizeof(BlockExec) +
               totalAccesses_ * sizeof(MemAccess);
    }

    // --- Persistence (artifact store) --------------------------------

    /**
     * Append the wire form — a fixed header, the thread index, then
     * the two byte streams — to @p out. Everything but the borrowed
     * kernel/launch (which the cache key pins) round-trips.
     */
    void serializeInto(std::string &out) const;

    /**
     * Rebuild a TraceSet over @p data (length @p len) produced by
     * serializeInto, zero-copy: the index and streams stay in the
     * backing, which the result holds alive. @p data must be 8-aligned
     * (artifact-store payloads are). Returns false — leaving @p out
     * untouched — on any structural mismatch: short buffer, lengths
     * that do not add up, or a non-monotone thread index. @p kernel
     * and @p launch are the caller's (key-matched) kernel identity.
     */
    static bool deserialize(const uint8_t *data, size_t len,
                            std::shared_ptr<const void> backing,
                            const Kernel *kernel,
                            const LaunchParams &launch, TraceSet &out);

    /** Does nothing: cursors always decode the compressed streams.
     * Kept only because the perfbench ledger (perfbench/ledger.cc),
     * which this library does not own, still calls it. */
    void buildAccessIntern() {}

  private:
    friend class TraceWriter;

    struct ThreadIndex
    {
        uint64_t execOff = 0;    ///< offset into the exec stream
        uint64_t accessOff = 0;  ///< offset into the access stream
        uint32_t numExecs = 0;
        uint32_t numAccesses = 0;
    };
    static_assert(sizeof(ThreadIndex) == 24,
                  "on-disk thread index layout is pinned");

    const uint8_t *
    execData() const
    {
        return extExec_ ? extExec_ : execBytes_.data();
    }
    const uint8_t *
    accessData() const
    {
        return extAccess_ ? extAccess_ : accessBytes_.data();
    }
    uint64_t
    execLen() const
    {
        return extIndex_ ? extExecLen_ : execBytes_.size();
    }
    uint64_t
    accessLen() const
    {
        return extIndex_ ? extAccessLen_ : accessBytes_.size();
    }
    const ThreadIndex &
    idx(uint32_t tid) const
    {
        return extIndex_ ? extIndex_[tid] : index_[tid];
    }

    // Owned storage (TraceWriter::finish) ...
    std::vector<uint8_t> execBytes_;
    std::vector<uint8_t> accessBytes_;
    std::vector<ThreadIndex> index_;
    // ... or borrowed views into an mmap'd backing (deserialize).
    const ThreadIndex *extIndex_ = nullptr;
    const uint8_t *extExec_ = nullptr;
    const uint8_t *extAccess_ = nullptr;
    uint64_t extThreads_ = 0;
    uint64_t extExecLen_ = 0;
    uint64_t extAccessLen_ = 0;
    std::shared_ptr<const void> backing_;

    uint64_t totalExecs_ = 0;
    uint64_t totalAccesses_ = 0;
};

/**
 * Online encoder: builds a TraceSet while the threads of a launch run,
 * in any interleaving. Each thread reports every finished block
 * execution with one block() call carrying the accesses it issued, in
 * order; finish() concatenates the per-thread streams.
 *
 * The exec stream is the greedy one: at each token start, take the
 * longest run of the last 1..4 tuples (ties to the shortest distance,
 * whose token is smallest) if it is at least 2 long, else a literal.
 * Online, a thread keeps its open token's start and the distances
 * whose runs still match every tuple since then. All candidate runs
 * have the same length while they match, so the token closes when the
 * last of them breaks (or at finish()), as a run of that length at the
 * shortest of those distances, or as a literal when that length is
 * below 2. The one tuple already seen past the closed token, the one
 * that broke it, then opens the next token. A ring of the last 8
 * tuples covers it, the token start and the 4 tuples each compares
 * against.
 *
 * Each stream is a chain of chunks carved from writer-owned slabs: a
 * thread's first chunk is small, each next one twice the last up to a
 * cap, and one room check per stream and block() call covers all that
 * call writes, so the varints are written through a raw pointer. A launch of any size
 * allocates one 64 KB slab per 64 KB of chunks, not a buffer per
 * thread.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(size_t num_threads);

    /**
     * Thread @p tid finished one execution of @p block, going on to
     * @p succ (-1: exit), after issuing @p m accesses: access i is to
     * address addrs[i * stride] and of kind kinds[i], which is
     * `isShared << 1 | isStore`.
     */
    void block(uint32_t tid, int block, int succ, const uint32_t *addrs,
               size_t stride, const uint8_t *kinds, uint32_t m);

    /** Close every thread's streams; the writer is spent afterwards. */
    TraceSet finish(const Kernel *kernel, const LaunchParams &launch);

  private:
    struct Tup
    {
        uint16_t block = 0;
        int16_t succ = 0;
        uint32_t nacc = 0;

        bool operator==(const Tup &) const = default;
    };

    /** One piece of a stream: this header, then cap payload bytes. */
    struct Chunk
    {
        Chunk *next = nullptr;
        uint32_t cap = 0;
        uint32_t used = 0;  ///< payload bytes written, once closed

        uint8_t *payload() { return reinterpret_cast<uint8_t *>(this + 1); }
    };

    /** One stream: its chain of chunks and the open one's room. */
    struct Stream
    {
        uint8_t *pos = nullptr;  ///< next byte to write
        uint8_t *end = nullptr;  ///< end of the open chunk's payload
        Chunk *head = nullptr;
        Chunk *tail = nullptr;   ///< the open chunk
    };

    struct Thread
    {
        Stream exec;
        Stream access;
        uint32_t prevAddr[2] = {0, 0};  ///< [global, shared] delta chains
        Tup ring[8];          ///< tuple j lives at ring[j & 7]
        uint32_t seen = 0;    ///< tuples (block executions) so far
        uint32_t start = 0;   ///< first tuple of the open token
        uint32_t numAccesses = 0;
        uint8_t alive = 0;    ///< bit d-1: the distance-d run still matches
    };

    /** Open a chunk on @p s with room for at least @p need bytes. */
    void grow(Stream &s, size_t need);
    /** Extend thread @p t's open token with tuple @p j. */
    static void scan(Thread &t, uint32_t j);
    /** Close the open token as a run of @p len tuples. */
    static void emitRun(Thread &t, uint32_t len);
    /** Emit tuple @p j as a literal token. */
    static void emitLiteral(Thread &t, uint32_t j);

    std::vector<Thread> threads_;
    std::vector<std::unique_ptr<uint8_t[]>> slabs_;
    uint8_t *slabPos_ = nullptr;  ///< unused part of the newest slab
    uint8_t *slabEnd_ = nullptr;
};

} // namespace vgiw

#endif // VGIW_INTERP_TRACE_HH
