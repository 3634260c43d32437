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
 * Only what the kernel does not fix is stored. A thread starts at block
 * 0 and each execution starts at the previous one's successor; a block
 * goes on to a fixed successor unless it branches, and its accesses are
 * its memory instructions, in order, each a fixed load or store to a
 * fixed space. So a thread's trace is its branch outcomes and its
 * access addresses, and the replay models read it through forward-only
 * ThreadCursor decoders that take everything else from the kernel's
 * KernelShape. Replay order is strictly sequential per thread in all
 * four models, so nothing ever needs random access. The streams are
 * written online: as each strip of a block vector finishes, the
 * interpreter hands a TraceWriter one call per lane with that
 * execution's addresses, and the writer checks each call against the
 * kernel, so a trace that does not follow from it cannot be written.
 *
 * Encoded format (per thread, two independent streams):
 *
 *  - branch stream: one bit per execution of a block whose two
 *    successors differ, the branch condition (1: non-zero), in
 *    execution order; outcome i is bit i % 8 of byte i / 8, and the
 *    last byte is padded with zeros.
 *
 *  - access stream: one varint per access,
 *    `zigzag(addr - prevAddr[isShared])`, with separate previous-address
 *    chains for shared and global space (both 0 initially) so strided
 *    global streams are not disturbed by interleaved scratchpad traffic.
 *
 * External storage: a TraceSet can borrow its three arrays (thread
 * index, branch bytes, access bytes) from a caller-owned backing — an
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

/** What the kernel fixes about every execution of one block. */
struct BlockShape
{
    /** Successor when the branch condition is zero / non-zero; equal
     * when the block does not branch (-1: the thread exits). */
    int32_t next[2] = {-1, -1};
    uint32_t firstKind = 0;  ///< its first access's KernelShape::kinds entry
    uint32_t numAccesses = 0;  ///< its memory instructions
};

/** The BlockShape of every block of a kernel. */
struct KernelShape
{
    std::vector<BlockShape> blocks;
    /** `isShared << 1 | isStore` of each memory instruction, block by
     * block, in instruction order. */
    std::vector<uint8_t> kinds;

    KernelShape() = default;
    explicit KernelShape(const Kernel &k);
};

/**
 * Forward-only decoder over one thread's trace. The replay models hold
 * one cursor per thread: the current block execution is exposed
 * through block()/succ()/numAccesses(), its accesses are pulled with
 * nextAccess(), and nextExec() advances to the next execution (skipping
 * any accesses the caller did not consume, so the delta chains stay in
 * sync).
 */
class ThreadCursor
{
  public:
    ThreadCursor() = default;

    /** True when every block execution has been consumed. */
    bool done() const { return block_ < 0; }

    /** Current execution's block id. */
    int block() const { return block_; }

    /** Current execution's successor block id (-1 = thread exit). */
    int succ() const { return succ_; }

    /** Accesses the current execution issues. */
    uint32_t numAccesses() const { return shape_[block_].numAccesses; }

    /** Decode the next access of the current execution; reading past
     * its numAccesses() panics instead of decoding the next one's. */
    MemAccess
    nextAccess()
    {
        vgiw_assert(accLeft_, "trace over-read: block ", block_,
                    " has no access left");
        --accLeft_;
        const uint8_t kind = kinds_[kind_++];
        MemAccess a;
        a.isStore = kind & 1;
        a.isShared = kind >> 1;
        uint32_t &prev = prevAddr_[kind >> 1];
        prev = uint32_t(int64_t(prev) + varint::unzigzag(varint::decode(ap_)));
        a.addr = prev;
        return a;
    }

    /** Advance to the next block execution (or done()). */
    void
    nextExec()
    {
        while (accLeft_)
            nextAccess();
        enter(succ_);
    }

  private:
    friend class TraceSet;

    ThreadCursor(const KernelShape &shape, const uint8_t *bits,
                 const uint8_t *acc, bool ran)
        : bits_(bits), ap_(acc), shape_(shape.blocks.data()),
          kinds_(shape.kinds.data())
    {
        enter(ran ? 0 : -1);
    }

    /** Start an execution of block @p b (-1: the thread is done). */
    void
    enter(int32_t b)
    {
        block_ = b;
        if (b < 0)
            return;
        const BlockShape &s = shape_[b];
        uint32_t bit = 0;
        if (s.next[0] != s.next[1]) {
            bit = bits_[bitPos_ >> 3] >> (bitPos_ & 7) & 1;
            ++bitPos_;
        }
        succ_ = s.next[bit];
        kind_ = s.firstKind;
        accLeft_ = s.numAccesses;
    }

    const uint8_t *bits_ = nullptr;  ///< branch stream
    const uint8_t *ap_ = nullptr;    ///< access stream read position
    const BlockShape *shape_ = nullptr;
    const uint8_t *kinds_ = nullptr;
    uint32_t bitPos_ = 0;            ///< next outcome bit
    uint32_t kind_ = 0;              ///< next access's kinds_ entry
    uint32_t accLeft_ = 0;           ///< undecoded accesses of block_
    uint32_t prevAddr_[2] = {0, 0};  ///< [global, shared] delta chains
    int32_t block_ = -1;
    int32_t succ_ = -1;
};
static_assert(sizeof(ThreadCursor) <= 64,
              "a replay model's cursor fits one cache line");

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
     * Encode materialised per-thread traces of @p kernel through a
     * TraceWriter. The accesses of each thread must appear in execution
     * order with each exec's [accessBegin, accessEnd) ranges contiguous,
     * as decodeThread() lays them out. Panics on a trace the kernel
     * cannot produce: an execution that does not start where the last
     * one went, an access count or kind that is not the block's, or a
     * thread that stops before it exits.
     */
    static TraceSet fromThreads(const Kernel &kernel,
                                const LaunchParams &launch,
                                const std::vector<ThreadTrace> &threads);

    size_t numThreads() const { return extIndex_ ? extThreads_ : index_.size(); }

    /** A fresh decode cursor over thread @p tid's trace. */
    ThreadCursor
    thread(uint32_t tid) const
    {
        const ThreadIndex &ix = idx(tid);
        return ThreadCursor(shape_, branchData() + ix.branchOff,
                            accessData() + ix.accessOff, ix.numExecs != 0);
    }

    uint32_t numExecs(uint32_t tid) const { return idx(tid).numExecs; }
    uint32_t
    numAccesses(uint32_t tid) const
    {
        return idx(tid).numAccesses;
    }

    /** Materialise one thread's full trace (tests / inspection).
     * Panics when its streams do not hold the index's execution and
     * access counts. */
    ThreadTrace decodeThread(uint32_t tid) const;

    /** Total dynamic block executions over all threads. */
    uint64_t totalBlockExecs() const { return totalExecs_; }

    /** Total dynamic memory accesses over all threads. */
    uint64_t totalAccesses() const { return totalAccesses_; }

    /** Dynamic executions of block @p b summed over threads; panics
     * like decodeThread(). */
    uint64_t blockExecCount(int b) const;

    /** Resident size of the encoded streams. */
    size_t
    compressedBytes() const
    {
        return size_t(branchLen() + accessLen());
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
     * kernel/launch (which the cache key pins) and what follows from
     * the kernel round-trips.
     */
    void serializeInto(std::string &out) const;

    /**
     * Rebuild a TraceSet over @p data (length @p len) produced by
     * serializeInto, zero-copy: the index and streams stay in the
     * backing, which the result holds alive. @p data must be 8-aligned
     * (artifact-store payloads are). Returns false — leaving @p out
     * untouched — on any structural mismatch: short buffer, lengths
     * that do not add up, or a non-monotone thread index. The streams
     * are not checked against the index's counts. @p kernel
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
        uint64_t branchOff = 0;  ///< offset into the branch stream
        uint64_t accessOff = 0;  ///< offset into the access stream
        uint32_t numExecs = 0;
        uint32_t numAccesses = 0;
    };
    static_assert(sizeof(ThreadIndex) == 24,
                  "on-disk thread index layout is pinned");

    const uint8_t *
    branchData() const
    {
        return extBranch_ ? extBranch_ : branchBytes_.data();
    }
    const uint8_t *
    accessData() const
    {
        return extAccess_ ? extAccess_ : accessBytes_.data();
    }
    uint64_t
    branchLen() const
    {
        return extIndex_ ? extBranchLen_ : branchBytes_.size();
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

    /** The kernel's shape, which every cursor decodes against. */
    KernelShape shape_;
    // Owned storage (TraceWriter::finish) ...
    std::vector<uint8_t> branchBytes_;
    std::vector<uint8_t> accessBytes_;
    std::vector<ThreadIndex> index_;
    // ... or borrowed views into an mmap'd backing (deserialize).
    const ThreadIndex *extIndex_ = nullptr;
    const uint8_t *extBranch_ = nullptr;
    const uint8_t *extAccess_ = nullptr;
    uint64_t extThreads_ = 0;
    uint64_t extBranchLen_ = 0;
    uint64_t extAccessLen_ = 0;
    std::shared_ptr<const void> backing_;

    uint64_t totalExecs_ = 0;
    uint64_t totalAccesses_ = 0;
};

/**
 * Online encoder: builds a TraceSet while the threads of a launch run,
 * in any interleaving. Each thread reports every finished block
 * execution with one block() call carrying the addresses it accessed,
 * in order; finish() concatenates the per-thread streams.
 *
 * A thread's outcome bits collect in a 64-bit word that goes into its
 * branch stream when full; finish() appends the rest. Each stream is a
 * chain of chunks carved from writer-owned slabs: a thread's first
 * chunk is small, each next one twice the last up to a cap, and one
 * room check per stream and block() call covers all that call writes,
 * so the varints are written through a raw pointer. A launch of any
 * size allocates one 64 KB slab per 64 KB of chunks, not a buffer per
 * thread.
 */
class TraceWriter
{
  public:
    TraceWriter(const Kernel &kernel, size_t num_threads);

    /**
     * Thread @p tid finished one execution of @p block, going on to
     * @p succ (-1: exit), after issuing @p m accesses: access i is to
     * address addrs[i * stride]. Panics unless @p block is where the
     * thread's last execution went (block 0 first), @p succ is one of
     * its successors and @p m is its number of memory instructions.
     */
    void block(uint32_t tid, int block, int succ, const uint32_t *addrs,
               size_t stride, uint32_t m);

    /** Close every thread's streams; the writer is spent afterwards.
     * Panics if a thread that ran has not exited. */
    TraceSet finish(const LaunchParams &launch);

  private:
    friend class TraceSet;

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
        Stream branch;
        Stream access;
        uint64_t bits = 0;    ///< outcomes not yet in the branch stream
        uint32_t numBits = 0;  ///< outcomes so far
        int32_t next = 0;     ///< block of the next execution (-1: exited)
        uint32_t prevAddr[2] = {0, 0};  ///< [global, shared] delta chains
        uint32_t numExecs = 0;
        uint32_t numAccesses = 0;
    };

    /** Open a chunk on @p s with room for at least @p need bytes. */
    void grow(Stream &s, size_t need);

    const Kernel &kernel_;
    KernelShape shape_;
    std::vector<Thread> threads_;
    std::vector<std::unique_ptr<uint8_t[]>> slabs_;
    uint8_t *slabPos_ = nullptr;  ///< unused part of the newest slab
    uint8_t *slabEnd_ = nullptr;
};

} // namespace vgiw

#endif // VGIW_INTERP_TRACE_HH
