#include "interp/trace.hh"

#include <algorithm>
#include <cstring>
#include <new>


namespace vgiw
{

namespace
{

// An access is one varint of a zigzagged 33-bit delta (5 bytes); a
// thread's outcome bits go into its branch stream 64 at a time.
constexpr size_t kAccessBytes = 5;
constexpr size_t kBitWordBytes = 8;

// A thread's first chunk of each stream holds this many payload bytes,
// and each next one twice the last, up to kMaxChunk (or more when one
// block's accesses need it). Chunks are carved from kSlabBytes slabs.
constexpr uint32_t kFirstChunk = 32;
constexpr uint32_t kMaxChunk = 4096;
constexpr size_t kSlabBytes = size_t(64) << 10;

} // namespace

KernelShape::KernelShape(const Kernel &k)
{
    blocks.resize(k.blocks.size());
    size_t num_kinds = 0;
    for (const BasicBlock &blk : k.blocks)
        num_kinds += size_t(blk.numMemOps());
    kinds.reserve(num_kinds);
    for (size_t b = 0; b < k.blocks.size(); ++b) {
        const BasicBlock &blk = k.blocks[b];
        BlockShape &s = blocks[b];
        switch (blk.term.kind) {
          case TermKind::Jump:
            s.next[0] = s.next[1] = blk.term.target[0];
            break;
          case TermKind::Branch:
            s.next[0] = blk.term.target[1];
            s.next[1] = blk.term.target[0];
            break;
          case TermKind::Exit:
            break;
        }
        s.firstKind = uint32_t(kinds.size());
        for (const Instr &in : blk.instrs) {
            if (in.isMemory()) {
                kinds.push_back(uint8_t((in.space == MemSpace::Shared) << 1 |
                                        (in.op == Opcode::Store)));
            }
        }
        s.numAccesses = uint32_t(kinds.size()) - s.firstKind;
    }
}

TraceWriter::TraceWriter(const Kernel &kernel, size_t num_threads)
    : kernel_(kernel), shape_(kernel), threads_(num_threads)
{
}

void
TraceWriter::block(uint32_t tid, int block, int succ, const uint32_t *addrs,
                   size_t stride, uint32_t m)
{
    Thread &t = threads_[tid];
    vgiw_assert(block == t.next && block >= 0, "thread ", tid, " ran block ",
                block, " where its last execution went to ", t.next);
    const BlockShape &s = shape_.blocks[size_t(block)];
    vgiw_assert(m == s.numAccesses, "block ", block, " issued ", m,
                " accesses for its ", s.numAccesses,
                " memory instructions");
    const bool bit = succ == s.next[1];
    vgiw_assert(succ == s.next[bit], "block ", block, " cannot go on to ",
                succ);
    t.next = succ;
    ++t.numExecs;

    if (s.next[0] != s.next[1]) {
        t.bits |= uint64_t(bit) << (t.numBits & 63);
        if ((++t.numBits & 63) == 0) {
            if (size_t(t.branch.end - t.branch.pos) < kBitWordBytes)
                [[unlikely]] grow(t.branch, kBitWordBytes);
            for (size_t k = 0; k < kBitWordBytes; ++k)
                t.branch.pos[k] = uint8_t(t.bits >> (8 * k));
            t.branch.pos += kBitWordBytes;
            t.bits = 0;
        }
    }

    const size_t access_room = size_t(m) * kAccessBytes;
    if (size_t(t.access.end - t.access.pos) < access_room) [[unlikely]]
        grow(t.access, access_room);
    const uint8_t *const kinds = shape_.kinds.data() + s.firstKind;
    uint8_t *p = t.access.pos;
    for (uint32_t i = 0; i < m; ++i) {
        const uint32_t addr = addrs[i * stride];
        uint32_t &prev = t.prevAddr[kinds[i] >> 1];
        p = varint::put(p, varint::zigzag(int64_t(addr) - int64_t(prev)));
        prev = addr;
    }
    t.access.pos = p;
    t.numAccesses += m;
}

void
TraceWriter::grow(Stream &s, size_t need)
{
    const uint32_t next =
        s.tail ? std::min(2 * s.tail->cap, kMaxChunk) : kFirstChunk;
    const size_t cap = std::max(size_t(next), (need + 7) & ~size_t(7));
    const size_t bytes = sizeof(Chunk) + cap;
    if (size_t(slabEnd_ - slabPos_) < bytes) {
        const size_t n = std::max(bytes, kSlabBytes);
        slabs_.push_back(std::make_unique_for_overwrite<uint8_t[]>(n));
        slabPos_ = slabs_.back().get();
        slabEnd_ = slabPos_ + n;
    }
    Chunk *const c = new (slabPos_) Chunk{nullptr, uint32_t(cap), 0};
    slabPos_ += bytes;
    if (s.tail) {
        s.tail->used = uint32_t(s.pos - s.tail->payload());
        s.tail->next = c;
    } else {
        s.head = c;
    }
    s.tail = c;
    s.pos = c->payload();
    s.end = s.pos + cap;
}

TraceSet
TraceWriter::finish(const LaunchParams &launch)
{
    // Seals @p s (the open chunk's length goes into its header) and
    // returns how many bytes its chain holds.
    auto seal = [](Stream &s) {
        uint64_t n = 0;
        if (s.tail)
            s.tail->used = uint32_t(s.pos - s.tail->payload());
        for (const Chunk *c = s.head; c; c = c->next)
            n += c->used;
        return n;
    };
    auto append = [](const Stream &s, std::vector<uint8_t> &out) {
        for (Chunk *c = s.head; c; c = c->next)
            out.insert(out.end(), c->payload(), c->payload() + c->used);
    };
    // Bytes of the outcome bits still in a thread's word.
    auto tail_bytes = [](const Thread &t) { return (t.numBits % 64 + 7) / 8; };

    TraceSet ts;
    ts.kernel = &kernel_;
    ts.launch = launch;
    ts.index_.resize(threads_.size());
    uint64_t branch_len = 0, access_len = 0;
    for (Thread &t : threads_) {
        vgiw_assert(t.next < 0 || t.numExecs == 0, "a thread's trace ends "
                    "at block ", t.next, " before it exits");
        branch_len += seal(t.branch) + tail_bytes(t);
        access_len += seal(t.access);
    }
    ts.branchBytes_.reserve(branch_len);
    ts.accessBytes_.reserve(access_len);
    for (size_t tid = 0; tid < threads_.size(); ++tid) {
        const Thread &t = threads_[tid];
        TraceSet::ThreadIndex &ix = ts.index_[tid];
        ix.branchOff = ts.branchBytes_.size();
        ix.accessOff = ts.accessBytes_.size();
        ix.numExecs = t.numExecs;
        ix.numAccesses = t.numAccesses;
        append(t.branch, ts.branchBytes_);
        for (uint32_t k = 0; k < tail_bytes(t); ++k)
            ts.branchBytes_.push_back(uint8_t(t.bits >> (8 * k)));
        append(t.access, ts.accessBytes_);
        ts.totalExecs_ += t.numExecs;
        ts.totalAccesses_ += t.numAccesses;
    }
    ts.shape_ = std::move(shape_);
    threads_.clear();
    slabs_.clear();
    return ts;
}

TraceSet
TraceSet::fromThreads(const Kernel &kernel, const LaunchParams &launch,
                      const std::vector<ThreadTrace> &threads)
{
    TraceWriter w(kernel, threads.size());
    const KernelShape &shape = w.shape_;
    std::vector<uint32_t> addrs;
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        const ThreadTrace &t = threads[tid];
        for (const BlockExec &e : t.execs) {
            addrs.clear();
            for (uint32_t k = e.accessBegin; k < e.accessEnd; ++k)
                addrs.push_back(t.accesses[k].addr);
            w.block(uint32_t(tid), e.block, e.succ, addrs.data(), 1,
                    uint32_t(addrs.size()));
            const uint8_t *kind =
                shape.kinds.data() + shape.blocks[e.block].firstKind;
            for (uint32_t k = e.accessBegin; k < e.accessEnd; ++k, ++kind) {
                const MemAccess &a = t.accesses[k];
                vgiw_assert(*kind == (a.isShared << 1 | a.isStore),
                            "block ", e.block, " access ", k - e.accessBegin,
                            " is not of its instruction's kind");
            }
        }
    }
    return w.finish(launch);
}

ThreadTrace
TraceSet::decodeThread(uint32_t tid) const
{
    ThreadTrace out;
    const ThreadIndex &ix = idx(tid);
    out.execs.reserve(ix.numExecs);
    out.accesses.reserve(ix.numAccesses);
    uint32_t cum = 0, i = 0;
    ThreadCursor c = thread(tid);
    for (; i < ix.numExecs && !c.done(); ++i, c.nextExec()) {
        BlockExec e;
        e.block = uint16_t(c.block());
        e.succ = int16_t(c.succ());
        e.accessBegin = cum;
        cum += c.numAccesses();
        e.accessEnd = cum;
        for (uint32_t k = e.accessBegin; k < e.accessEnd; ++k)
            out.accesses.push_back(c.nextAccess());
        out.execs.push_back(e);
    }
    vgiw_assert(i == ix.numExecs && c.done() && cum == ix.numAccesses,
                "thread ", tid, "'s streams disagree with its index");
    return out;
}

uint64_t
TraceSet::blockExecCount(int b) const
{
    // Walks the branch streams only: a cursor told it has no access
    // left never decodes one.
    uint64_t n = 0;
    for (uint32_t tid = 0; tid < numThreads(); ++tid) {
        const uint32_t execs = idx(tid).numExecs;
        uint32_t i = 0;
        ThreadCursor c = thread(tid);
        for (; i < execs && !c.done(); ++i, c.nextExec()) {
            n += c.block() == b;
            c.accLeft_ = 0;
        }
        vgiw_assert(i == execs && c.done(), "thread ", tid,
                    "'s streams disagree with its index");
    }
    return n;
}

// --- Persistence -----------------------------------------------------
//
// Wire layout (all little-endian, validated field by field):
//
//   u64 numThreads | u64 branchLen | u64 accessLen
//   u64 totalExecs | u64 totalAccesses
//   ThreadIndex[numThreads]          (24 bytes each, offsets monotone)
//   uint8_t branchBytes[branchLen]
//   uint8_t accessBytes[accessLen]
//
// The 40-byte header and the 24-byte index entries keep the index
// 8-aligned when the payload itself is (artifact-store blobs are), so
// deserialize() reads the index in place from the mapping. The kernel's
// shape is not stored: deserialize() rebuilds it from the kernel.

void
TraceSet::serializeInto(std::string &out) const
{
    const uint64_t hdr[5] = {numThreads(), branchLen(), accessLen(),
                             totalExecs_, totalAccesses_};
    out.append(reinterpret_cast<const char *>(hdr), sizeof hdr);
    const ThreadIndex *ix = extIndex_ ? extIndex_ : index_.data();
    out.append(reinterpret_cast<const char *>(ix),
               numThreads() * sizeof(ThreadIndex));
    out.append(reinterpret_cast<const char *>(branchData()), branchLen());
    out.append(reinterpret_cast<const char *>(accessData()),
               accessLen());
}

bool
TraceSet::deserialize(const uint8_t *data, size_t len,
                      std::shared_ptr<const void> backing,
                      const Kernel *kernel, const LaunchParams &launch,
                      TraceSet &out)
{
    // The store's payload checksum already guarantees integrity; these
    // structural checks make a corrupt-but-checksummed (or truncated)
    // header or index a clean miss instead of an out-of-bounds decode.
    // The streams are not walked here: a blob whose streams disagree
    // with its index's counts is kept out by the checksum alone, and
    // decodeThread() and blockExecCount() panic on one.
    if (len < 5 * sizeof(uint64_t) ||
        (reinterpret_cast<uintptr_t>(data) & 7) != 0)
        return false;
    uint64_t hdr[5];
    std::memcpy(hdr, data, sizeof hdr);
    const uint64_t n = hdr[0], branch_len = hdr[1], acc_len = hdr[2];
    if (branch_len > len || acc_len > len ||
        n > (len - sizeof hdr) / sizeof(ThreadIndex))
        return false;
    if (sizeof hdr + n * sizeof(ThreadIndex) + branch_len + acc_len !=
        len)
        return false;

    const auto *ix =
        reinterpret_cast<const ThreadIndex *>(data + sizeof hdr);
    uint64_t sum_execs = 0, sum_accs = 0;
    for (uint64_t i = 0; i < n; ++i) {
        if (ix[i].branchOff > branch_len || ix[i].accessOff > acc_len)
            return false;
        if (i && (ix[i].branchOff < ix[i - 1].branchOff ||
                  ix[i].accessOff < ix[i - 1].accessOff))
            return false;
        sum_execs += ix[i].numExecs;
        sum_accs += ix[i].numAccesses;
    }
    if (sum_execs != hdr[3] || sum_accs != hdr[4])
        return false;

    TraceSet ts;
    ts.kernel = kernel;
    ts.launch = launch;
    ts.extIndex_ = ix;
    ts.shape_ = KernelShape(*kernel);
    ts.extBranch_ = data + sizeof hdr + n * sizeof(ThreadIndex);
    ts.extAccess_ = ts.extBranch_ + branch_len;
    ts.extThreads_ = n;
    ts.extBranchLen_ = branch_len;
    ts.extAccessLen_ = acc_len;
    ts.backing_ = std::move(backing);
    ts.totalExecs_ = hdr[3];
    ts.totalAccesses_ = hdr[4];
    ts.storeBacked = true;
    ts.mappedBytes = len;
    out = std::move(ts);
    return true;
}

} // namespace vgiw
