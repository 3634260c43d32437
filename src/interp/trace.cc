#include "interp/trace.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>


namespace vgiw
{

namespace
{

// The most bytes one TraceWriter::block() call writes. Its tuple closes
// at most two exec tokens, and the largest token is a literal: varints
// of a 16-bit block delta, a 16-bit successor delta and a 32-bit access
// count (3 + 3 + 5 bytes). An access is one varint of a zigzagged
// 33-bit delta shifted left by 2 (5 bytes).
constexpr size_t kExecRoom = 2 * 11;
constexpr size_t kAccessBytes = 5;

// A thread's first chunk of each stream holds this many payload bytes,
// and each next one twice the last, up to kMaxChunk (or more when one
// block's accesses need it). Chunks are carved from kSlabBytes slabs.
constexpr uint32_t kFirstChunk = 32;
constexpr uint32_t kMaxChunk = 4096;
constexpr size_t kSlabBytes = size_t(64) << 10;

} // namespace

TraceWriter::TraceWriter(size_t num_threads) : threads_(num_threads) {}

void
TraceWriter::block(uint32_t tid, int block, int succ, const uint32_t *addrs,
                   size_t stride, const uint8_t *kinds, uint32_t m)
{
    Thread &t = threads_[tid];
    const size_t access_room = size_t(m) * kAccessBytes;
    if (size_t(t.exec.end - t.exec.pos) < kExecRoom) [[unlikely]]
        grow(t.exec, kExecRoom);
    if (size_t(t.access.end - t.access.pos) < access_room) [[unlikely]]
        grow(t.access, access_room);

    uint8_t *p = t.access.pos;
    for (uint32_t i = 0; i < m; ++i) {
        const uint32_t addr = addrs[i * stride];
        uint32_t &prev = t.prevAddr[kinds[i] >> 1];
        p = varint::put(p, varint::zigzag(int64_t(addr) - int64_t(prev))
                                   << 2 |
                               kinds[i]);
        prev = addr;
    }
    t.access.pos = p;
    t.numAccesses += m;

    const uint32_t j = t.seen++;
    t.ring[j & 7] = Tup{uint16_t(block), int16_t(succ), m};
    scan(t, j);
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

void
TraceWriter::scan(Thread &t, uint32_t j)
{
    while (true) {
        if (j == t.start)  // j opens a token: distances 1..min(4, j)
            t.alive = uint8_t((1u << std::min(j, 4u)) - 1);
        uint8_t still = 0;
        for (uint32_t d = 1; d <= 4; ++d) {
            if ((t.alive >> (d - 1) & 1) &&
                t.ring[j & 7] == t.ring[(j - d) & 7])
                still |= uint8_t(1u << (d - 1));
        }
        if (still) {
            t.alive = still;
            return;
        }
        // Every candidate run broke at j: close the token before it.
        const uint32_t len = j - t.start;
        if (len >= 2) {
            emitRun(t, len);
            t.start = j;
        } else {
            emitLiteral(t, t.start);
            if (++t.start > j)
                return;
        }
    }
}

void
TraceWriter::emitRun(Thread &t, uint32_t len)
{
    // Every surviving candidate has this length: ties go to the
    // shortest distance, whose token is smallest.
    const uint32_t dist = uint32_t(std::countr_zero(t.alive)) + 1;
    t.exec.pos = varint::put(t.exec.pos,
                             (uint64_t(len) << 2 | (dist - 1)) << 1 | 1);
}

void
TraceWriter::emitLiteral(Thread &t, uint32_t j)
{
    const Tup &c = t.ring[j & 7];
    const int32_t prev_block = j ? int32_t(t.ring[(j - 1) & 7].block) : 0;
    uint8_t *p = t.exec.pos;
    p = varint::put(p, varint::zigzag(int64_t(c.block) - prev_block) << 1);
    p = varint::put(p, varint::zigzag(int64_t(c.succ) - int64_t(c.block)));
    t.exec.pos = varint::put(p, c.nacc);
}

TraceSet
TraceWriter::finish(const Kernel *kernel, const LaunchParams &launch)
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

    TraceSet ts;
    ts.kernel = kernel;
    ts.launch = launch;
    ts.index_.resize(threads_.size());
    uint64_t exec_len = 0, access_len = 0;
    for (Thread &t : threads_) {
        // The open token's candidates all match to the end: a run of
        // the remaining tuples, or a literal if only one remains.
        const uint32_t len = t.seen - t.start;
        if (len && size_t(t.exec.end - t.exec.pos) < kExecRoom)
            grow(t.exec, kExecRoom);
        if (len >= 2)
            emitRun(t, len);
        else if (len == 1)
            emitLiteral(t, t.start);
        exec_len += seal(t.exec);
        access_len += seal(t.access);
    }
    ts.execBytes_.reserve(exec_len);
    ts.accessBytes_.reserve(access_len);
    for (size_t tid = 0; tid < threads_.size(); ++tid) {
        const Thread &t = threads_[tid];
        TraceSet::ThreadIndex &ix = ts.index_[tid];
        ix.execOff = ts.execBytes_.size();
        ix.accessOff = ts.accessBytes_.size();
        ix.numExecs = t.seen;
        ix.numAccesses = t.numAccesses;
        append(t.exec, ts.execBytes_);
        append(t.access, ts.accessBytes_);
        ts.totalExecs_ += t.seen;
        ts.totalAccesses_ += t.numAccesses;
    }
    threads_.clear();
    slabs_.clear();
    return ts;
}

TraceSet
TraceSet::fromThreads(const Kernel *kernel, const LaunchParams &launch,
                      const std::vector<ThreadTrace> &threads)
{
    TraceWriter w(threads.size());
    std::vector<uint32_t> addrs;
    std::vector<uint8_t> kinds;
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        const ThreadTrace &t = threads[tid];
        for (const BlockExec &e : t.execs) {
            addrs.clear();
            kinds.clear();
            for (uint32_t k = e.accessBegin; k < e.accessEnd; ++k) {
                const MemAccess &a = t.accesses[k];
                addrs.push_back(a.addr);
                kinds.push_back(uint8_t(a.isShared << 1 | a.isStore));
            }
            w.block(uint32_t(tid), e.block, e.succ, addrs.data(), 1,
                    kinds.data(), uint32_t(addrs.size()));
        }
    }
    return w.finish(kernel, launch);
}

ThreadTrace
TraceSet::decodeThread(uint32_t tid) const
{
    ThreadTrace out;
    const ThreadIndex &ix = idx(tid);
    out.execs.reserve(ix.numExecs);
    out.accesses.reserve(ix.numAccesses);
    ThreadCursor c = thread(tid);
    uint32_t cum = 0;
    while (!c.done()) {
        BlockExec e;
        e.block = uint16_t(c.block());
        e.succ = int16_t(c.succ());
        e.accessBegin = cum;
        cum += c.numAccesses();
        e.accessEnd = cum;
        for (uint32_t k = 0; k < e.accessEnd - e.accessBegin; ++k)
            out.accesses.push_back(c.nextAccess());
        out.execs.push_back(e);
        c.nextExec();
    }
    return out;
}

uint64_t
TraceSet::blockExecCount(int b) const
{
    // Walks the exec streams only: the two streams are independent, so
    // counting block executions never has to decode a single access.
    uint64_t n = 0;
    for (size_t tid = 0; tid < numThreads(); ++tid) {
        const ThreadIndex &ix = idx(tid);
        ThreadCursor c(execData() + ix.execOff, nullptr, ix.numExecs);
        while (!c.done()) {
            if (c.block() == b)
                ++n;
            c.accLeft_ = 0;  // exec-only walk: never touch the
            c.nextExec();    // (null) access stream
        }
    }
    return n;
}

// --- Persistence -----------------------------------------------------
//
// Wire layout (all little-endian, validated field by field):
//
//   u64 numThreads | u64 execLen | u64 accessLen
//   u64 totalExecs | u64 totalAccesses
//   ThreadIndex[numThreads]          (24 bytes each, offsets monotone)
//   uint8_t execBytes[execLen]
//   uint8_t accessBytes[accessLen]
//
// The 40-byte header and the 24-byte index entries keep the index
// 8-aligned when the payload itself is (artifact-store blobs are), so
// deserialize() reads the index in place from the mapping.

void
TraceSet::serializeInto(std::string &out) const
{
    const uint64_t hdr[5] = {numThreads(), execLen(), accessLen(),
                             totalExecs_, totalAccesses_};
    out.append(reinterpret_cast<const char *>(hdr), sizeof hdr);
    const ThreadIndex *ix = extIndex_ ? extIndex_ : index_.data();
    out.append(reinterpret_cast<const char *>(ix),
               numThreads() * sizeof(ThreadIndex));
    out.append(reinterpret_cast<const char *>(execData()), execLen());
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
    // buffer a clean miss instead of an out-of-bounds decode.
    if (len < 5 * sizeof(uint64_t) ||
        (reinterpret_cast<uintptr_t>(data) & 7) != 0)
        return false;
    uint64_t hdr[5];
    std::memcpy(hdr, data, sizeof hdr);
    const uint64_t n = hdr[0], exec_len = hdr[1], acc_len = hdr[2];
    if (exec_len > len || acc_len > len ||
        n > (len - sizeof hdr) / sizeof(ThreadIndex))
        return false;
    if (sizeof hdr + n * sizeof(ThreadIndex) + exec_len + acc_len !=
        len)
        return false;

    const auto *ix =
        reinterpret_cast<const ThreadIndex *>(data + sizeof hdr);
    uint64_t sum_execs = 0, sum_accs = 0;
    for (uint64_t i = 0; i < n; ++i) {
        if (ix[i].execOff > exec_len || ix[i].accessOff > acc_len)
            return false;
        if (i && (ix[i].execOff < ix[i - 1].execOff ||
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
    ts.extExec_ = data + sizeof hdr + n * sizeof(ThreadIndex);
    ts.extAccess_ = ts.extExec_ + exec_len;
    ts.extThreads_ = n;
    ts.extExecLen_ = exec_len;
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
