#include "vgiw/thread_batch.hh"

namespace vgiw
{

std::vector<ThreadBatch>
packBatches(const std::vector<uint32_t> &tids)
{
    std::vector<ThreadBatch> out;
    packBatchesInto(tids, out);
    return out;
}

void
packBatchesInto(const std::vector<uint32_t> &tids,
                std::vector<ThreadBatch> &out)
{
    out.clear();
    // Ascending IDs: each run sharing a 64-aligned window is one packet.
    size_t i = 0;
    while (i < tids.size()) {
        const uint32_t base = tids[i] & ~63u;
        uint64_t bitmap = 0;
        do {
            bitmap |= uint64_t{1} << (tids[i] & 63u);
            ++i;
        } while (i < tids.size() && (tids[i] & ~63u) == base);
        out.push_back(ThreadBatch{base, bitmap});
    }
}

} // namespace vgiw
