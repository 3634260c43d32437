/**
 * @file
 * Pins the serialized trace of every registry workload. Artifact stores
 * address published trace blobs by the workload, not by the bytes, so a
 * change to the encoder or to the interpreter's access order that moved
 * a single byte would leave stores full of blobs that no longer match
 * what a cold run produces. The hashes below are FNV-1a of
 * TraceSet::serializeInto for a fresh trace of each workload.
 *
 * A second table pins what the replay models read: FNV-1a over every
 * thread's cursor-decoded execs and accesses, taken from the trace
 * cache's traces, so a change to the decoder or to how the cache
 * prepares traces for replay shows even when the serialized bytes do
 * not move.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "driver/artifact_store.hh"
#include "driver/trace_cache.hh"
#include "interp/interpreter.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

TEST(TraceIdentity, RegistryTracesMatchParent)
{
    const std::map<std::string, uint64_t> want = {
        {"BFS/Kernel", 0x1f79ee3e4e17e211ull},
        {"BFS/Kernel2", 0x03fb453249e87a09ull},
        {"KMEANS/invert_mapping", 0xe92eaaba867fbbbeull},
        {"CFD/compute_step_factor", 0xc68e91fe36d2345aull},
        {"CFD/initialize_variables", 0x865acbfd7cab6759ull},
        {"CFD/time_step", 0x7db647858fe31b18ull},
        {"CFD/compute_flux", 0x38c1a79a7411a4aeull},
        {"LUD/lud_internal", 0xc8d17e849e266d30ull},
        {"LUD/lud_diagonal", 0x7668c7e7deefe12bull},
        {"LUD/lud_perimeter", 0x5f22e8c017d1c022ull},
        {"GE/Fan1", 0xa68f67031d9522a0ull},
        {"GE/Fan2", 0xe6a5abe76eeb8ce8ull},
        {"HOTSPOT/hotspot_kernel", 0x2fef1dd1aae5a892ull},
        {"LAVAMD/kernel_gpu_cuda", 0xdbd5cdd61409af9dull},
        {"NN/euclid", 0xbdd54dcec511c0f1ull},
        {"PF/normalize_weights", 0xbbc365e93083c2ccull},
        {"BPNN/adjust_weights", 0xfffc5ccc4266756aull},
        {"BPNN/layerforward", 0x0360b875f63bd38eull},
        {"NW/needle_cuda_shared_1", 0xebe2eba815e57078ull},
        {"NW/needle_cuda_shared_2", 0xb2a4fb37270d0c83ull},
        {"SM/compute_cost", 0x1ccb8c08658e4d58ull},
    };

    ASSERT_EQ(workloadRegistry().size(), want.size());
    uint64_t compressed = 0;
    std::string blob;
    for (const auto &entry : workloadRegistry()) {
        WorkloadInstance w = entry.make();
        const TraceSet ts = Interpreter{}.run(w.kernel, w.launch, w.memory);
        blob.clear();
        ts.serializeInto(blob);
        compressed += ts.compressedBytes();
        const auto it = want.find(entry.name);
        ASSERT_NE(it, want.end()) << "unpinned workload " << entry.name;
        EXPECT_EQ(fnv1a(blob), it->second) << entry.name;
    }
    // The perfbench ledger reports this sum as interp.trace_bytes.
    EXPECT_EQ(compressed, 8011152u);
}

/** FNV-1a over every thread's decoded (block, succ, numAccesses)
 * execs, each followed by its (addr, isStore, isShared) accesses. */
uint64_t
decodedStreamHash(const TraceSet &ts)
{
    uint64_t h = fnv1a({});
    for (uint32_t tid = 0; tid < ts.numThreads(); ++tid) {
        for (ThreadCursor c = ts.thread(tid); !c.done(); c.nextExec()) {
            const int32_t exec[3] = {c.block(), c.succ(),
                                     int32_t(c.numAccesses())};
            h = fnv1aBytes(exec, sizeof exec, h);
            for (uint32_t k = c.numAccesses(); k; --k) {
                const MemAccess a = c.nextAccess();
                const uint32_t acc[2] = {
                    a.addr, uint32_t(a.isStore) | uint32_t(a.isShared) << 1};
                h = fnv1aBytes(acc, sizeof acc, h);
            }
        }
    }
    return h;
}

TEST(TraceIdentity, RegistryAccessesDecodeToParent)
{
    const std::map<std::string, uint64_t> want = {
        {"BFS/Kernel", 0xfbccc2ec27feff76ull},
        {"BFS/Kernel2", 0x1e53ba8b73c9188dull},
        {"KMEANS/invert_mapping", 0x64b9e0856a57ce85ull},
        {"CFD/compute_step_factor", 0xa700d2df7286a2a5ull},
        {"CFD/initialize_variables", 0xb9c72f92a39d5625ull},
        {"CFD/time_step", 0x49db9f5968326e25ull},
        {"CFD/compute_flux", 0x2b2d274827e37620ull},
        {"LUD/lud_internal", 0xa662110201378225ull},
        {"LUD/lud_diagonal", 0xebc20a3017cbab25ull},
        {"LUD/lud_perimeter", 0x45f6ecef51e86d65ull},
        {"GE/Fan1", 0x91c72d1be61bb915ull},
        {"GE/Fan2", 0x47723163e1daaa5bull},
        {"HOTSPOT/hotspot_kernel", 0x27350f4318c88921ull},
        {"LAVAMD/kernel_gpu_cuda", 0x62dfdf5822b52da5ull},
        {"NN/euclid", 0xd29fe21eb9a36f25ull},
        {"PF/normalize_weights", 0x1a1e446214d7a4faull},
        {"BPNN/adjust_weights", 0xa6ca4d7c554fa325ull},
        {"BPNN/layerforward", 0xa4bb5aa779eae4e5ull},
        {"NW/needle_cuda_shared_1", 0x6653082f26b96c01ull},
        {"NW/needle_cuda_shared_2", 0x85018924d31594adull},
        {"SM/compute_cost", 0x0ca2c3390fef5971ull},
    };

    ASSERT_EQ(workloadRegistry().size(), want.size());
    TraceCache cache;
    for (const auto &entry : workloadRegistry()) {
        const TraceResult r = cache.get(entry);
        ASSERT_TRUE(r.ok()) << entry.name << ": " << r.error;
        const auto it = want.find(entry.name);
        ASSERT_NE(it, want.end()) << "unpinned workload " << entry.name;
        EXPECT_EQ(decodedStreamHash(*r.traces), it->second) << entry.name;
    }
}

} // namespace
} // namespace vgiw
