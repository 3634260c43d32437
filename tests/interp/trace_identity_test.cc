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
        {"BFS/Kernel", 0x3061c8ec116104afull},
        {"BFS/Kernel2", 0xfaf1d1de9237a666ull},
        {"KMEANS/invert_mapping", 0xb9bcf2e1ad4c1a86ull},
        {"CFD/compute_step_factor", 0x9f97faae749e770dull},
        {"CFD/initialize_variables", 0x32b0903798f99d85ull},
        {"CFD/time_step", 0x80bead3131fc59f4ull},
        {"CFD/compute_flux", 0x575bb89ecf87e757ull},
        {"LUD/lud_internal", 0xa12053cea5f01654ull},
        {"LUD/lud_diagonal", 0x00290519f9c3024dull},
        {"LUD/lud_perimeter", 0x694136eb9d06aa5bull},
        {"GE/Fan1", 0xb1a400026d6e799eull},
        {"GE/Fan2", 0x83a6dd8b30e994a2ull},
        {"HOTSPOT/hotspot_kernel", 0x0143ba4a4751a820ull},
        {"LAVAMD/kernel_gpu_cuda", 0x7ed742d95833ccb6ull},
        {"NN/euclid", 0x54a4acda5908e549ull},
        {"PF/normalize_weights", 0xb9058a80c4332376ull},
        {"BPNN/adjust_weights", 0x4265c77010ddfaa2ull},
        {"BPNN/layerforward", 0x56abc535d2658fe1ull},
        {"NW/needle_cuda_shared_1", 0xf3e595bbb141cc8cull},
        {"NW/needle_cuda_shared_2", 0xe99448fea881cba8ull},
        {"SM/compute_cost", 0x3d2443f21678e1aeull},
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
    EXPECT_EQ(compressed, 13150476u);
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
