/**
 * @file
 * Pins the serialized trace of every registry workload. Artifact stores
 * address published trace blobs by the workload, not by the bytes, so a
 * change to the encoder or to the interpreter's access order that moved
 * a single byte would leave stores full of blobs that no longer match
 * what a cold run produces. The hashes below are FNV-1a of
 * TraceSet::serializeInto for a fresh trace of each workload.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "driver/artifact_store.hh"
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

} // namespace
} // namespace vgiw
