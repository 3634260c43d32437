/**
 * @file
 * Functional executor for VGIW kernels.
 *
 * Execution follows the abstract VGIW machine of Section 2: every thread
 * starts pending on block 0; the machine repeatedly picks the smallest
 * block ID with pending threads and executes the block for all of them,
 * each completing thread registering itself on its successor block. This
 * is simultaneously the functional reference for correctness tests and the
 * producer of the dynamic traces all timing models replay.
 *
 * A drained block vector runs instruction-major, in strips of 256 lanes
 * (threads in ascending tid order): each instruction is evaluated for
 * every lane of the strip before the next one starts. Loads and stores
 * issue lane by lane in tid order; then the live-outs are written in
 * list order, the branch condition is read, and each lane's terminator
 * runs and hands its execution, with its accesses, to the trace writer,
 * again in tid order.
 *
 * Ordering rule. Each thread's own order of operations is the program
 * order, so every per-thread trace stream is what a thread-at-a-time
 * run would record. Memory operations of different threads in one
 * block vector interleave instruction by instruction within a strip,
 * and strip after strip. Only an intra-block data race between threads
 * (undefined on a GPU) can tell the two orders apart; it is not worked
 * around, and InterpVector.IntraBlockRaceResolvesInstructionMajor pins
 * the result. No registry kernel has such a race: the TraceIdentity
 * tables and the suite golden pin their traces and results.
 */

#ifndef VGIW_INTERP_INTERPRETER_HH
#define VGIW_INTERP_INTERPRETER_HH

#include <cstdint>
#include <vector>

#include "interp/memory_image.hh"
#include "interp/trace.hh"
#include "ir/kernel.hh"

namespace vgiw
{

/** Options controlling functional execution. */
struct InterpOptions
{
    /** Abort if a single launch exceeds this many dynamic block execs. */
    uint64_t maxBlockExecs = 64ull << 20;
};

/** Functional executor / abstract VGIW machine. */
class Interpreter
{
  public:
    explicit Interpreter(InterpOptions opts = {}) : opts_(opts) {}

    /**
     * Execute @p kernel with @p launch against @p mem (updated in place).
     * Returns the compressed per-thread traces, encoded as the threads
     * run.
     */
    TraceSet run(const Kernel &kernel, const LaunchParams &launch,
                 MemoryImage &mem) const;

  private:
    InterpOptions opts_;
};

} // namespace vgiw

#endif // VGIW_INTERP_INTERPRETER_HH
