/**
 * @file
 * Basic blocks, terminators and kernels of the VGIW IR.
 *
 * Blocks are numbered by the compiler in reverse post-order: the entry
 * block holds the reserved ID 0 and a loop back-edge always targets a
 * smaller block ID (Section 3.1). This property is what lets the hardware
 * Basic Block Scheduler be a trivial "smallest non-empty vector" priority
 * selector.
 */

#ifndef VGIW_IR_KERNEL_HH
#define VGIW_IR_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/instr.hh"

namespace vgiw
{

/** A live value written by this block, addressed by live-value ID. */
struct LiveOut
{
    uint16_t lvid = 0;
    Operand value{};
};

/** How a block ends. */
enum class TermKind : uint8_t
{
    Jump,    ///< unconditional jump to target[0]
    Branch,  ///< cond ? target[0] : target[1]
    Exit,    ///< thread retires
};

/** Block terminator, executed by the terminator CVU. */
struct Terminator
{
    TermKind kind = TermKind::Exit;
    Operand cond{};           ///< Branch only
    int target[2] = {-1, -1};
    /**
     * CTA-level barrier: threads wait at this block's end until every
     * thread of their CTA has arrived, then proceed to the successor.
     * (Extension over the paper, needed by the shared-memory Rodinia
     * kernels; block-vector draining gives VGIW these semantics almost
     * for free — see DESIGN.md §9.)
     */
    bool barrier = false;

    int
    numTargets() const
    {
        switch (kind) {
          case TermKind::Jump: return 1;
          case TermKind::Branch: return 2;
          case TermKind::Exit: return 0;
        }
        return 0;
    }
};

/** A basic block: a straight-line dataflow graph plus a terminator. */
struct BasicBlock
{
    std::string name;
    std::vector<Instr> instrs;     ///< in topological (program) order
    std::vector<LiveOut> liveOuts;
    Terminator term;

    /** Count of distinct live-value IDs read by this block. */
    int numLiveInReads() const;

    /** Static memory operation count. */
    int numMemOps() const;
};

/** A compiled kernel: blocks indexed by block ID, entry at ID 0. */
struct Kernel
{
    /** Most blocks a kernel may have: traces hold a successor as a
     * signed 16-bit id, -1 meaning exit, so the last id is 32,767. */
    static constexpr int kMaxBlocks = 32768;

    std::string name;
    std::vector<BasicBlock> blocks;
    int numParams = 0;
    int numLiveValues = 0;  ///< live-value IDs are in [0, numLiveValues)
    int sharedBytesPerCta = 0;

    int numBlocks() const { return int(blocks.size()); }

    /** Total static instruction count over all blocks. */
    int totalInstrs() const;

    /** Whether any block ends in a CTA-level barrier. */
    bool hasBarrier() const;
};

/** Parameters of one kernel launch. */
struct LaunchParams
{
    int numCtas = 1;
    int ctaSize = 32;
    std::vector<Scalar> params;

    int numThreads() const { return numCtas * ctaSize; }
};

} // namespace vgiw

#endif // VGIW_IR_KERNEL_HH
