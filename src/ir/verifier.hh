/**
 * @file
 * Structural and dataflow validation of a finished kernel.
 */

#ifndef VGIW_IR_VERIFIER_HH
#define VGIW_IR_VERIFIER_HH

#include "ir/kernel.hh"

namespace vgiw
{

/**
 * Validate @p kernel, calling vgiw_fatal() with a diagnostic on the first
 * violation found. Checks performed:
 *
 *  - the entry block exists, there are at most Kernel::kMaxBlocks
 *    blocks, and branch targets are in range;
 *  - block numbering is a valid reverse post-order (every forward edge
 *    goes to a larger ID; back edges, and only back edges, go to smaller
 *    or equal IDs that dominate a loop);
 *  - Local operands reference strictly earlier instructions in the block;
 *  - operand slots match each opcode's arity and stores carry a value;
 *  - every LiveIn read is preceded, on all paths from the entry, by a
 *    block that wrote the same live-value ID (no read-before-write);
 *  - live-value IDs are within the kernel's declared range.
 */
void verifyKernel(const Kernel &kernel);

} // namespace vgiw

#endif // VGIW_IR_VERIFIER_HH
