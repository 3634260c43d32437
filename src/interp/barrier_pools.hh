/**
 * @file
 * CTA barrier pools of the abstract VGIW machine, shared by the
 * interpreter and VGIW replay.
 *
 * A thread that finishes a barrier-terminated block waits in the pool of
 * (its CTA, that block), bound for its own successor: under a divergent
 * but uniformly synchronised loop the threads of one pool may leave for
 * different blocks. The pool releases once every live thread of the CTA
 * has arrived, each thread to its own successor.
 *
 * All state is written in place in flat arrays sized once: one
 * (block, successor) slot per thread, one arrival count per (CTA,
 * block) pool and one live count per CTA. At most one pool of a CTA can
 * be full at a time (a full pool holds every live thread), so an
 * arrival at block b checks pool (cta, b) alone; only a thread exit,
 * which lowers the CTA's live count, rescans the CTA's pools. Release
 * order within a pool is ascending thread ID; both callers' releases
 * only set bits, so the order does not show in any result.
 */

#ifndef VGIW_INTERP_BARRIER_POOLS_HH
#define VGIW_INTERP_BARRIER_POOLS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace vgiw
{

/** The barrier pools of up to a fixed number of CTAs. */
class BarrierPools
{
  public:
    /**
     * Pools for @p num_ctas CTAs of @p cta_size threads over
     * @p num_blocks blocks; thread t belongs to CTA t / cta_size. Every
     * thread starts live and not waiting. For a kernel with no barrier
     * block (Kernel::hasBarrier false) nothing is allocated and exits
     * are not tracked.
     */
    BarrierPools(int num_ctas, int cta_size, int num_blocks,
                 bool has_barrier = true)
        : ctaSize_(cta_size), numBlocks_(num_blocks)
    {
        if (!has_barrier)
            return;
        wait_.assign(size_t(num_ctas) * size_t(cta_size), Wait{});
        arrived_.assign(size_t(num_ctas) * size_t(num_blocks), 0);
        live_.assign(size_t(num_ctas), cta_size);
    }

    /**
     * Start over with the first @p num_ctas CTAs (at most the
     * constructor's) fully live. Every earlier pool must have released.
     */
    void
    reset(int num_ctas)
    {
        vgiw_assert(waiting_ == 0, "barrier pools reset with ", waiting_,
                    " threads waiting");
        vgiw_assert(size_t(num_ctas) <= live_.size() || live_.empty(),
                    "more CTAs than the barrier pools hold");
        std::fill_n(live_.begin(), std::min(live_.size(), size_t(num_ctas)),
                    ctaSize_);
    }

    /** Threads waiting at some barrier. */
    int waiting() const { return waiting_; }

    /**
     * Thread @p tid finished barrier block @p block bound for @p succ.
     * Calls release(tid, succ) for every thread of the pool if this
     * arrival completes it.
     */
    template <typename Release>
    void
    arrive(uint32_t tid, int block, int succ, Release &&release)
    {
        vgiw_assert(wait_[tid].block < 0, "thread ", tid,
                    " arrives at a barrier while waiting at another");
        wait_[tid] = Wait{block, succ};
        ++waiting_;
        const int cta = int(tid) / ctaSize_;
        if (++arrived_[pool(cta, block)] == live_[size_t(cta)])
            releasePool(cta, block, release);
    }

    /**
     * Thread @p tid exited. Its CTA has one live thread fewer, which
     * may complete the pool the other live threads wait in.
     */
    template <typename Release>
    void
    exit(uint32_t tid, Release &&release)
    {
        if (live_.empty())
            return;
        const int cta = int(tid) / ctaSize_;
        const int live = --live_[size_t(cta)];
        for (int b = 0; b < numBlocks_; ++b) {
            const int n = arrived_[pool(cta, b)];
            if (n != 0 && n == live) {
                releasePool(cta, b, release);
                return;
            }
        }
    }

  private:
    /** A thread's barrier slot: where it waits and where it goes next. */
    struct Wait
    {
        int block = -1;  ///< barrier block, -1 when not waiting
        int succ = -1;
    };

    size_t
    pool(int cta, int block) const
    {
        return size_t(cta) * size_t(numBlocks_) + size_t(block);
    }

    template <typename Release>
    void
    releasePool(int cta, int block, Release &release)
    {
        int &arrived = arrived_[pool(cta, block)];
        waiting_ -= arrived;
        Wait *w = wait_.data() + size_t(cta) * size_t(ctaSize_);
        for (uint32_t t = uint32_t(cta) * uint32_t(ctaSize_); arrived > 0;
             ++t, ++w) {
            if (w->block == block) {
                w->block = -1;
                --arrived;
                release(t, w->succ);
            }
        }
    }

    int ctaSize_;
    int numBlocks_;
    int waiting_ = 0;
    std::vector<Wait> wait_;     ///< per thread
    std::vector<int> arrived_;   ///< per (CTA, block) pool
    std::vector<int> live_;      ///< per CTA
};

} // namespace vgiw

#endif // VGIW_INTERP_BARRIER_POOLS_HH
