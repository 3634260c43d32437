/**
 * @file
 * Jittered exponential backoff for the shard supervisor's respawn loop.
 *
 * PR 8's respawn backoff was deterministic (`base << crashes`), which
 * has a thundering-herd failure mode: workers that crash together (one
 * poisoned job fanned out, an OOM sweep) respawn in lockstep and
 * crash together again. The schedule here
 * keeps the exponential envelope but draws each delay uniformly from
 * [d/2, d] where d = min(base * 2^(n-1), cap) — so simultaneous
 * failures decorrelate within two or three rounds while the expected
 * delay still doubles per consecutive failure.
 *
 * The ceiling is explicit and documented: no matter how many times a
 * peer fails, the delay never exceeds `capMs` (default 10 s). Without
 * a cap, a flapping worker slot would back off into hours and look
 * quarantined without ever being reported as such.
 *
 * Determinism: the jitter source is a splitmix64 hash of (seed,
 * attempt), not a global RNG — the schedule is a pure function of its
 * fields, so tests can pin exact delays, and two schedules with
 * different seeds (different worker slots) decorrelate.
 */

#ifndef VGIW_COMMON_BACKOFF_HH
#define VGIW_COMMON_BACKOFF_HH

#include <cstdint>

namespace vgiw
{

struct BackoffSchedule
{
    /** First-failure delay envelope (ms). */
    uint64_t baseMs = 200;
    /** Hard ceiling (ms): delays never exceed this, jitter included. */
    uint64_t capMs = 10000;
    /** Jitter stream identity; give each worker slot its own. */
    uint64_t seed = 0;

    /**
     * Delay before retry number @p attempt (1-based consecutive
     * failure count; attempt 0 is treated as 1). Uniform in [d/2, d]
     * with d = min(baseMs << (attempt-1), capMs); always <= capMs.
     */
    uint64_t
    delayMs(unsigned attempt) const
    {
        if (attempt == 0)
            attempt = 1;
        // Clamp the shift so the envelope saturates instead of
        // overflowing; 63 doublings is past any real cap anyway.
        const unsigned shift = attempt - 1 > 32u ? 32u : attempt - 1;
        uint64_t d = baseMs << shift;
        if (d > capMs || d < baseMs)  // overflow also saturates
            d = capMs;
        if (d == 0)
            return 0;
        const uint64_t half = d / 2;
        return half + mix(seed, attempt) % (d - half + 1);
    }

  private:
    /** splitmix64 over (seed, attempt): cheap, stateless, well mixed. */
    static uint64_t
    mix(uint64_t seed, uint64_t attempt)
    {
        uint64_t z = seed + attempt * 0x9e3779b97f4a7c15ull +
                     0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

} // namespace vgiw

#endif // VGIW_COMMON_BACKOFF_HH
