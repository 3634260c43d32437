/**
 * @file
 * Per-kind retry and quarantine policy for sweep jobs.
 *
 * The SimError taxonomy (PR 3) tells us *what* failed; this policy
 * decides *whether trying again can help*. Deterministic failures —
 * malformed config, a kernel that does not compile, a golden mismatch,
 * a functional-execution fault — will fail identically on every
 * attempt, so they fail fast. Budget- and environment-sensitive
 * failures — a watchdog trip (the budget may simply have been too
 * tight for this config point) or an `internal` error (a transient
 * host condition, a captured panic whose trigger was load-dependent) —
 * are worth retrying with escalating watchdog budgets: each retry
 * multiplies the cycle ceiling and wall-clock deadline, so a job that
 * was merely slow converges while a genuine livelock still terminates.
 * A job that exhausts its attempts is *quarantined*: recorded as a
 * failure with `attempts`/`quarantined` fields so the sweep report
 * separates "configured too tight, retried, still failing" from
 * one-shot failures.
 */

#ifndef VGIW_DRIVER_RETRY_POLICY_HH
#define VGIW_DRIVER_RETRY_POLICY_HH

#include "common/sim_error.hh"
#include "common/watchdog.hh"

namespace vgiw
{

/** When and how the experiment engine re-runs a failed job. */
struct RetryPolicy
{
    /**
     * Total attempts per job including the first; 1 disables retries
     * entirely (the pre-journal engine behaviour, and the default —
     * results and JSON stay bit-identical to a policy-free run).
     */
    unsigned maxAttempts = 1;

    /** Cycle-ceiling multiplier applied per retry (attempt n runs with
     * maxReplayCycles * scale^(n-1); 0 stays unlimited). */
    double cycleBudgetScale = 4.0;

    /** Wall-clock-deadline multiplier applied per retry. */
    double deadlineScale = 2.0;

    /** Kinds where a retry can plausibly change the outcome. */
    static bool retryableKind(SimErrorKind kind);

    /** Total attempts a job failing with @p kind may consume:
     * maxAttempts, except that a `worker_crash` always gets at least
     * one re-dispatch — a single environmental crash should not
     * poison a job. */
    unsigned attemptBudget(SimErrorKind kind) const;

    /** Whether a job that failed with @p kind on attempt @p attempt
     * (1-based) should be re-run. */
    bool shouldRetry(SimErrorKind kind, unsigned attempt) const;

    /**
     * Watchdog budgets for @p attempt (1-based): attempt 1 returns
     * @p base unchanged, each further attempt scales the finite
     * ceilings (zero = unlimited stays zero). The deadline anchor is
     * cleared so the engine re-anchors it at re-entry — a retry gets a
     * fresh wall-clock budget, not the exhausted one.
     */
    WatchdogConfig escalate(const WatchdogConfig &base,
                            unsigned attempt) const;
};

} // namespace vgiw

#endif // VGIW_DRIVER_RETRY_POLICY_HH
