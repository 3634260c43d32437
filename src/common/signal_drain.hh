/**
 * @file
 * Graceful-shutdown signalling for long sweeps.
 *
 * A multi-hour sweep that dies instantly on Ctrl-C throws away every
 * in-flight job and risks a half-written artifact; one that ignores
 * signals cannot be stopped without SIGKILL (and then loses even
 * more). The drain flag is the middle path: SIGINT/SIGTERM set a
 * process-wide atomic flag the experiment engine polls before
 * dequeueing each job — in-flight jobs finish (or trip their
 * watchdogs), the journal is flushed, and the process exits with the
 * documented "interrupted" code. The handler only stores to a
 * lock-free atomic, so it is async-signal-safe; it stays installed, so
 * repeated signals are idempotent (SIGKILL remains the force-quit
 * escape hatch).
 */

#ifndef VGIW_COMMON_SIGNAL_DRAIN_HH
#define VGIW_COMMON_SIGNAL_DRAIN_HH

#include <atomic>

namespace vgiw
{

/**
 * Install SIGINT and SIGTERM handlers that set the drain flag.
 * Idempotent; safe to call once at tool startup.
 */
void installDrainHandlers();

/** The flag the handlers set — pass &drainFlag() to EngineOptions. */
const std::atomic<bool> &drainFlag();

/** Whether a drain has been requested (by a signal). */
bool drainRequested();

/** Signal number that tripped the flag; 0 when none. */
int drainSignal();

/** Clear the flag and recorded signal (tests). */
void resetDrainFlag();

} // namespace vgiw

#endif // VGIW_COMMON_SIGNAL_DRAIN_HH
