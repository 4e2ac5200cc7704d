/**
 * @file
 * SIGINT/SIGTERM → CancellationToken bridge for long-running binaries.
 *
 * installSignalCancellation() registers handlers for SIGINT and SIGTERM
 * that cancel one process-wide CancellationToken. Every cooperative
 * poll site already threaded through the simulator (driver record
 * loops, sweep batch refills, the suite runner's pass threads) then
 * unwinds with Error{kCancelled}, so Ctrl-C produces a clean
 * teardown — telemetry sinks flushed, atomic-file temporaries cleaned
 * up, checkpoints left in a resumable state — instead of an abrupt
 * exit mid-write.
 *
 * The handler itself only performs async-signal-safe work: a relaxed
 * atomic load of the registered token pointer, the token's own atomic
 * cancel() store, and recording which signal fired. Handlers are
 * installed without SA_RESTART, so a blocking call the signal
 * interrupts returns EINTR instead of resuming, and its caller can
 * poll the token promptly.
 */

#ifndef CONFSIM_UTIL_SIGNAL_CANCELLATION_H
#define CONFSIM_UTIL_SIGNAL_CANCELLATION_H

namespace confsim {

class CancellationToken;

/**
 * Route SIGINT and SIGTERM to @p token.cancel(). The token must
 * outlive every subsequent signal delivery (in practice: declare it in
 * main() and install once). Calling again replaces the target token.
 */
void installSignalCancellation(CancellationToken &token);

/** @return the last signal routed to the token, or 0 when none. */
int lastCancellationSignal();

/**
 * Conventional exit code for a run terminated by @p signal
 * (128 + signo, e.g. 130 for SIGINT); 1 when @p signal is 0.
 */
int exitCodeForSignal(int signal);

} // namespace confsim

#endif // CONFSIM_UTIL_SIGNAL_CANCELLATION_H
