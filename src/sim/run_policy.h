/**
 * @file
 * Checkpoint and deadline policy for suite-level runs.
 *
 * A suite run has one failure path: it fails fast. The first benchmark
 * failure (in suite order, skipping the siblings its teardown
 * cancelled) throws with its category, and checkpoint/resume keeps
 * the work that finished, so the same command with resume on picks up
 * where the failed run stopped. RunPolicy holds what a run needs for
 * that beyond its DriverOptions: where checkpoints live, and the
 * suite's wall-clock budget. The cancel token and the per-benchmark
 * wall-clock watchdog are DriverOptions::cancel and
 * DriverOptions::wallClockLimitMs. See docs/robustness.md.
 */

#ifndef CONFSIM_SIM_RUN_POLICY_H
#define CONFSIM_SIM_RUN_POLICY_H

#include <cstdint>
#include <string>

namespace confsim {

/**
 * Checkpoint/resume knobs for a suite run (see src/ckpt/). Enabled by
 * giving a directory; each benchmark then gets its own generation-
 * rotating CheckpointStore under it (label = benchmark name, the two
 * newest generations kept), the sweep engine writes a checkpoint at
 * the first batch boundary past every `everyBranches` conditional
 * branches, and a completed benchmark leaves a done-marker holding
 * every configuration's result. With `resume` set, SuiteRunner loads
 * finished benchmarks from their done-markers and restarts interrupted
 * ones from their newest intact generation (falling back one
 * generation per corrupt file).
 */
struct CheckpointPolicy
{
    /** Checkpoint directory; "" disables the whole feature. */
    std::string directory;

    /** Conditional branches between mid-run checkpoints (0 = only
     * the completion marker is written). */
    std::uint64_t everyBranches = 250'000;

    /** Recover prior progress from `directory` before simulating. */
    bool resume = false;

    /** @return true iff checkpointing is configured. */
    bool
    enabled() const
    {
        return !directory.empty();
    }
};

/** Per-suite-run checkpoint and deadline knobs. */
struct RunPolicy
{
    /** Checkpoint/resume configuration (disabled by default). */
    CheckpointPolicy checkpoint;

    /**
     * Suite-level wall-clock budget in milliseconds (0 = none). Once
     * exhausted, in-flight benchmarks are cancelled cooperatively, no
     * further benchmarks start, and the run throws. Per-benchmark
     * watchdog budgets (DriverOptions::wallClockLimitMs) are clipped
     * to the remaining suite budget.
     */
    std::uint64_t deadlineMs = 0;
};

} // namespace confsim

#endif // CONFSIM_SIM_RUN_POLICY_H
