/**
 * @file
 * Synthetic control-flow graph.
 *
 * A benchmark profile is expanded (deterministically from its seed) into
 * a graph of basic blocks, each terminated by one conditional branch
 * whose BranchBehavior the block holds by value, so a graph is one
 * array. Loops become back edges, ifs become forward skips over a
 * sub-region, and the last block wraps to the first so the walk can
 * produce arbitrarily long traces.
 *
 * Executing the graph — rather than sampling branches independently —
 * is what gives the dynamic stream coherent global-history context:
 * which branch executes next depends on prior outcomes, exactly the
 * property gshare and PC^BHR confidence indexing exploit in real traces.
 */

#ifndef CONFSIM_WORKLOAD_SYNTHETIC_CFG_H
#define CONFSIM_WORKLOAD_SYNTHETIC_CFG_H

#include <cstdint>
#include <vector>

#include "ckpt/state_io.h"
#include "util/rng.h"
#include "workload/benchmark_profile.h"
#include "workload/branch_behavior.h"

namespace confsim {

/** Non-conditional control transfer inside a block (optional). */
enum class BlockEvent : std::uint8_t
{
    None = 0,      //!< plain fall-in
    Call,          //!< the block starts with a call instruction
    Return,        //!< the block starts with a return
    Unconditional, //!< the block starts with a direct jump
};

/**
 * One basic block: a conditional branch plus its two successors, and
 * the branch's behaviour held by value.
 */
struct CfgBlock
{
    std::uint64_t branchPc = 0;   //!< address of the terminating branch
    std::uint64_t takenPc = 0;    //!< the taken target: takenNext's branchPc
    std::uint32_t takenNext = 0;  //!< successor block if taken
    std::uint32_t fallNext = 0;   //!< successor block if not taken
    BranchBehavior behavior;      //!< outcome model and its state
    bool isLoopLatch = false;     //!< taken edge is a back edge
    BlockEvent entryEvent = BlockEvent::None; //!< optional leading CTI
};

/** A generated program: blocks with behaviours, ready to walk. */
class SyntheticCfg
{
  public:
    /** Expand @p profile into a CFG; deterministic in profile.seed. */
    explicit SyntheticCfg(const BenchmarkProfile &profile);

    /** @return number of basic blocks (== static conditional branches). */
    std::size_t numBlocks() const { return blocks_.size(); }

    /** @return block @p index. The graph is fixed once built. */
    const CfgBlock &block(std::size_t index) const
    {
        return blocks_[index];
    }

    /** Step block @p index's behaviour; @return its next outcome. */
    bool
    nextOutcome(std::size_t index, const WorkloadContext &ctx, Rng &rng)
    {
        return blocks_[index].behavior.nextOutcome(ctx, rng);
    }

    /** Restore every behaviour to its initial state. */
    void resetBehaviors();

    /**
     * Checkpoint every behaviour's state (block-count guarded). Only
     * stateful behaviours write anything, so the walk visits just
     * their blocks, in block order.
     */
    void saveBehaviorStates(StateWriter &out) const;

    /** Restore a saveBehaviorStates() snapshot. */
    void loadBehaviorStates(StateReader &in);

    /** @return the profile the graph was generated from. */
    const BenchmarkProfile &profile() const { return profile_; }

  private:
    /** Recursive region builder; emits >= 1 block per construct. */
    void buildConstruct(unsigned depth, Rng &rng);

    /** Append a block with @p behavior; successors patched by caller. */
    std::size_t emitBlock(const BranchBehavior &behavior, Rng &rng);

    /** Sample a non-loop behaviour from the profile mix. */
    BranchBehavior sampleNonLoopBehavior(Rng &rng);

    /** Sample a loop-latch behaviour; @p depth is the loop nesting
     *  depth (unpredictable trip counts only at depth <= 1). */
    BranchBehavior sampleLoopBehavior(unsigned depth, Rng &rng);

    BenchmarkProfile profile_;
    std::vector<CfgBlock> blocks_;
    std::vector<std::uint32_t> statefulBlocks_; //!< ascending
    std::uint64_t nextPc_;
};

} // namespace confsim

#endif // CONFSIM_WORKLOAD_SYNTHETIC_CFG_H
