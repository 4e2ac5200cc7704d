#include "workload/workload_generator.h"

#include <array>

#include "ckpt/state_io.h"

namespace confsim {

namespace {

/** Runtime noise stream seed: decorrelated from the CFG-build stream. */
std::uint64_t
runtimeSeed(const BenchmarkProfile &profile)
{
    return profile.seed * 0xD1B54A32D192ED03ULL + 0xABCDEF12345ULL;
}

} // namespace

WorkloadGenerator::WorkloadGenerator(const BenchmarkProfile &profile,
                                     std::uint64_t num_branches)
    : cfg_(profile),
      length_(num_branches == 0 ? profile.defaultLength : num_branches),
      runtimeRng_(runtimeSeed(profile))
{}

bool
WorkloadGenerator::next(BranchRecord &record)
{
    if (emitted_ >= length_)
        return false;

    const CfgBlock &block = cfg_.block(currentBlock_);

    // Optional leading non-conditional transfer of the current block;
    // it is emitted once, before the block's conditional branch, and
    // does not advance the conditional count or the outcome history.
    if (entryEventPending_) {
        entryEventPending_ = false;
        record.pc = block.branchPc - 8; // earlier in the same block
        record.target = block.branchPc - 4;
        record.taken = true;
        switch (block.entryEvent) {
          case BlockEvent::Call:
            record.type = BranchType::Call;
            break;
          case BlockEvent::Return:
            record.type = BranchType::Return;
            break;
          default:
            record.type = BranchType::Unconditional;
            break;
        }
        return true;
    }

    const bool taken =
        cfg_.nextOutcome(currentBlock_, context_, runtimeRng_);
    context_.recordOutcome(taken);

    record.pc = block.branchPc;
    record.target = block.takenPc;
    record.taken = taken;
    record.type = BranchType::Conditional;

    currentBlock_ = taken ? block.takenNext : block.fallNext;
    ++emitted_;

    // Arm the next block's leading event, if it has one.
    entryEventPending_ =
        cfg_.block(currentBlock_).entryEvent != BlockEvent::None;
    return true;
}

void
WorkloadGenerator::reset()
{
    cfg_.resetBehaviors();
    runtimeRng_ = Rng(runtimeSeed(cfg_.profile()));
    context_.reset();
    currentBlock_ = 0;
    emitted_ = 0;
    entryEventPending_ = false;
}


void
WorkloadGenerator::saveState(StateWriter &out) const
{
    const std::array<std::uint64_t, 4> words = runtimeRng_.stateWords();
    for (const std::uint64_t word : words)
        out.putU64(word);
    out.putU64(context_.historyValue());
    out.putU32(currentBlock_);
    out.putU64(emitted_);
    out.putBool(entryEventPending_);
    cfg_.saveBehaviorStates(out);
}

void
WorkloadGenerator::loadState(StateReader &in)
{
    std::array<std::uint64_t, 4> words;
    for (std::uint64_t &word : words)
        word = in.getU64();
    runtimeRng_.setStateWords(words);
    context_.reset();
    context_.setHistory(in.getU64());
    const std::uint32_t block = in.getU32();
    if (block >= cfg_.numBlocks()) {
        fatal(ErrorCategory::kCheckpoint,
              "generator block " + std::to_string(block) +
                  " out of range in checkpoint (" +
                  std::to_string(cfg_.numBlocks()) + " blocks)");
    }
    currentBlock_ = block;
    emitted_ = in.getU64();
    entryEventPending_ = in.getBool();
    cfg_.loadBehaviorStates(in);
}

} // namespace confsim
