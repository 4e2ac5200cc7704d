#include "sim/replay_kernel.h"

#include <limits>
#include <thread>

#include "ckpt/checkpoint.h"
#include "util/crc32.h"
#include "util/status.h"

namespace confsim {

namespace {

/** Version of the `<prefix>meta` payload (2 added the fingerprint). */
constexpr std::uint32_t kMetaVersion = 2;

/** Largest bucket space whose ids fit a slot log entry's 31 bits. */
constexpr std::uint64_t kMaxPlannedBuckets = std::uint64_t{1} << 31;

/** Most branches a dense bank's 4-byte tallies can count. */
constexpr std::uint64_t kMaxRecorded =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

std::uint32_t
configFingerprint(const BranchPredictor &predictor,
                  const std::vector<ConfidenceEstimator *> &estimators,
                  const DriverOptions &options)
{
    // The constants stand where a warmup window and two switch-flush
    // flags once were (0, true, true: record everything, flush both),
    // so fingerprints, checkpoints and done-markers keep their bytes.
    StateWriter out;
    out.putU64(options.bhrBits);
    out.putU64(options.gcirBits);
    out.putBool(options.profileStatic);
    out.putU64(0);
    out.putU64(options.contextSwitchInterval);
    out.putBool(true);
    out.putBool(true);
    out.putString(predictor.name());
    predictor.saveState(out);
    out.putU64(estimators.size());
    for (const auto *estimator : estimators) {
        out.putString(estimator->name());
        out.putU64(estimator->numBuckets());
        estimator->saveState(out);
    }
    return crc32(out.bytes().data(), out.bytes().size());
}

ReplayGuard::ReplayGuard(const DriverOptions &options)
    : cancel(options.cancel), hasDeadline(options.wallClockLimitMs != 0),
      limitMs(options.wallClockLimitMs)
{
    if (hasDeadline)
        deadline = Clock::now() + std::chrono::milliseconds(limitMs);
}

void
ReplayGuard::checkNow(std::uint64_t at_records) const
{
    if (cancel != nullptr)
        cancel->throwIfCancelled("sweep shard");
    if (hasDeadline && Clock::now() > deadline) {
        throw Error(ErrorCategory::kTimeout,
                    "sweep exceeded its wall-clock budget of " +
                        std::to_string(limitMs) + " ms after " +
                        std::to_string(at_records) + " records");
    }
}

void
ReplayGuard::park() const
{
    const Clock::time_point cap = Clock::now() + std::chrono::seconds(30);
    for (;;) {
        checkNow(0);
        if (Clock::now() > cap) {
            throw Error(ErrorCategory::kTimeout,
                        "injected hang exceeded its 30 s safety cap with "
                        "no watchdog or cancellation configured");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

ReplayKernel::ReplayKernel(BranchPredictor &predictor,
                           std::vector<ConfidenceEstimator *> estimators,
                           std::string label, const DriverOptions &options,
                           const SweepRecordingPlan *plan)
    : predictor_(&predictor), estimators_(std::move(estimators)),
      options_(options), plan_(plan), bhr_(options.bhrBits),
      gcir_(options.gcirBits, 0),
      untilSwitch_(options.contextSwitchInterval)
{
    ctx_.bhrBits = options.bhrBits;
    ctx_.gcirBits = options.gcirBits;

    result_.label = std::move(label);
    result_.estimatorNames.reserve(estimators_.size());
    for (auto *estimator : estimators_) {
        // Native estimators read this predictor's own lookup.
        estimator->bindPredictor(predictor);
        result_.estimatorNames.push_back(estimator->name());
        if (plan_ == nullptr) {
            result_.estimatorStats.emplace_back(estimator->numBuckets());
        } else if (estimator->numBuckets() > kMaxPlannedBuckets) {
            fatal(ErrorCategory::kConfig,
                  "estimator '" + estimator->name() + "' has " +
                      std::to_string(estimator->numBuckets()) +
                      " buckets; a recording plan's 4-byte slot log "
                      "holds bucket ids of at most 31 bits");
        }
    }
    if (options.profileBranches) {
        std::vector<BranchProfileEstimatorInfo> infos;
        infos.reserve(estimators_.size());
        for (const auto *estimator : estimators_) {
            infos.push_back({estimator->name(), estimator->numBuckets(),
                             estimator->bucketsAreOrdered()});
        }
        result_.branchProfile.configure(options.branchProfile,
                                        std::move(infos));
    }
    if (plan_ != nullptr) {
        result_.slotStats.resize(plan_->numSlots);
        for (auto &slot : result_.slotStats)
            slot.estimatorLogs.resize(estimators_.size());
    }
}

void
ReplayKernel::replay(const RecordBatch &batch, const ReplayGuard &guard)
{
    // Amortize the guard over a stride of records so the hot loop
    // stays hot when neither a deadline nor a token is set.
    constexpr std::uint64_t kGuardStride = 4096;
    const bool guarded = guard.active();
    // Attribution profile: observation only (PC, mispredict flag, and
    // the bucket the step already computed).
    BranchProfile *const profile =
        result_.branchProfile.enabled() ? &result_.branchProfile : nullptr;
    // No bucket of a dense bank holds more than the recorded branches,
    // so a batch that cannot take them past the tallies' limit cannot
    // wrap one.
    if (!result_.estimatorStats.empty() &&
        result_.branches + batch.conditionals() > kMaxRecorded) {
        fatal(ErrorCategory::kConfig,
              "configuration '" + result_.label + "' has recorded " +
                  std::to_string(result_.branches) + " branches, and " +
                  std::to_string(batch.conditionals()) +
                  " more could pass the " + std::to_string(kMaxRecorded) +
                  " a bucket statistics tally counts");
    }
    for (const BranchRecord &record : batch) {
        if (guarded && (++guardTick_ % kGuardStride) == 0)
            guard.checkNow(simulated_);
        // Non-conditional records train nothing (the paper's mechanisms
        // concern conditional branches only).
        if (!record.isConditional())
            continue;

        // Resolve the recording plan's mode at region boundaries (a
        // function of `simulated_` only). No kSkip region gets here:
        // skipTo() moves the cursor over them.
        if (plan_ != nullptr) {
            if (planLeft_ == 0) {
                planSlot_ =
                    plan_->slotForRegion(simulated_ / plan_->regionBranches);
                planLeft_ = plan_->regionBranches;
                if (planSlot_ == SweepRecordingPlan::kSkip) {
                    fatal(ErrorCategory::kInternal,
                          "a record of skipped region " +
                              std::to_string(simulated_ /
                                             plan_->regionBranches) +
                              " reached the replay kernel");
                }
            }
            --planLeft_;
        }
        recordStep(record, profile);
        ++simulated_;

        if (options_.contextSwitchInterval != 0 && --untilSwitch_ == 0)
            contextSwitch();
    }
}

void
ReplayKernel::skipTo(std::uint64_t branch)
{
    if (branch <= simulated_)
        return;
    const std::uint64_t gap = branch - simulated_;
    simulated_ = branch;
    if (plan_ != nullptr) {
        const std::uint64_t into = branch % plan_->regionBranches;
        planSlot_ = plan_->slotForRegion(branch / plan_->regionBranches);
        planLeft_ = into == 0 ? 0 : plan_->regionBranches - into;
    }

    const std::uint64_t interval = options_.contextSwitchInterval;
    if (interval == 0)
        return;
    if (gap < untilSwitch_) {
        untilSwitch_ -= gap;
        return;
    }
    // The gap crosses 1 + past / interval switch boundaries. With no
    // work between them, one flush leaves what all of them would.
    const std::uint64_t past = gap - untilSwitch_;
    contextSwitch();
    result_.contextSwitches += past / interval;
    untilSwitch_ = interval - past % interval;
}

void
ReplayKernel::recordStep(const BranchRecord &record, BranchProfile *profile)
{
    ctx_.pc = record.pc;
    ctx_.bhr = bhr_.value();
    ctx_.gcir = gcir_.value();

    const bool predicted = predictor_->predict(record.pc);
    const bool correct = (predicted == record.taken);
    const bool mispredicted = !correct;
    const bool recording =
        plan_ == nullptr || planSlot_ != SweepRecordingPlan::kWarmOnly;
    SweepSlotStats *const slot =
        recording && plan_ != nullptr ? &result_.slotStats[planSlot_]
                                      : nullptr;

    // Counts add the flag: the host never branches on the simulated
    // outcome, which it cannot learn.
    if (recording) {
        ++result_.branches;
        result_.mispredicts += mispredicted;
        if (slot != nullptr) {
            ++slot->branches;
            slot->mispredicts += mispredicted;
        }
    }

    // Confidence estimators: one call each trains on the prediction's
    // correctness and returns the bucket read with the pre-update
    // context.
    for (std::size_t i = 0; i < estimators_.size(); ++i) {
        const std::uint64_t bucket =
            estimators_[i]->update(ctx_, correct, record.taken);
        if (recording) {
            if (slot != nullptr) {
                slot->estimatorLogs[i].push_back(
                    static_cast<std::uint32_t>((bucket << 1) |
                                               mispredicted));
            } else {
                result_.estimatorStats[i].record(bucket, mispredicted);
            }
            if (profile != nullptr)
                profile->onBucket(i, bucket, correct);
        }
    }

    if (recording) {
        if (options_.profileStatic) {
            result_.staticProfile.record(record.pc, mispredicted,
                                         record.taken);
        }
        if (profile != nullptr)
            profile->onBranch(record.pc, mispredicted);
    }

    // Predictor and architectural history train on the outcome.
    predictor_->update(record.pc, record.taken);
    bhr_.recordOutcome(record.taken);
    gcir_.shiftIn(mispredicted);
}

void
ReplayKernel::contextSwitch()
{
    // Section 5.4: restore the microarchitectural structures to their
    // power-on state; accumulated statistics are never cleared.
    untilSwitch_ = options_.contextSwitchInterval;
    predictor_->reset();
    for (auto *estimator : estimators_)
        estimator->reset();
    bhr_.reset();
    gcir_.clear();
    ++result_.contextSwitches;
}

void
ReplayKernel::requireCheckpointable() const
{
    // Fail up front: an unaudited component would otherwise write
    // checkpoints that resume into silently-wrong state.
    if (!predictor_->checkpointable()) {
        fatal(ErrorCategory::kConfig, "predictor '" + predictor_->name() +
                                          "' is not checkpointable");
    }
    for (const auto *estimator : estimators_) {
        if (!estimator->checkpointable()) {
            fatal(ErrorCategory::kConfig, "estimator '" +
                                              estimator->name() +
                                              "' is not checkpointable");
        }
    }
}

void
ReplayKernel::save(Checkpoint &ckpt, const std::string &prefix,
                   std::uint32_t fingerprint) const
{
    StateWriter meta;
    meta.putString(result_.label);
    meta.putU32(fingerprint);
    meta.putU64(estimators_.size());
    meta.putU64(untilSwitch_);
    meta.putU64(bhr_.value());
    meta.putU64(gcir_.value());
    meta.putU64(result_.branches);
    meta.putU64(result_.mispredicts);
    meta.putU64(result_.contextSwitches);
    ckpt.add(prefix + "meta", kMetaVersion, meta.take());

    ckpt.addComponent(prefix + "predictor:" + predictor_->name(),
                      *predictor_);
    for (std::size_t i = 0; i < estimators_.size(); ++i) {
        ckpt.addComponent(prefix + "estimator" + std::to_string(i) + ":" +
                              estimators_[i]->name(),
                          *estimators_[i]);
        ckpt.addState(prefix + "stats" + std::to_string(i), 1,
                      result_.estimatorStats[i]);
    }
    if (options_.profileStatic)
        ckpt.addState(prefix + "static_profile", 1, result_.staticProfile);
}

SweepConfigResult
ReplayKernel::takeResult()
{
    for (BucketStats &stats : result_.estimatorStats)
        stats.pack();
    return std::move(result_);
}

void
ReplayKernel::restore(const Checkpoint &ckpt, const std::string &prefix,
                      std::uint32_t fingerprint)
{
    const CheckpointComponent *meta = ckpt.find(prefix + "meta");
    if (meta == nullptr) {
        fatal(ErrorCategory::kCheckpoint,
              "checkpoint has no " + prefix + "meta component");
    }
    if (meta->version != kMetaVersion) {
        fatal(ErrorCategory::kCheckpoint,
              prefix + "meta is version " + std::to_string(meta->version) +
                  ", expected " + std::to_string(kMetaVersion));
    }
    StateReader in(meta->payload);
    const std::string label = in.getString();
    if (label != result_.label) {
        fatal(ErrorCategory::kCheckpoint,
              "checkpoint config " + prefix + " is '" + label +
                  "', expected '" + result_.label + "'");
    }
    if (in.getU32() != fingerprint) {
        fatal(ErrorCategory::kCheckpoint,
              "checkpoint config " + prefix + " '" + label +
                  "' was written by a different configuration");
    }
    in.expectU64(estimators_.size(), "checkpoint estimator count");
    untilSwitch_ = in.getU64();
    bhr_.setValue(in.getU64());
    gcir_.set(in.getU64());
    result_.branches = in.getU64();
    result_.mispredicts = in.getU64();
    result_.contextSwitches = in.getU64();
    if (!in.atEnd()) {
        fatal(ErrorCategory::kCheckpoint,
              prefix + "meta has unconsumed bytes");
    }

    ckpt.restoreComponent(prefix + "predictor:" + predictor_->name(),
                          *predictor_);
    for (std::size_t i = 0; i < estimators_.size(); ++i) {
        ckpt.restoreComponent(prefix + "estimator" + std::to_string(i) +
                                  ":" + estimators_[i]->name(),
                              *estimators_[i]);
        ckpt.restoreState(prefix + "stats" + std::to_string(i), 1,
                          result_.estimatorStats[i]);
    }
    if (options_.profileStatic) {
        ckpt.restoreState(prefix + "static_profile", 1,
                          result_.staticProfile);
    }
    simulated_ = ckpt.branches;
}

} // namespace confsim
