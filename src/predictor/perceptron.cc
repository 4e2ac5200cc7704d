#include "predictor/perceptron.h"

#include "ckpt/state_io.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

PerceptronConfig
PerceptronConfig::makeSmall()
{
    PerceptronConfig c;
    c.numRows = std::size_t{1} << 7;
    c.historyBits = 12;
    return c;
}

PerceptronPredictor::PerceptronPredictor(PerceptronConfig config)
    : config_(config),
      rowBits_(isPowerOfTwo(config.numRows) ? log2Exact(config.numRows)
                                            : 0),
      history_(config.historyBits)
{
    if (!isPowerOfTwo(config_.numRows))
        fatal("perceptron row count must be a power of two");
    if (config_.historyBits < 1 || config_.historyBits > 64)
        fatal("perceptron history depth must be in [1, 64]");
    if (config_.weightBits < 2 || config_.weightBits > 16)
        fatal("perceptron weight width must be in [2, 16]");
    weightMax_ = static_cast<std::int32_t>(
                     mask(config_.weightBits - 1));
    weightMin_ = -weightMax_ - 1;
    weights_.assign(config_.numRows * (config_.historyBits + 1), 0);
}

std::uint64_t
PerceptronPredictor::rowOf(std::uint64_t pc) const
{
    return xorFold(pc >> 2, rowBits_);
}

std::int32_t
PerceptronPredictor::weightAt(std::uint64_t row, unsigned i) const
{
    return weights_[(row & mask(rowBits_)) *
                        (config_.historyBits + 1) +
                    i];
}

std::int32_t
PerceptronPredictor::clampWeight(std::int64_t w) const
{
    if (w > weightMax_)
        return weightMax_;
    if (w < weightMin_)
        return weightMin_;
    return static_cast<std::int32_t>(w);
}

std::int64_t
PerceptronPredictor::marginOf(std::uint64_t pc) const
{
    if (memoValid_ && memoPc_ == pc)
        return memoMargin_;
    const std::size_t base = static_cast<std::size_t>(rowOf(pc)) *
                             (config_.historyBits + 1);
    // Weight 0 is the bias (an always-taken virtual history bit).
    std::int64_t sum = weights_[base];
    const std::uint64_t hist = history_.value();
    for (unsigned i = 0; i < config_.historyBits; ++i) {
        const std::int32_t w = weights_[base + 1 + i];
        sum += bitOf(hist, i) != 0 ? w : -w;
    }
    memoPc_ = pc;
    memoMargin_ = sum;
    memoValid_ = true;
    return sum;
}

bool
PerceptronPredictor::predict(std::uint64_t pc) const
{
    return marginOf(pc) >= 0;
}

bool
PerceptronPredictor::wouldTrain(std::uint64_t pc, bool taken) const
{
    const std::int64_t margin = marginOf(pc);
    const bool predicted = margin >= 0;
    const std::int64_t magnitude = margin < 0 ? -margin : margin;
    return predicted != taken || magnitude <= theta();
}

void
PerceptronPredictor::update(std::uint64_t pc, bool taken)
{
    if (wouldTrain(pc, taken)) {
        const std::size_t base = static_cast<std::size_t>(rowOf(pc)) *
                                 (config_.historyBits + 1);
        const std::uint64_t hist = history_.value();
        weights_[base] = clampWeight(
            static_cast<std::int64_t>(weights_[base]) + (taken ? 1 : -1));
        for (unsigned i = 0; i < config_.historyBits; ++i) {
            const bool agrees = (bitOf(hist, i) != 0) == taken;
            weights_[base + 1 + i] = clampWeight(
                static_cast<std::int64_t>(weights_[base + 1 + i]) +
                (agrees ? 1 : -1));
        }
    }
    history_.recordOutcome(taken);
    memoValid_ = false;
}

std::uint64_t
PerceptronPredictor::storageBits() const
{
    return static_cast<std::uint64_t>(weights_.size()) *
               config_.weightBits +
           history_.width();
}

std::string
PerceptronPredictor::name() const
{
    return "perceptron-" + std::to_string(config_.numRows) + "x" +
           std::to_string(config_.historyBits) + "h";
}

void
PerceptronPredictor::reset()
{
    weights_.assign(weights_.size(), 0);
    history_.reset();
    memoValid_ = false;
}

void
PerceptronPredictor::saveState(StateWriter &out) const
{
    out.putU64(weights_.size());
    for (const std::int32_t w : weights_)
        out.putU32(static_cast<std::uint32_t>(w));
    out.putU64(history_.value());
}

void
PerceptronPredictor::loadState(StateReader &in)
{
    in.expectU64(weights_.size(), "perceptron weight count");
    for (std::int32_t &w : weights_)
        w = static_cast<std::int32_t>(in.getU32());
    history_.setValue(in.getU64());
    memoValid_ = false;
}

} // namespace confsim
