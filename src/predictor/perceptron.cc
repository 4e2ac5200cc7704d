#include "predictor/perceptron.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "ckpt/state_io.h"
#include "util/bits.h"
#include "util/error.h"

namespace confsim {

namespace {

constexpr int kWeightMax =
    static_cast<int>(mask(PerceptronPredictor::kWeightBits - 1));
constexpr int kWeightMin = -kWeightMax - 1;
constexpr std::uint64_t kHistoryMask =
    mask(PerceptronPredictor::kHistoryBits);
constexpr std::size_t kWeightsPerRow = PerceptronPredictor::kHistoryBits + 1;

/** Per history byte: its eight sign bytes, k-th = bit k ? +1 : -1. */
constexpr std::array<std::array<std::int8_t, 8>, 256> kSignBytes = [] {
    std::array<std::array<std::int8_t, 8>, 256> table{};
    for (unsigned byte = 0; byte < table.size(); ++byte) {
        for (unsigned k = 0; k < 8; ++k)
            table[byte][k] = bitOf(byte, k) != 0 ? 1 : -1;
    }
    return table;
}();

/** The history's sign vector: signs[i] = bit i ? +1 : -1, newest
 *  first. Read from kSignBytes, never from a just-written buffer, so
 *  the next branch's dot product need not wait on this one's stores. */
std::array<std::int8_t, PerceptronPredictor::kHistoryBits>
signsOf(std::uint64_t history)
{
    static_assert(PerceptronPredictor::kHistoryBits % 8 == 0);
    std::array<std::int8_t, PerceptronPredictor::kHistoryBits> signs;
    for (std::size_t k = 0; k < signs.size() / 8; ++k) {
        std::memcpy(&signs[8 * k],
                    kSignBytes[(history >> (8 * k)) & 0xFF].data(), 8);
    }
    return signs;
}

} // namespace

std::uint64_t
PerceptronPredictor::rowOf(std::uint64_t pc) const
{
    return xorFold(pc >> 2, kRowBits);
}

std::int32_t
PerceptronPredictor::weightAt(std::uint64_t row, unsigned i) const
{
    return rows_[row & (kRows - 1)][i];
}

std::int64_t
PerceptronPredictor::marginOf(std::uint64_t pc) const
{
    if (memoValid_ && memoPc_ == pc)
        return memoMargin_;
    const auto row = static_cast<std::uint16_t>(rowOf(pc));
    const Row &w = rows_[row];
    const auto signs = signsOf(history_);
    // Weight 0 is the bias (an always-taken virtual input).
    std::int32_t sum = w[0];
    for (std::size_t i = 0; i < kHistoryBits; ++i)
        sum += w[1 + i] * signs[i];
    memoPc_ = pc;
    memoRow_ = row;
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
    return predicted != taken || magnitude <= kTheta;
}

void
PerceptronPredictor::update(std::uint64_t pc, bool taken)
{
    // The bias moves by t toward the outcome, and weight i + 1 by
    // signs[i] * t toward agreement between history bit i and the
    // outcome; t = 0 leaves the row as it was.
    const int t = wouldTrain(pc, taken) ? (taken ? 1 : -1) : 0;
    const auto signs = signsOf(history_);
    Row &w = rows_[memoRow_];
    w[0] = static_cast<std::int8_t>(
        std::clamp(w[0] + t, kWeightMin, kWeightMax));
    for (std::size_t i = 0; i < kHistoryBits; ++i) {
        w[1 + i] = static_cast<std::int8_t>(
            std::clamp(w[1 + i] + signs[i] * t, kWeightMin, kWeightMax));
    }
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & kHistoryMask;
    memoValid_ = false;
}

std::uint64_t
PerceptronPredictor::storageBits() const
{
    return kRows * kWeightsPerRow * kWeightBits + kHistoryBits;
}

std::string
PerceptronPredictor::name() const
{
    return "perceptron-" + std::to_string(kRows) + "x" +
           std::to_string(kHistoryBits) + "h";
}

void
PerceptronPredictor::reset()
{
    for (Row &row : rows_)
        row.fill(0);
    history_ = 0;
    memoValid_ = false;
}

void
PerceptronPredictor::saveState(StateWriter &out) const
{
    // Each weight as a sign-extended 32-bit word, rows in order.
    out.putU64(kRows * kWeightsPerRow);
    for (const Row &row : rows_) {
        for (std::size_t j = 0; j < kWeightsPerRow; ++j)
            out.putU32(static_cast<std::uint32_t>(std::int32_t{row[j]}));
    }
    out.putU64(history_);
}

void
PerceptronPredictor::loadState(StateReader &in)
{
    in.expectU64(kRows * kWeightsPerRow, "perceptron weight count");
    for (Row &row : rows_) {
        for (std::size_t j = 0; j < kWeightsPerRow; ++j) {
            const auto w = static_cast<std::int32_t>(in.getU32());
            if (w < kWeightMin || w > kWeightMax) {
                fatal(ErrorCategory::kCheckpoint,
                      "perceptron weight " + std::to_string(w) +
                          " outside the 8-bit range");
            }
            row[j] = static_cast<std::int8_t>(w);
        }
    }
    history_ = in.getU64() & kHistoryMask;
    memoValid_ = false;
}

} // namespace confsim
