/**
 * @file
 * Replayable record batch over a TraceSource.
 *
 * The sweep engine (sim/sweep_engine.h) decodes or generates each
 * benchmark trace exactly once and broadcasts the records to many
 * attached configurations. The unit of that broadcast is a RecordBatch:
 * a fixed-capacity, contiguous buffer of BranchRecords that one
 * refill() drains from the source and every configuration then replays
 * independently (read-only, so concurrent replay from worker shards
 * needs no synchronization). The engine's decode-ahead mode keeps a
 * small ring of these batches: a producer thread refills slots while
 * workers replay earlier ones — each batch still has exactly one
 * writer at a time.
 *
 * The batch size trades decode amortization against cache footprint:
 * a batch should comfortably fit in L2 together with one
 * configuration's hot table lines. 4096 records x 24 bytes = 96 KiB is
 * the tuned default (see docs/performance.md).
 */

#ifndef CONFSIM_TRACE_RECORD_BATCH_H
#define CONFSIM_TRACE_RECORD_BATCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_source.h"

namespace confsim {

/** Fixed-capacity replayable buffer of trace records. */
class RecordBatch
{
  public:
    /** Tuned default batch size in records. */
    static constexpr std::size_t kDefaultCapacity = 4096;

    /** @param capacity Maximum records per refill (>= 1). */
    explicit RecordBatch(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
        records_.resize(capacity_);
    }

    /**
     * Replace the buffer contents with the next records of @p source,
     * stopping after the @p max_conditionals-th conditional record (a
     * planned replay's worked span ends there).
     *
     * @return the number of records buffered; 0 iff the source is
     *         exhausted or @p max_conditionals is 0. A short
     *         (non-zero) count means the source ended inside this
     *         batch or the conditional limit was reached.
     */
    std::size_t
    refill(TraceSource &source,
           std::uint64_t max_conditionals = ~std::uint64_t{0})
    {
        size_ = 0;
        conditionals_ = 0;
        while (size_ < capacity_ && conditionals_ < max_conditionals) {
            if (!source.next(records_[size_]))
                break;
            if (records_[size_].isConditional())
                ++conditionals_;
            ++size_;
        }
        return size_;
    }

    /** Discard buffered records (e.g. after a failed refill). */
    void
    clear()
    {
        size_ = 0;
        conditionals_ = 0;
    }

    /** @return records buffered by the last refill(). */
    std::size_t size() const { return size_; }

    /** @return true iff the last refill() buffered nothing. */
    bool empty() const { return size_ == 0; }

    /** @return conditional records in the current batch. */
    std::size_t conditionals() const { return conditionals_; }

    /** @return the buffer capacity in records. */
    std::size_t capacity() const { return capacity_; }

    /** @return record @p index of the current batch (< size()). */
    const BranchRecord &operator[](std::size_t index) const
    {
        return records_[index];
    }

    /** Replay iteration (first size() entries are valid). */
    const BranchRecord *begin() const { return records_.data(); }
    const BranchRecord *end() const { return records_.data() + size_; }

  private:
    std::size_t capacity_;
    std::size_t size_ = 0;
    std::size_t conditionals_ = 0;
    std::vector<BranchRecord> records_;
};

} // namespace confsim

#endif // CONFSIM_TRACE_RECORD_BATCH_H
