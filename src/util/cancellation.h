/**
 * @file
 * Cooperative cancellation. A CancellationToken is a shared flag that
 * long-running loops (the replay kernel's record loop, the sweep
 * engine's batch refills, the suite runner's pass threads) poll at a
 * coarse stride; cancel() makes every poller unwind promptly with
 * Error{kCancelled}.
 *
 * Tokens can be chained: a child constructed with a parent pointer
 * reports cancelled when either itself or the parent is cancelled. The
 * suite runner uses this to layer fail-fast/deadline teardown on top of
 * a caller-provided external token without ever mutating the caller's
 * object.
 */

#ifndef CONFSIM_UTIL_CANCELLATION_H
#define CONFSIM_UTIL_CANCELLATION_H

#include <atomic>
#include <string>

#include "util/error.h"

namespace confsim {

class CancellationToken
{
  public:
    CancellationToken() = default;

    /** Chained token: cancelled when this or @p parent is cancelled.
     *  @p parent may be null and must outlive this token. */
    explicit CancellationToken(const CancellationToken *parent)
        : parent_(parent)
    {}

    CancellationToken(const CancellationToken &) = delete;
    CancellationToken &operator=(const CancellationToken &) = delete;

    void
    cancel() noexcept
    {
        cancelled_.store(true, std::memory_order_release);
    }

    bool
    cancelled() const noexcept
    {
        if (cancelled_.load(std::memory_order_acquire))
            return true;
        return parent_ != nullptr && parent_->cancelled();
    }

    /** Throw Error{kCancelled} when cancelled; @p what names the work
     *  being abandoned ("sweep shard", "benchmark gcc"). */
    void
    throwIfCancelled(const std::string &what) const
    {
        if (cancelled())
            throw Error(ErrorCategory::kCancelled,
                        what + " cancelled");
    }

  private:
    std::atomic<bool> cancelled_{false};
    const CancellationToken *parent_ = nullptr;
};

} // namespace confsim

#endif // CONFSIM_UTIL_CANCELLATION_H
