/**
 * @file
 * CancellationToken semantics: parent->child chaining (the mechanism
 * the suite runner uses to layer its own teardown over a caller's
 * token), child isolation, concurrent cancel/poll safety,
 * throwIfCancelled's error category, and the SIGTERM bridge of
 * util/signal_cancellation.h.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/cancellation.h"
#include "util/error.h"
#include "util/signal_cancellation.h"

namespace confsim {
namespace {

TEST(CancellationTokenTest, StartsUncancelled)
{
    CancellationToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled("work"));
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    token.cancel(); // idempotent
    EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, ThrowIfCancelledRaisesCancelledCategory)
{
    CancellationToken token;
    token.cancel();
    try {
        token.throwIfCancelled("benchmark gcc");
        FAIL() << "expected Error{kCancelled}";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
        EXPECT_NE(std::string(e.what()).find("benchmark gcc"),
                  std::string::npos);
    }
}

TEST(CancellationTokenTest, ChildObservesParentCancel)
{
    CancellationToken parent;
    CancellationToken child(&parent);
    EXPECT_FALSE(child.cancelled());
    EXPECT_NO_THROW(child.throwIfCancelled("sweep shard"));
    parent.cancel();
    EXPECT_TRUE(child.cancelled());
    try {
        child.throwIfCancelled("sweep shard");
        FAIL() << "expected Error{kCancelled}";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
        EXPECT_STREQ(e.what(), "sweep shard cancelled");
    }
}

TEST(CancellationTokenTest, ChildCancelNeverPropagatesUp)
{
    CancellationToken parent;
    CancellationToken child(&parent);
    CancellationToken sibling(&parent);
    child.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_FALSE(parent.cancelled());
    EXPECT_FALSE(sibling.cancelled());
}

TEST(CancellationTokenTest, GrandchildChainsThroughBothAncestors)
{
    CancellationToken root;
    CancellationToken child(&root);
    CancellationToken grandchild(&child);
    EXPECT_FALSE(grandchild.cancelled());
    root.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(grandchild.cancelled());
}

TEST(CancellationTokenTest, NullParentBehavesLikeRoot)
{
    CancellationToken token(nullptr);
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, ConcurrentCancelIsObservedByEveryChild)
{
    // One parent, many children polled from many threads while the
    // parent is cancelled concurrently: every poller must settle on
    // cancelled, with no torn reads (TSan-clean by construction).
    CancellationToken parent;
    constexpr int kChildren = 8;
    std::vector<std::unique_ptr<CancellationToken>> children;
    for (int i = 0; i < kChildren; ++i)
        children.push_back(
            std::make_unique<CancellationToken>(&parent));

    std::atomic<int> sawCancel{0};
    std::vector<std::thread> pollers;
    for (int i = 0; i < kChildren; ++i) {
        pollers.emplace_back([&, i] {
            const auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::seconds(10);
            while (!children[i]->cancelled()) {
                if (std::chrono::steady_clock::now() > deadline)
                    return;
            }
            ++sawCancel;
        });
    }
    std::thread canceller([&] { parent.cancel(); });
    canceller.join();
    for (std::thread &poller : pollers)
        poller.join();
    EXPECT_EQ(sawCancel.load(), kChildren);
}

TEST(CancellationTokenTest, SigtermCancelsTheInstalledToken)
{
    // Static: the handler keeps the token's address once installed.
    static CancellationToken token;
    installSignalCancellation(token);
    EXPECT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(lastCancellationSignal(), SIGTERM);
    EXPECT_EQ(exitCodeForSignal(SIGTERM), 143);
    // Later tests in this process get the default dispositions back.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

} // namespace
} // namespace confsim
