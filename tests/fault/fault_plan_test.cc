/**
 * @file
 * Unit tests for the fault plane (fault/fault_plan.h) and the
 * structured error taxonomy (util/error.h): grammar round-trips,
 * one-shot per-scope firing, action-to-category mapping, observer
 * delivery, and RAII disarming. Cancellation tokens are tested in
 * tests/util/cancellation_test.cc.
 */

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "util/error.h"

namespace confsim {
namespace {

TEST(FaultPlanParse, EmptySpecYieldsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(FaultPlanParse, FullGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "decode:batch=100:throw;ckpt:write=3:enospc;"
        "shard:cfg=5:crash;sink:flush:fail;shard:cfg=1,batch=2:hang");
    ASSERT_EQ(plan.rules().size(), 5u);

    EXPECT_EQ(plan.rules()[0].site, FaultSite::kDecodeBatch);
    EXPECT_EQ(plan.rules()[0].at, 100u);
    EXPECT_EQ(plan.rules()[0].key, FaultRule::kAnyKey);
    EXPECT_EQ(plan.rules()[0].action, FaultAction::kThrow);

    EXPECT_EQ(plan.rules()[1].site, FaultSite::kCheckpointWrite);
    EXPECT_EQ(plan.rules()[1].at, 3u);
    EXPECT_EQ(plan.rules()[1].action, FaultAction::kEnospc);

    EXPECT_EQ(plan.rules()[2].site, FaultSite::kShardReplay);
    EXPECT_EQ(plan.rules()[2].key, 5u);
    EXPECT_EQ(plan.rules()[2].at, 1u); // batch defaults to the first
    EXPECT_EQ(plan.rules()[2].action, FaultAction::kCrash);

    EXPECT_EQ(plan.rules()[3].site, FaultSite::kSinkFlush);
    EXPECT_EQ(plan.rules()[3].at, 1u); // bare `flush` means the first
    EXPECT_EQ(plan.rules()[3].action, FaultAction::kFail);

    EXPECT_EQ(plan.rules()[4].site, FaultSite::kShardReplay);
    EXPECT_EQ(plan.rules()[4].key, 1u);
    EXPECT_EQ(plan.rules()[4].at, 2u);
    EXPECT_EQ(plan.rules()[4].action, FaultAction::kHang);
}

/** Expect parse() to raise Error{kConfig} mentioning the rule text. */
void
expectRejected(const std::string &spec)
{
    SCOPED_TRACE(spec);
    try {
        FaultPlan::parse(spec);
        FAIL() << "expected fatal(kConfig)";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig);
        EXPECT_NE(std::string(e.what()).find("fault plan rule"),
                  std::string::npos);
    }
}

TEST(FaultPlanParse, RejectsBadGrammar)
{
    expectRejected("disk:write=1");          // unknown site
    expectRejected("ckpt:write=1:explode");  // unknown action
    expectRejected("ckpt:write=0");          // 0 is not a 1-based count
    expectRejected("shard:batch=2");         // shard requires cfg=N
    expectRejected("decode:records=5");      // unknown trigger key
    expectRejected("decode:batch=x");        // unparseable number
    expectRejected("ckpt");                  // no trigger at all
    expectRejected("ckpt:write=1:throw:extra");
}

TEST(FaultInjector, CountsPerScopeAndFiresOnce)
{
    ScopedFaultPlan scoped("ckpt:write=2:throw");
    FaultInjector &injector = FaultInjector::instance();
    EXPECT_TRUE(injector.armed());

    // Occurrence counting is per scope: interleaving stores does not
    // advance each other's counters.
    EXPECT_EQ(injector.fire(FaultSite::kCheckpointWrite, "a"),
              FaultAction::kNone);
    EXPECT_EQ(injector.fire(FaultSite::kCheckpointWrite, "b"),
              FaultAction::kNone);
    EXPECT_THROW(injector.fire(FaultSite::kCheckpointWrite, "a"),
                 Error);

    // One-shot: the rule is consumed, the injector disarms, and scope
    // "b" never reaches a pending trigger.
    EXPECT_FALSE(injector.armed());
    EXPECT_EQ(injector.fire(FaultSite::kCheckpointWrite, "b"),
              FaultAction::kNone);
    EXPECT_EQ(injector.injectedCount(), 1u);

    const std::vector<FaultHit> hits = injector.hits();
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].site, FaultSite::kCheckpointWrite);
    EXPECT_EQ(hits[0].scope, "a");
    EXPECT_EQ(hits[0].occurrence, 2u);
}

TEST(FaultInjector, ActionsMapOntoTaxonomy)
{
    {
        ScopedFaultPlan scoped("ckpt:write=1:enospc");
        try {
            FaultInjector::instance().fire(FaultSite::kCheckpointWrite,
                                           "s");
            FAIL() << "expected injected ENOSPC";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kResource);
            EXPECT_NE(std::string(e.what()).find("ENOSPC"),
                      std::string::npos);
        }
    }
    {
        ScopedFaultPlan scoped("shard:cfg=5:crash");
        FaultInjector &injector = FaultInjector::instance();
        // Key mismatch: config 4's first batch does not trigger a
        // cfg=5 rule (but does advance config 4's own counter).
        EXPECT_EQ(injector.fire(FaultSite::kShardReplay, "s", 4),
                  FaultAction::kNone);
        try {
            injector.fire(FaultSite::kShardReplay, "s", 5);
            FAIL() << "expected injected crash";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kInternal);
            EXPECT_NE(std::string(e.what()).find("simulated crash"),
                      std::string::npos);
        }
    }
    {
        ScopedFaultPlan scoped("decode:batch=1:throw");
        try {
            FaultInjector::instance().fire(FaultSite::kDecodeBatch,
                                           "s");
            FAIL() << "expected injected decode fault";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kTrace);
        }
    }
    {
        ScopedFaultPlan scoped("sink:flush:fail");
        try {
            FaultInjector::instance().fire(FaultSite::kSinkFlush, "s");
            FAIL() << "expected injected sink fault";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kResource);
        }
    }
}

TEST(FaultInjector, HangIsReturnedNotThrown)
{
    ScopedFaultPlan scoped("decode:batch=1:hang");
    EXPECT_EQ(FaultInjector::instance().fire(FaultSite::kDecodeBatch,
                                             "s"),
              FaultAction::kHang);
}

TEST(FaultInjector, ObserverSeesEveryHit)
{
    std::vector<FaultHit> seen;
    ScopedFaultPlan scoped("shard:cfg=2,batch=3:throw",
                           [&seen](const FaultHit &hit) {
                               seen.push_back(hit);
                           });
    FaultInjector &injector = FaultInjector::instance();
    EXPECT_EQ(injector.fire(FaultSite::kShardReplay, "jpeg", 2),
              FaultAction::kNone);
    EXPECT_EQ(injector.fire(FaultSite::kShardReplay, "jpeg", 2),
              FaultAction::kNone);
    EXPECT_THROW(injector.fire(FaultSite::kShardReplay, "jpeg", 2),
                 Error);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].scope, "jpeg");
    EXPECT_EQ(seen[0].key, 2u);
    EXPECT_EQ(seen[0].occurrence, 3u);
    EXPECT_EQ(seen[0].action, FaultAction::kThrow);
}

TEST(FaultInjector, ScopedPlanDisarmsOnDestruction)
{
    {
        ScopedFaultPlan scoped("decode:batch=1:throw");
        EXPECT_TRUE(FaultInjector::instance().armed());
    }
    EXPECT_FALSE(FaultInjector::instance().armed());
    EXPECT_EQ(FaultInjector::instance().fire(FaultSite::kDecodeBatch,
                                             "s"),
              FaultAction::kNone);
}

TEST(ErrorTaxonomy, NonErrorExceptionsAreInternal)
{
    const std::runtime_error legacy("pre-taxonomy failure");
    EXPECT_EQ(categoryOf(legacy), ErrorCategory::kInternal);
    EXPECT_EQ(categoryOf(Error(ErrorCategory::kTrace, "x")),
              ErrorCategory::kTrace);
}

TEST(ErrorTaxonomy, CategorizedFatalKeepsMessageText)
{
    try {
        fatal(ErrorCategory::kCheckpoint, "store exploded");
        FAIL() << "fatal() must throw";
    } catch (const Error &e) {
        EXPECT_STREQ(e.what(), "fatal: store exploded");
        EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint);
    }
    // Pre-taxonomy catch sites that expect std::runtime_error still
    // see categorized errors.
    EXPECT_THROW(fatal(ErrorCategory::kConfig, "bad flag"),
                 std::runtime_error);
}

} // namespace
} // namespace confsim
