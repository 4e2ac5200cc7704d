/**
 * @file
 * Deterministic fault plane: a parsed FaultPlan armes the process-wide
 * FaultInjector, whose hooks are compiled into the sweep engine's batch
 * refills and per-configuration replays, CheckpointStore writes, and
 * telemetry sinks. With no plan installed every hook is a single
 * relaxed atomic load, so production runs pay nothing.
 *
 * Grammar (CLI `--fault-plan`):
 *
 *   plan    := rule (';' rule)*
 *   rule    := site ':' trigger [':' action]
 *   site    := decode | shard | ckpt | sink
 *   trigger := site-specific comma-separated key=value pairs
 *   action  := throw | fail | crash | enospc | hang   (default: throw)
 *
 * Triggers (all occurrence counts are 1-based and counted per scope,
 * where a scope is one benchmark run / one checkpoint store label):
 *
 *   decode:batch=N          fail decoding the Nth record batch
 *   shard:cfg=C[,batch=N]   fail config C's Nth replayed batch (N=1);
 *                           fires as the pass replays that batch into C
 *   ckpt:write=N            fail the Nth checkpoint-store write
 *   sink:flush[=N]          fail the Nth telemetry sink flush (N=1)
 *
 * Examples: `decode:batch=100:throw`, `ckpt:write=3:enospc`,
 * `shard:cfg=5:crash`, `sink:flush:fail`, and compositions such as
 * `shard:cfg=1,batch=2:crash;ckpt:write=1:enospc`.
 *
 * Each rule fires exactly once (the first scope to reach its trigger
 * wins); determinism therefore requires serial benchmark scheduling or
 * a single-benchmark run, which is what the chaos suite and the CI
 * smoke job use. Actions map onto the error taxonomy: throw/fail raise
 * the site's natural category (decode→kTrace, shard→kInternal,
 * ckpt→kCheckpoint, sink→kResource), enospc raises kResource with
 * ENOSPC wording, crash raises kInternal, and hang is returned to the
 * call site, which parks cooperatively until the watchdog deadline or
 * cancellation unwinds it.
 */

#ifndef CONFSIM_FAULT_FAULT_PLAN_H
#define CONFSIM_FAULT_FAULT_PLAN_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace confsim {

enum class FaultSite : std::uint8_t {
    kDecodeBatch = 0,
    kShardReplay,
    kCheckpointWrite,
    kSinkFlush,
};

/** Stable name used in telemetry counters (`fault.injected.<site>`). */
const char *toString(FaultSite site);

enum class FaultAction : std::uint8_t {
    kNone = 0,
    kThrow,  ///< raise the site's natural error category
    kFail,   ///< synonym of kThrow (reads better for sink faults)
    kCrash,  ///< raise kInternal, wording mimics an unexpected abort
    kEnospc, ///< raise kResource with ENOSPC wording
    kHang,   ///< returned to caller; caller parks until unwound
};

const char *toString(FaultAction action);

/** One parsed rule. key discriminates shard rules by config index
 *  (kAnyKey elsewhere); `at` is the 1-based occurrence to fire on. */
struct FaultRule {
    static constexpr std::uint64_t kAnyKey = ~std::uint64_t{0};

    FaultSite site = FaultSite::kDecodeBatch;
    std::uint64_t key = kAnyKey;
    std::uint64_t at = 1;
    FaultAction action = FaultAction::kThrow;
};

/** An immutable parsed schedule of FaultRules. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Parse @p spec; fatal(kConfig, ...) on any grammar violation.
     *  An empty spec yields an empty plan. */
    static FaultPlan parse(const std::string &spec);

    bool empty() const { return rules_.empty(); }
    const std::vector<FaultRule> &rules() const { return rules_; }
    const std::string &spec() const { return spec_; }

  private:
    std::vector<FaultRule> rules_;
    std::string spec_;
};

/** Description of one injected fault, passed to the observer before
 *  the corresponding error (if any) is raised. */
struct FaultHit {
    FaultSite site = FaultSite::kDecodeBatch;
    FaultAction action = FaultAction::kThrow;
    std::string scope;              ///< benchmark / store label
    std::uint64_t key = 0;          ///< shard config index, else 0
    std::uint64_t occurrence = 0;   ///< 1-based trigger count hit
};

using FaultObserver = std::function<void(const FaultHit &)>;

/**
 * Process-wide injector. install() arms it with a plan; every hook
 * calls fire(), which counts one occurrence at (site, scope, key) and,
 * when a pending rule's trigger is reached, records the hit, notifies
 * the observer, and either throws the mapped Error (throw/fail/crash/
 * enospc) or returns kHang for the caller to act on. Disarmed (the
 * common case), fire() is never reached: callers gate on armed().
 *
 * Thread-safe: counters and rule state live under one mutex; armed()
 * is a relaxed atomic so the fast path stays branch-plus-load.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Arm with @p plan, resetting all counters and hit history. */
    void install(FaultPlan plan);

    /** Disarm and clear counters, hit history, and observer. */
    void clear();

    bool
    armed() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /**
     * Count one occurrence of @p site in @p scope (key @p key) and
     * fire any matching pending rule. Throws the mapped Error for
     * throwing actions; returns kHang or kNone otherwise.
     */
    FaultAction fire(FaultSite site, const std::string &scope,
                     std::uint64_t key = 0);

    /** Observer invoked (under no lock) for every injected fault. */
    void setObserver(FaultObserver observer);

    /** Total faults injected since install(). */
    std::uint64_t injectedCount() const;

    /** Hits recorded since install(), in injection order. */
    std::vector<FaultHit> hits() const;

  private:
    FaultInjector() = default;

    std::atomic<bool> armed_{false};
    mutable std::mutex mutex_;
    std::vector<FaultRule> pending_;
    std::map<std::string, std::uint64_t> counters_;
    std::vector<FaultHit> hits_;
    FaultObserver observer_;
};

/** RAII plan installation for tests and CLI main(): installs on
 *  construction, restores the disarmed state on destruction. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const std::string &spec,
                             FaultObserver observer = nullptr);
    explicit ScopedFaultPlan(FaultPlan plan,
                             FaultObserver observer = nullptr);
    ~ScopedFaultPlan();

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

} // namespace confsim

#endif // CONFSIM_FAULT_FAULT_PLAN_H
