/**
 * @file
 * Execution-span tracing: where does wall time go *inside* a run?
 *
 * The telemetry layer (telemetry.h) answers "what happened" at event
 * granularity; spans answer "when, on which thread, nested inside
 * what". Each instrumented scope pushes a begin/end pair (steady-clock
 * nanoseconds) into a lock-free ring buffer owned by the emitting
 * thread, so the hot path never takes a mutex and never allocates
 * after the thread's first span. At the end of the run the tracer
 * drains every ring into a Chrome trace-event JSON file that loads
 * directly into Perfetto (https://ui.perfetto.dev) or chrome://tracing,
 * with named threads, nested duration spans, and counter tracks.
 * confbench's traced probe writes one (`sweep_trace.json`,
 * confbench/README.md).
 *
 * The facade follows the same null-pointer contract as `Telemetry`:
 * every instrumentation site takes a `SpanTracer *` and a null tracer
 * means tracing is off — `ScopedSpan{nullptr, "x"}` is a single
 * perfectly-predicted branch, no clock read, no allocation
 * (pinned by `SpanTest.DisabledTracerAllocatesNothing`).
 *
 * Rings deliberately overwrite their *oldest* entries when full (the
 * newest activity is what a post-mortem wants); the exporter repairs
 * begin/end balance across the dropped prefix, so the emitted JSON
 * always has matching "B"/"E" pairs (`scripts/validate_trace.py`
 * enforces this in CI).
 */

#ifndef CONFSIM_OBS_SPAN_H
#define CONFSIM_OBS_SPAN_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace confsim {

/** Configuration for a SpanTracer. */
struct SpanTracerOptions
{
    /** Chrome trace JSON destination; empty = finish() writes none. */
    std::string path;

    /**
     * Events retained per emitting thread (rounded up to a power of
     * two). When a thread outruns its ring the oldest events are
     * overwritten and counted as dropped.
     */
    std::size_t ringCapacity = 1u << 15;
};

/**
 * Collects spans and counter samples from many threads and exports a
 * Chrome trace-event file. Construction is cheap; per-thread rings are
 * allocated lazily on each thread's first span.
 */
class SpanTracer
{
  public:
    explicit SpanTracer(SpanTracerOptions options);

    /** Runs finish() if nobody did. */
    ~SpanTracer();

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** Maximum name length stored per event (longer names truncate). */
    static constexpr std::size_t kMaxName = 30;

    /** Open a duration span on the calling thread. */
    void beginSpan(const char *name);

    /** Close the calling thread's innermost span named @p name. */
    void endSpan(const char *name);

    /** Record one counter-track sample (value at now). */
    void counter(const char *name, std::uint64_t value);

    /**
     * Name the calling thread's track in the exported trace. The first
     * name a thread sets wins; later calls are cheap no-ops, so
     * per-task code may call this unconditionally.
     */
    void setCurrentThreadName(const char *name);

    /** @return nanoseconds since tracer construction (steady clock). */
    std::uint64_t nowNs() const;

    /** Per-span-name aggregate in a finished trace. */
    struct NameSummary
    {
        std::string name;
        std::uint64_t count = 0; //!< closed spans of this name
        double totalNs = 0.0;    //!< summed duration of closed spans
    };

    /** What finish() observed and wrote. */
    struct Summary
    {
        std::string path;           //!< file written ("" if none)
        std::uint64_t events = 0;   //!< retained ring events exported
        std::uint64_t dropped = 0;  //!< events lost to ring wraparound
        std::uint64_t threads = 0;  //!< threads that emitted anything
        std::vector<NameSummary> spans; //!< name-sorted aggregates
    };

    /**
     * Drain all rings, write the Chrome trace JSON, and return the
     * aggregate summary. Must only run while emitting threads are
     * quiescent (a suite run joins its pass threads before it
     * returns). Idempotent: the second call returns the first call's
     * summary without rewriting the file.
     */
    Summary finish();

    const SpanTracerOptions &options() const { return options_; }

    /** One drained event, for tests and the exporter. */
    struct RawEvent
    {
        int tid = 0;
        std::string threadName;
        std::string name;
        char phase = 'B'; //!< 'B' begin, 'E' end, 'C' counter
        std::uint64_t tsNs = 0;
        std::uint64_t value = 0; //!< counter sample ('C' only)
    };

    /**
     * @return every retained event in per-thread order (timestamps are
     * monotonic within one tid). Test support; does not finish().
     */
    std::vector<RawEvent> snapshotEvents() const;

    /** @return number of threads that have registered a ring. */
    std::size_t threadsSeen() const;

  private:
    struct Event
    {
        std::uint64_t tsNs = 0;
        std::uint64_t value = 0;
        char name[kMaxName + 1] = {0};
        char phase = 'B';
    };

    struct Ring
    {
        explicit Ring(std::size_t capacity) : events(capacity) {}

        std::vector<Event> events; //!< power-of-two sized
        /** Total events ever pushed; entry i lives at i % capacity. */
        std::atomic<std::uint64_t> head{0};
        int tid = 0;
        std::string threadName;
        std::atomic<bool> named{false};
    };

    Ring *ringForThisThread();
    void push(const char *name, char phase, std::uint64_t value);
    void drainRing(const Ring &ring, std::vector<RawEvent> *out) const;

    SpanTracerOptions options_;
    std::uint64_t id_;          //!< process-unique, for the TLS cache
    std::uint64_t epochNs_;     //!< steady-clock origin
    mutable std::mutex mutex_;  //!< guards rings_ registration
    std::vector<std::unique_ptr<Ring>> rings_;
    bool finished_ = false;
    Summary summary_; //!< valid once finished_
};

/**
 * RAII duration span. With a null tracer both constructor and
 * destructor are a single null test — safe to leave in hot code.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTracer *tracer, const char *name)
        : tracer_(tracer), name_(name)
    {
        if (tracer_)
            tracer_->beginSpan(name_);
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->endSpan(name_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTracer *tracer_;
    const char *name_;
};

} // namespace confsim

#endif // CONFSIM_OBS_SPAN_H
