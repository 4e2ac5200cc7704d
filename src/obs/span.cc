#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "util/atomic_file.h"

namespace confsim {

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::size_t
roundUpPowerOfTwo(std::size_t n)
{
    std::size_t p = 1;
    while (p < n && p < (std::size_t{1} << 30))
        p <<= 1;
    return p;
}

/**
 * Per-thread cache of "which ring do I push into". Tracer identity is
 * a process-unique id (never an address), so a new tracer reusing a
 * dead tracer's address can never hit a stale cache entry.
 */
struct ThreadSlot
{
    std::uint64_t tracerId = 0;
    void *ring = nullptr;
};

thread_local ThreadSlot t_slot;

std::atomic<std::uint64_t> g_nextTracerId{1};

} // namespace

SpanTracer::SpanTracer(SpanTracerOptions options)
    : options_(std::move(options)),
      id_(g_nextTracerId.fetch_add(1, std::memory_order_relaxed)),
      epochNs_(steadyNowNs())
{
    options_.ringCapacity =
        roundUpPowerOfTwo(std::max<std::size_t>(options_.ringCapacity, 8));
}

SpanTracer::~SpanTracer()
{
    finish();
}

std::uint64_t
SpanTracer::nowNs() const
{
    return steadyNowNs() - epochNs_;
}

SpanTracer::Ring *
SpanTracer::ringForThisThread()
{
    if (t_slot.tracerId == id_)
        return static_cast<Ring *>(t_slot.ring);
    std::lock_guard<std::mutex> lock(mutex_);
    auto ring = std::make_unique<Ring>(options_.ringCapacity);
    ring->tid = static_cast<int>(rings_.size());
    ring->threadName =
        ring->tid == 0 ? "main" : "thread-" + std::to_string(ring->tid);
    Ring *raw = ring.get();
    rings_.push_back(std::move(ring));
    t_slot = {id_, raw};
    return raw;
}

void
SpanTracer::push(const char *name, char phase, std::uint64_t value)
{
    Ring *ring = ringForThisThread();
    const std::uint64_t head =
        ring->head.load(std::memory_order_relaxed);
    Event &e = ring->events[head & (ring->events.size() - 1)];
    e.tsNs = nowNs();
    e.value = value;
    e.phase = phase;
    std::strncpy(e.name, name, kMaxName);
    e.name[kMaxName] = '\0';
    ring->head.store(head + 1, std::memory_order_release);
}

void
SpanTracer::beginSpan(const char *name)
{
    push(name, 'B', 0);
}

void
SpanTracer::endSpan(const char *name)
{
    push(name, 'E', 0);
}

void
SpanTracer::counter(const char *name, std::uint64_t value)
{
    push(name, 'C', value);
}

void
SpanTracer::setCurrentThreadName(const char *name)
{
    Ring *ring = ringForThisThread();
    if (ring->named.load(std::memory_order_relaxed))
        return;
    ring->threadName = name;
    ring->named.store(true, std::memory_order_relaxed);
}

std::size_t
SpanTracer::threadsSeen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rings_.size();
}

void
SpanTracer::drainRing(const Ring &ring, std::vector<RawEvent> *out) const
{
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t capacity = ring.events.size();
    const std::uint64_t first = head > capacity ? head - capacity : 0;
    for (std::uint64_t i = first; i < head; ++i) {
        const Event &e = ring.events[i & (capacity - 1)];
        RawEvent raw;
        raw.tid = ring.tid;
        raw.threadName = ring.threadName;
        raw.name = e.name;
        raw.phase = e.phase;
        raw.tsNs = e.tsNs;
        raw.value = e.value;
        out->push_back(std::move(raw));
    }
}

std::vector<SpanTracer::RawEvent>
SpanTracer::snapshotEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RawEvent> out;
    for (const auto &ring : rings_)
        drainRing(*ring, &out);
    return out;
}

SpanTracer::Summary
SpanTracer::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_)
        return summary_;
    finished_ = true;

    summary_.path = options_.path;
    summary_.threads = rings_.size();
    for (const auto &ring : rings_) {
        const std::uint64_t head =
            ring->head.load(std::memory_order_acquire);
        const std::uint64_t capacity = ring->events.size();
        summary_.dropped += head > capacity ? head - capacity : 0;
    }

    // Per-name aggregation (closed spans only) via a per-tid stack;
    // the same walk repairs begin/end balance across ring wraparound.
    std::map<std::string, NameSummary> byName;
    std::unique_ptr<AtomicFileWriter> writer;
    std::ostringstream discard;
    if (!options_.path.empty())
        writer = std::make_unique<AtomicFileWriter>(options_.path);
    std::ostream &out = writer ? writer->stream() : discard;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"ts\":0,\"args\":{\"name\":\"confsim\"}}";
    for (const auto &ring : rings_) {
        out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
            << "\"tid\":" << ring->tid << ",\"ts\":0,\"args\":{\"name\":"
            << jsonString(ring->threadName) << "}}";
    }

    const auto emitTs = [&out](std::uint64_t tsNs) {
        // Chrome trace timestamps are microseconds.
        out << jsonNumber(static_cast<double>(tsNs) * 1e-3);
    };

    for (const auto &ring : rings_) {
        std::vector<RawEvent> drained;
        drainRing(*ring, &drained);
        // Stack of open (name, begin-ts) pairs on this thread. RAII
        // guarantees LIFO nesting, so an 'E' that cannot be matched
        // belongs to a 'B' lost to wraparound — skip it; a 'B' still
        // open at the end of the stream is closed at the last
        // timestamp seen, keeping the file balanced either way.
        std::vector<std::pair<std::string, std::uint64_t>> open;
        std::uint64_t lastTs = 0;
        for (const RawEvent &e : drained) {
            lastTs = std::max(lastTs, e.tsNs);
            if (e.phase == 'C') {
                out << ",\n{\"name\":" << jsonString(e.name)
                    << ",\"ph\":\"C\",\"pid\":1,\"tid\":" << ring->tid
                    << ",\"ts\":";
                emitTs(e.tsNs);
                out << ",\"args\":{\"value\":" << e.value << "}}";
                continue;
            }
            if (e.phase == 'B') {
                open.emplace_back(e.name, e.tsNs);
                out << ",\n{\"name\":" << jsonString(e.name)
                    << ",\"cat\":\"confsim\",\"ph\":\"B\",\"pid\":1,"
                    << "\"tid\":" << ring->tid << ",\"ts\":";
                emitTs(e.tsNs);
                out << "}";
                summary_.events++;
                continue;
            }
            if (open.empty() || open.back().first != e.name)
                continue; // begin lost to wraparound
            NameSummary &agg = byName[e.name];
            agg.name = e.name;
            agg.count++;
            agg.totalNs +=
                static_cast<double>(e.tsNs - open.back().second);
            open.pop_back();
            out << ",\n{\"ph\":\"E\",\"pid\":1,\"tid\":" << ring->tid
                << ",\"ts\":";
            emitTs(e.tsNs);
            out << "}";
            summary_.events++;
        }
        while (!open.empty()) {
            NameSummary &agg = byName[open.back().first];
            agg.name = open.back().first;
            agg.count++;
            agg.totalNs +=
                static_cast<double>(lastTs - open.back().second);
            open.pop_back();
            out << ",\n{\"ph\":\"E\",\"pid\":1,\"tid\":" << ring->tid
                << ",\"ts\":";
            emitTs(lastTs);
            out << "}";
            summary_.events++;
        }
    }
    out << "\n]}\n";
    if (writer)
        writer->commit();

    summary_.spans.reserve(byName.size());
    for (auto &entry : byName)
        summary_.spans.push_back(std::move(entry.second));
    return summary_;
}

} // namespace confsim
