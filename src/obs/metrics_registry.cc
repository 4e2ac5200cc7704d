#include "obs/metrics_registry.h"

namespace confsim {

void
MetricsRegistry::increment(const std::string &name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_[name].add(value);
}

void
MetricsRegistry::mergeStats(const std::string &name,
                            const RunningStats &other)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_[name].merge(other);
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

RunningStats
MetricsRegistry::stats(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = stats_.find(name);
    return it == stats_.end() ? RunningStats{} : it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    // std::map iteration is already name-sorted, so snapshots are
    // deterministic regardless of registration order.
    snap.counters.assign(counters_.begin(), counters_.end());
    snap.gauges.assign(gauges_.begin(), gauges_.end());
    snap.stats.assign(stats_.begin(), stats_.end());
    return snap;
}

} // namespace confsim
