#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/status.h"

namespace confbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t
digestStats(std::uint64_t branches, std::uint64_t mispredicts,
            const confsim::BucketStats &stats)
{
    Digest digest;
    digest.add(branches);
    digest.add(mispredicts);
    digest.add(stats.numBuckets());
    for (std::uint64_t b = 0; b < stats.numBuckets(); ++b) {
        digest.add(static_cast<std::uint64_t>(stats[b].refs));
        digest.add(static_cast<std::uint64_t>(stats[b].mispredicts));
    }
    return digest.value();
}

namespace {

struct PcCounts
{
    std::uint64_t pc;
    std::uint64_t refs;
    std::uint64_t mispredicts;
};

std::uint64_t
digestPcCounts(std::vector<PcCounts> entries)
{
    std::sort(entries.begin(), entries.end(),
              [](const PcCounts &a, const PcCounts &b) {
                  return a.pc < b.pc;
              });
    Digest digest;
    for (const PcCounts &entry : entries) {
        digest.add(entry.pc);
        digest.add(entry.refs);
        digest.add(entry.mispredicts);
    }
    return digest.value();
}

} // namespace

std::uint64_t
digestProfile(const confsim::StaticBranchProfile &profile)
{
    std::vector<PcCounts> entries;
    for (const auto &[pc, entry] : profile.entries())
        entries.push_back({pc, entry.executions, entry.mispredictions});
    return digestPcCounts(std::move(entries));
}

std::uint64_t
digestProfile(const confsim::SparseBucketStats &stats)
{
    constexpr std::uint64_t kPcMask = (std::uint64_t{1} << 48) - 1;
    std::vector<PcCounts> entries;
    for (const auto &keyed : stats.nonEmpty()) {
        entries.push_back(
            {keyed.bucket & kPcMask,
             static_cast<std::uint64_t>(keyed.counts.refs),
             static_cast<std::uint64_t>(keyed.counts.mispredicts)});
    }
    return digestPcCounts(std::move(entries));
}

void
Expected::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        confsim::fatal("cannot write expected values to " + path);
    char line[256];
    for (const auto &[key, digest] : digests) {
        std::snprintf(line, sizeof line, "digest %s %016" PRIx64 "\n",
                      key.c_str(), digest);
        out << line;
    }
    for (const auto &[key, value] : values) {
        std::snprintf(line, sizeof line, "value %s %.17g\n", key.c_str(),
                      value);
        out << line;
    }
    if (!out.flush())
        confsim::fatal("failed writing expected values to " + path);
}

Expected
Expected::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        confsim::fatal("cannot read expected values from " + path);
    Expected expected;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string kind, key, text;
        if (!(fields >> kind >> key >> text))
            confsim::fatal("malformed expected-values line: " + line);
        if (kind == "digest")
            expected.digests[key] = std::stoull(text, nullptr, 16);
        else if (kind == "value")
            expected.values[key] = std::stod(text);
        else
            confsim::fatal("unknown expected-values kind: " + line);
    }
    return expected;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    if (++failed_ <= 5)
        std::fprintf(stderr, "confbench: check failed: %s\n", what.c_str());
}

void
Checks::fail(const std::string &why)
{
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "confbench: iteration failed: %s\n", why.c_str());
}

void
checkDigest(Checks &checks, const Expected &expected,
            const std::string &key, std::uint64_t actual)
{
    const auto it = expected.digests.find(key);
    checks.expect(it != expected.digests.end() && it->second == actual,
                  "digest " + key);
}

void
Rows::set(const std::string &name, const std::string &unit, double value)
{
    for (Metric &row : rows_) {
        if (row.name == name) {
            row.unit = unit;
            row.value = value;
            return;
        }
    }
    rows_.push_back({name, unit, value});
}

bool
Rows::has(const std::string &name) const
{
    for (const Metric &row : rows_) {
        if (row.name == name)
            return true;
    }
    return false;
}

double
Rows::get(const std::string &name) const
{
    for (const Metric &row : rows_) {
        if (row.name == name)
            return row.value;
    }
    confsim::fatal("confbench: no metric named " + name);
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<confsim::BenchmarkProfile>
seededProfiles(std::uint64_t seed)
{
    std::vector<confsim::BenchmarkProfile> profiles = confsim::ibsProfiles();
    for (auto &profile : profiles)
        profile.seed = mix64(profile.seed ^ mix64(seed));
    return profiles;
}

} // namespace confbench
