#include "metrics/table_report.h"

#include "util/string_utils.h"

namespace confsim {

std::vector<CounterTableRow>
buildCounterTable(const BucketStats &stats)
{
    const double total_refs = stats.totalRefs();
    const double total_mispredicts = stats.totalMispredicts();

    std::vector<CounterTableRow> rows;
    double cum_refs = 0.0;
    double cum_mispredicts = 0.0;
    for (std::uint64_t value = 0; value < stats.numBuckets(); ++value) {
        const BucketCounts counts = stats[value];
        cum_refs += counts.refs;
        cum_mispredicts += counts.mispredicts;

        CounterTableRow row;
        row.counterValue = value;
        row.mispredictRate = counts.rate();
        row.refPercent =
            total_refs > 0.0 ? 100.0 * counts.refs / total_refs : 0.0;
        row.mispredictPercent =
            total_mispredicts > 0.0
                ? 100.0 * counts.mispredicts / total_mispredicts
                : 0.0;
        row.cumRefPercent =
            total_refs > 0.0 ? 100.0 * cum_refs / total_refs : 0.0;
        row.cumMispredictPercent =
            total_mispredicts > 0.0
                ? 100.0 * cum_mispredicts / total_mispredicts
                : 0.0;
        rows.push_back(row);
    }
    return rows;
}

std::string
renderCounterTable(const std::vector<CounterTableRow> &rows)
{
    std::string out;
    out += padLeft("Count", 6) + padLeft("Mispred.", 10) +
           padLeft("% Refs.", 10) + padLeft("% Mispreds.", 13) +
           padLeft("Cum.% Refs.", 13) + padLeft("Cum.% Mispreds.", 17) +
           "\n";
    for (const auto &row : rows) {
        out += padLeft(std::to_string(row.counterValue), 6);
        out += padLeft(formatFixed(row.mispredictRate, 4), 10);
        out += padLeft(formatFixed(row.refPercent, 2), 10);
        out += padLeft(formatFixed(row.mispredictPercent, 2), 13);
        out += padLeft(formatFixed(row.cumRefPercent, 1), 13);
        out += padLeft(formatFixed(row.cumMispredictPercent, 1), 17);
        out += "\n";
    }
    return out;
}

} // namespace confsim
