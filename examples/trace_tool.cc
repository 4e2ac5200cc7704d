/**
 * @file
 * Trace tool: generate, inspect, and convert branch trace files.
 *
 * Subcommands (first positional argument):
 *   gen <out.cbt>    generate a synthetic benchmark trace file
 *   stats <in.cbt>   print summary statistics for a trace file
 *   text <in.cbt> <out.txt>   convert to the debug text format
 *   checkpoint inspect <file...>  dump a checkpoint's registry
 *   checkpoint verify <file...>   exit 1 if any file fails its CRCs
 *   profile <profile.csv>  render a --branch-profile CSV export as
 *                          top-offender and calibration tables
 *
 * Examples:
 *   ./build/examples/trace_tool gen /tmp/gcc.cbt --benchmark real_gcc
 *   ./build/examples/trace_tool stats /tmp/gcc.cbt
 *   ./build/examples/trace_tool text /tmp/gcc.cbt /tmp/gcc.txt
 *   ./build/examples/trace_tool checkpoint inspect ckpt/groff.*.g000003.ckpt
 *   ./build/examples/trace_tool profile /tmp/profile.csv --top 20
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "ckpt/checkpoint.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "util/cli.h"
#include "workload/workload_generator.h"

using namespace confsim;

namespace {

int
cmdGen(const CliParser &cli)
{
    if (cli.positional().size() < 2) {
        std::printf("usage: trace_tool gen <out.cbt> [--benchmark B] "
                    "[--branches N]\n");
        return 1;
    }
    const std::string out = cli.positional()[1];
    WorkloadGenerator gen(ibsProfile(cli.getString("benchmark")),
                          cli.getUnsigned("branches"));
    const std::uint64_t n = writeTraceFile(gen, out);
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(n), out.c_str());
    return 0;
}

int
cmdStats(const CliParser &cli)
{
    if (cli.positional().size() < 2) {
        std::printf("usage: trace_tool stats <in.cbt>\n");
        return 1;
    }
    const RecoveryMode mode = cli.getFlag("recover")
                                  ? RecoveryMode::kSkipCorrupt
                                  : RecoveryMode::kStrict;
    TraceFileReader reader(cli.positional()[1], mode);
    const TraceStats stats = collectTraceStats(reader);
    std::printf("records          : %llu\n",
                static_cast<unsigned long long>(stats.totalRecords));
    if (reader.droppedRecords() != 0)
        std::printf("dropped (corrupt): %llu\n",
                    static_cast<unsigned long long>(
                        reader.droppedRecords()));
    std::printf("conditional      : %llu\n",
                static_cast<unsigned long long>(
                    stats.conditionalCount));
    std::printf("taken rate       : %.2f%%\n",
                100.0 * stats.takenRate());
    std::printf("static branches  : %llu\n",
                static_cast<unsigned long long>(
                    stats.staticBranchCount));
    std::printf("calls/returns    : %llu / %llu\n",
                static_cast<unsigned long long>(stats.callCount),
                static_cast<unsigned long long>(stats.returnCount));

    // Hottest static branches.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> hot(
        stats.perPcCounts.begin(), stats.perPcCounts.end());
    std::sort(hot.begin(), hot.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    std::printf("hottest branches :\n");
    for (std::size_t i = 0; i < hot.size() && i < 5; ++i) {
        std::printf("  0x%llx  %llu executions (%.1f%%)\n",
                    static_cast<unsigned long long>(hot[i].first),
                    static_cast<unsigned long long>(hot[i].second),
                    100.0 * static_cast<double>(hot[i].second) /
                        static_cast<double>(stats.conditionalCount));
    }
    return 0;
}

int
cmdText(const CliParser &cli)
{
    if (cli.positional().size() < 3) {
        std::printf("usage: trace_tool text <in.cbt> <out.txt>\n");
        return 1;
    }
    TraceFileReader reader(cli.positional()[1]);
    const std::uint64_t n =
        writeTextTrace(reader, cli.positional()[2]);
    std::printf("wrote %llu text records to %s\n",
                static_cast<unsigned long long>(n),
                cli.positional()[2].c_str());
    return 0;
}

/**
 * Inspect one checkpoint file: header, integrity verdicts, and the
 * component registry with per-component CRC status.
 * @return true iff the file is fully valid.
 */
bool
inspectOne(const std::string &path, bool verbose)
{
    CheckpointInspection info;
    try {
        info = inspectCheckpoint(readFileBytes(path));
    } catch (const std::exception &e) {
        std::printf("%s: unreadable (%s)\n", path.c_str(), e.what());
        return false;
    }
    if (!verbose) {
        std::printf("%s: %s\n", path.c_str(),
                    info.valid() ? "OK" : "CORRUPT");
        return info.valid();
    }
    std::printf("%s:\n", path.c_str());
    std::printf("  magic          : %s\n", info.magicOk ? "ok" : "BAD");
    std::printf("  format version : %u%s\n", info.formatVersion,
                info.versionOk ? "" : " (unsupported)");
    std::printf("  structure      : %s\n",
                info.structureOk ? "ok" : "BAD");
    std::printf("  file CRC       : %s\n",
                info.fileCrcOk ? "ok" : "MISMATCH");
    std::printf("  label          : %s\n", info.label.c_str());
    std::printf("  watermark      : %llu records\n",
                static_cast<unsigned long long>(info.watermark));
    std::printf("  branches       : %llu\n",
                static_cast<unsigned long long>(info.branches));
    std::printf("  components     : %zu\n", info.components.size());
    for (const auto &component : info.components) {
        std::printf("    %-40s v%-3u %8llu bytes  crc %s\n",
                    component.name.c_str(), component.version,
                    static_cast<unsigned long long>(component.size),
                    component.crcOk ? "ok" : "MISMATCH");
    }
    std::printf("  verdict        : %s\n",
                info.valid() ? "VALID" : "CORRUPT");
    return info.valid();
}

/** One parsed row of a --branch-profile CSV export. */
struct CsvProfileRow
{
    std::string kind;
    std::string benchmark;
    std::string pc;
    std::string estimator;
    std::string bin;
    std::uint64_t executions = 0;
    std::uint64_t mispredictions = 0;
    double mispredictRate = 0.0;
    std::uint64_t lowConfidence = 0;
    double meanConfidence = 0.0;
    std::uint64_t predictions = 0;
    std::uint64_t correct = 0;
    double accuracy = 0.0;
};

constexpr std::size_t kProfileColumns = 13;

/**
 * Split one CSV line into the 13 profile columns. Estimator names may
 * themselves contain commas (e.g. "one_level(PcXorBhr,resetting)"),
 * so surplus fields are folded back into the estimator column — the
 * only free-text column that is not the leading kind/benchmark/pc.
 */
bool
parseProfileLine(const std::string &line, CsvProfileRow *row)
{
    std::vector<std::string> fields;
    std::stringstream stream(line);
    std::string field;
    while (std::getline(stream, field, ','))
        fields.push_back(field);
    if (line.empty() || line.back() == ',')
        fields.push_back("");
    if (fields.size() < kProfileColumns)
        return false;
    while (fields.size() > kProfileColumns) {
        fields[3] += "," + fields[4];
        fields.erase(fields.begin() + 5);
    }
    row->kind = fields[0];
    row->benchmark = fields[1];
    row->pc = fields[2];
    row->estimator = fields[3];
    row->bin = fields[4];
    try {
        row->executions = std::stoull(fields[5]);
        row->mispredictions = std::stoull(fields[6]);
        row->mispredictRate = std::stod(fields[7]);
        row->lowConfidence = std::stoull(fields[8]);
        row->meanConfidence = std::stod(fields[9]);
        row->predictions = std::stoull(fields[10]);
        row->correct = std::stoull(fields[11]);
        row->accuracy = std::stod(fields[12]);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

int
cmdProfile(const CliParser &cli)
{
    if (cli.positional().size() < 2) {
        std::printf(
            "usage: trace_tool profile <profile.csv> [--top N]\n");
        return 1;
    }
    const std::string &path = cli.positional()[1];
    std::ifstream in(path);
    if (!in) {
        std::printf("%s: cannot open\n", path.c_str());
        return 1;
    }
    std::string line;
    if (!std::getline(in, line) ||
        line.rfind("kind,benchmark,pc,", 0) != 0) {
        std::printf("%s: not a --branch-profile CSV export\n",
                    path.c_str());
        return 1;
    }
    std::vector<CsvProfileRow> branches;
    std::vector<CsvProfileRow> calibration;
    CsvProfileRow evicted;
    CsvProfileRow total;
    bool have_total = false;
    while (std::getline(in, line)) {
        CsvProfileRow row;
        if (!parseProfileLine(line, &row)) {
            std::printf("%s: malformed row '%s'\n", path.c_str(),
                        line.c_str());
            return 1;
        }
        if (row.kind == "branch")
            branches.push_back(std::move(row));
        else if (row.kind == "calibration")
            calibration.push_back(std::move(row));
        else if (row.kind == "evicted")
            evicted = std::move(row);
        else if (row.kind == "total") {
            total = std::move(row);
            have_total = true;
        }
    }
    if (!have_total) {
        std::printf("%s: missing total row\n", path.c_str());
        return 1;
    }

    std::printf("totals: %llu executions, %llu mispredictions "
                "(%.2f%%)\n",
                static_cast<unsigned long long>(total.executions),
                static_cast<unsigned long long>(total.mispredictions),
                100.0 * total.mispredictRate);
    std::printf("tracked branches: %zu", branches.size());
    if (evicted.executions != 0)
        std::printf("  (+%s evicted PCs: %llu exec, %llu mispred)",
                    evicted.pc.c_str(),
                    static_cast<unsigned long long>(evicted.executions),
                    static_cast<unsigned long long>(
                        evicted.mispredictions));
    std::printf("\n\n");

    // Branch rows are exported worst-mispredictor-first, so the top-N
    // table is just the head of the list.
    const std::size_t top =
        std::min<std::size_t>(branches.size(), cli.getUnsigned("top"));
    std::printf("top %zu mispredicting branches:\n", top);
    std::printf("  %-18s %-10s %12s %12s %8s %9s %10s\n", "pc",
                "benchmark", "executions", "mispredicts", "rate",
                "low-conf", "mean-conf");
    for (std::size_t i = 0; i < top; ++i) {
        const CsvProfileRow &row = branches[i];
        std::printf("  %-18s %-10s %12llu %12llu %7.2f%% %8.1f%% "
                    "%10.3f\n",
                    row.pc.c_str(), row.benchmark.c_str(),
                    static_cast<unsigned long long>(row.executions),
                    static_cast<unsigned long long>(row.mispredictions),
                    100.0 * row.mispredictRate,
                    row.executions == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(row.lowConfidence) /
                              static_cast<double>(row.executions),
                    row.meanConfidence);
    }

    // Per-estimator calibration: estimated confidence vs empirical
    // accuracy per reliability bin, plus the |gap| summary.
    std::string current;
    for (std::size_t i = 0; i < calibration.size(); ++i) {
        const CsvProfileRow &row = calibration[i];
        if (row.estimator != current) {
            current = row.estimator;
            std::printf("\ncalibration: %s\n", current.c_str());
            std::printf("  %4s %14s %12s %10s %10s\n", "bin",
                        "predictions", "correct", "est-conf",
                        "accuracy");
        }
        std::printf("  %4s %14llu %12llu %10.3f %10.3f\n",
                    row.bin.c_str(),
                    static_cast<unsigned long long>(row.predictions),
                    static_cast<unsigned long long>(row.correct),
                    row.meanConfidence, row.accuracy);
    }
    return 0;
}

int
cmdCheckpoint(const CliParser &cli)
{
    const auto &args = cli.positional();
    if (args.size() < 3 ||
        (args[1] != "inspect" && args[1] != "verify")) {
        std::printf(
            "usage: trace_tool checkpoint <inspect|verify> <file...>\n");
        return 1;
    }
    const bool verbose = args[1] == "inspect";
    bool all_valid = true;
    for (std::size_t i = 2; i < args.size(); ++i)
        all_valid = inspectOne(args[i], verbose) && all_valid;
    return all_valid ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("branch trace generation and inspection tool");
    cli.addOption("benchmark", "groff", "IBS workload name (for gen)");
    cli.addOption("branches", "1000000", "trace length (for gen)");
    cli.addFlag("recover",
                "skip corrupt chunks instead of aborting (for stats)");
    cli.addOption("top", "10",
                  "number of offender rows to print (for profile)");
    if (!cli.parse(argc, argv))
        return 0;
    if (cli.positional().empty()) {
        std::printf("usage: trace_tool "
                    "<gen|stats|text|checkpoint|profile> ...\n");
        return 1;
    }
    const std::string &command = cli.positional()[0];
    if (command == "gen")
        return cmdGen(cli);
    if (command == "stats")
        return cmdStats(cli);
    if (command == "text")
        return cmdText(cli);
    if (command == "checkpoint")
        return cmdCheckpoint(cli);
    if (command == "profile")
        return cmdProfile(cli);
    std::printf("unknown command '%s'\n", command.c_str());
    return 1;
}
