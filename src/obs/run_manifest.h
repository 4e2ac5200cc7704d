/**
 * @file
 * The run manifest: everything needed to reproduce a telemetry file's
 * run — suite and per-benchmark identity (name, seed, trace length,
 * stream checksum), predictor/estimator configurations, driver knobs,
 * and build provenance (build type, compiler, language standard).
 * Every telemetry stream starts with one manifest record, so an events
 * JSONL found on disk is a self-describing artifact rather than a bag
 * of numbers.
 */

#ifndef CONFSIM_OBS_RUN_MANIFEST_H
#define CONFSIM_OBS_RUN_MANIFEST_H

#include <cstdint>
#include <string>
#include <vector>

namespace confsim {

/** Identity of one benchmark inside a manifest. */
struct ManifestBenchmark
{
    std::string name;
    std::uint64_t seed = 0;     //!< workload-generator seed
    std::uint64_t branches = 0; //!< requested trace length (0=default)

    /**
     * CRC-32 over the head of the branch stream
     * (streamChecksum(), trace/trace_stats.h); 0 when not computed.
     * For synthetic workloads this pins generator reproducibility; for
     * file-backed runs it fingerprints the trace file content.
     */
    std::uint32_t traceChecksum = 0;
};

/** The reproducibility header of one telemetry stream. */
struct RunManifest
{
    /** Telemetry schema identifier (bump on breaking changes). */
    std::string schema = "confsim-telemetry-v1";

    std::string tool;  //!< producing binary / experiment description
    std::string suite; //!< e.g. "ibs-full", "ibs-small", "single"

    std::vector<ManifestBenchmark> benchmarks;

    std::string predictor; //!< predictor name (encodes its geometry)
    std::uint64_t predictorStorageBits = 0;
    std::vector<std::string> estimators; //!< estimator names, in order

    // Driver knobs that affect results.
    unsigned bhrBits = 0;
    unsigned gcirBits = 0;
    std::uint64_t contextSwitchInterval = 0;

    // Build provenance, defaulted from compile-time facts.
    std::string buildType;    //!< CMAKE_BUILD_TYPE of the obs library
    std::string compiler;     //!< e.g. "GNU 13.2.0"
    std::string cxxStandard;  //!< e.g. "202002"

    /** A manifest pre-filled with this build's provenance fields. */
    static RunManifest withBuildInfo();

    /** @return the manifest as one JSON object (no newline). */
    std::string toJson() const;
};

} // namespace confsim

#endif // CONFSIM_OBS_RUN_MANIFEST_H
