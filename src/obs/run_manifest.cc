#include "obs/run_manifest.h"

#include "obs/json.h"

namespace confsim {

RunManifest
RunManifest::withBuildInfo()
{
    RunManifest manifest;
#ifdef CONFSIM_BUILD_TYPE
    manifest.buildType = CONFSIM_BUILD_TYPE;
#endif
    if (manifest.buildType.empty()) {
#ifdef NDEBUG
        manifest.buildType = "Release";
#else
        manifest.buildType = "Debug";
#endif
    }
#if defined(__clang__)
    manifest.compiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
    manifest.compiler = "GNU " __VERSION__;
#else
    manifest.compiler = "unknown";
#endif
    manifest.cxxStandard = std::to_string(__cplusplus);
    return manifest;
}

std::string
RunManifest::toJson() const
{
    std::string out = "{";
    out += "\"type\":\"manifest\"";
    out += ",\"schema\":" + jsonString(schema);
    out += ",\"tool\":" + jsonString(tool);
    out += ",\"suite\":" + jsonString(suite);
    out += ",\"benchmarks\":[";
    for (std::size_t i = 0; i < benchmarks.size(); ++i) {
        const auto &bench = benchmarks[i];
        if (i != 0)
            out += ",";
        out += "{\"name\":" + jsonString(bench.name) +
               ",\"seed\":" + std::to_string(bench.seed) +
               ",\"branches\":" + std::to_string(bench.branches) +
               ",\"trace_checksum\":" +
               std::to_string(bench.traceChecksum) + "}";
    }
    out += "]";
    out += ",\"predictor\":" + jsonString(predictor);
    out += ",\"predictor_storage_bits\":" +
           std::to_string(predictorStorageBits);
    out += ",\"estimators\":[";
    for (std::size_t i = 0; i < estimators.size(); ++i) {
        if (i != 0)
            out += ",";
        out += jsonString(estimators[i]);
    }
    out += "]";
    out += ",\"bhr_bits\":" + std::to_string(bhrBits);
    out += ",\"gcir_bits\":" + std::to_string(gcirBits);
    out += ",\"context_switch_interval\":" +
           std::to_string(contextSwitchInterval);
    out += ",\"build_type\":" + jsonString(buildType);
    out += ",\"compiler\":" + jsonString(compiler);
    out += ",\"cxx_standard\":" + jsonString(cxxStandard);
    out += "}";
    return out;
}

} // namespace confsim
