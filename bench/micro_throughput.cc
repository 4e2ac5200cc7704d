/**
 * @file
 * google-benchmark microbenchmarks: simulation throughput of the
 * predictors, confidence estimators, and the workload generator
 * (ns/branch figures that bound full-experiment run times).
 */

#include <benchmark/benchmark.h>

#include "confidence/one_level.h"
#include "confidence/tage_confidence.h"
#include "confidence/two_level.h"
#include "obs/span.h"
#include "predictor/bimodal.h"
#include "predictor/gshare.h"
#include "predictor/history_register.h"
#include "predictor/perceptron.h"
#include "predictor/tage.h"
#include "sim/driver.h"
#include "sim/sampling_engine.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

/** A reusable in-memory branch stream for the microbenchmarks. */
const std::vector<BranchRecord> &
sharedTrace()
{
    static const std::vector<BranchRecord> trace = [] {
        WorkloadGenerator gen(ibsProfile("groff"), 200000);
        std::vector<BranchRecord> records;
        records.reserve(200000);
        BranchRecord record;
        while (gen.next(record))
            records.push_back(record);
        return records;
    }();
    return trace;
}

void
BM_WorkloadGeneration(benchmark::State &state)
{
    WorkloadGenerator gen(ibsProfile("groff"), 1u << 30);
    BranchRecord record;
    for (auto _ : state) {
        gen.next(record);
        benchmark::DoNotOptimize(record);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

template <typename MakePredictor>
void
predictorLoop(benchmark::State &state, MakePredictor make)
{
    auto pred = make();
    const auto &trace = sharedTrace();
    std::size_t i = 0;
    for (auto _ : state) {
        const BranchRecord &r = trace[i];
        benchmark::DoNotOptimize(pred->predict(r.pc));
        pred->update(r.pc, r.taken);
        if (++i == trace.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_Bimodal(benchmark::State &state)
{
    predictorLoop(state, [] {
        return std::make_unique<BimodalPredictor>(4096);
    });
}
BENCHMARK(BM_Bimodal);

void
BM_GshareLarge(benchmark::State &state)
{
    predictorLoop(state, [] {
        return std::make_unique<GsharePredictor>(
            GsharePredictor::makeLargePaperConfig());
    });
}
BENCHMARK(BM_GshareLarge);

void
BM_Tage(benchmark::State &state)
{
    predictorLoop(state, [] { return std::make_unique<TagePredictor>(); });
}
BENCHMARK(BM_Tage);

void
BM_Perceptron(benchmark::State &state)
{
    predictorLoop(state,
                  [] { return std::make_unique<PerceptronPredictor>(); });
}
BENCHMARK(BM_Perceptron);

template <typename MakeEstimator>
void
estimatorLoop(benchmark::State &state, MakeEstimator make)
{
    auto est = make();
    GsharePredictor pred = GsharePredictor::makeLargePaperConfig();
    HistoryRegister bhr(16);
    const auto &trace = sharedTrace();
    BranchContext ctx;
    std::size_t i = 0;
    for (auto _ : state) {
        const BranchRecord &r = trace[i];
        ctx.pc = r.pc;
        ctx.bhr = bhr.value();
        const bool correct = pred.predict(r.pc) == r.taken;
        // One call, as in the replay kernel's record step: update()
        // trains and returns the pre-update bucket.
        benchmark::DoNotOptimize(est->update(ctx, correct, r.taken));
        pred.update(r.pc, r.taken);
        bhr.recordOutcome(r.taken);
        if (++i == trace.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_OneLevelCir(benchmark::State &state)
{
    estimatorLoop(state, [] {
        return std::make_unique<OneLevelCirConfidence>(
            IndexScheme::PcXorBhr, 1 << 16, 16,
            CirReduction::RawPattern);
    });
}
BENCHMARK(BM_OneLevelCir);

void
BM_OneLevelResetting(benchmark::State &state)
{
    estimatorLoop(state, [] {
        return std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 1 << 16, CounterKind::Resetting,
            16, 0);
    });
}
BENCHMARK(BM_OneLevelResetting);

void
BM_TwoLevel(benchmark::State &state)
{
    estimatorLoop(state, [] {
        return std::make_unique<TwoLevelConfidence>(
            IndexScheme::PcXorBhr, 1 << 16, 16, SecondLevelIndex::Cir,
            16);
    });
}
BENCHMARK(BM_TwoLevel);

void
BM_ScopedSpanDisabled(benchmark::State &state)
{
    // The null-facade contract: with no tracer attached, a ScopedSpan
    // must cost a null test and nothing else (no clock reads, no
    // allocation) — this bounds the overhead instrumented hot paths
    // pay when --trace-out is absent.
    SpanTracer *tracer = nullptr;
    for (auto _ : state) {
        ScopedSpan span(tracer, "bench.disabled");
        benchmark::DoNotOptimize(tracer);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanDisabled);

void
BM_FullDriver(benchmark::State &state)
{
    // End-to-end: generator + predictor + estimator per batch of
    // 100k branches.
    for (auto _ : state) {
        WorkloadGenerator gen(ibsProfile("jpeg"), 100000);
        GsharePredictor pred(4096, 12);
        OneLevelCounterConfidence est(IndexScheme::PcXorBhr, 4096,
                                      CounterKind::Resetting, 16, 0);
        SimulationDriver driver(pred, {&est});
        benchmark::DoNotOptimize(driver.run(gen));
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_FullDriver);

void
BM_TageProviderDriver(benchmark::State &state)
{
    // BM_FullDriver's shape over TAGE + its provider confidence: the
    // estimator reads the predictor's memoized lookup.
    for (auto _ : state) {
        WorkloadGenerator gen(ibsProfile("jpeg"), 100000);
        TagePredictor pred;
        TageProviderConfidence est;
        SimulationDriver driver(pred, {&est});
        benchmark::DoNotOptimize(driver.run(gen));
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_TageProviderDriver);

void
BM_SampledRunTrace(benchmark::State &state)
{
    // One benchmark of a sampled suite: gshare-large with the PC, BHR
    // and PCxorBHR 64K-bucket ideal CIR estimators, 10% of 200 regions
    // in 4 strata x 5 subsamples, a 2-region warming window, on the
    // calling thread with synchronous refill. Covers the pre-pass,
    // kernel construction, the planned replay and the estimates.
    static constexpr std::uint64_t kBranches = 200000;
    SweepConfiguration config;
    config.label = "gshare+CIR";
    config.makePredictor = [] {
        return std::make_unique<GsharePredictor>(
            GsharePredictor::makeLargePaperConfig());
    };
    config.makeEstimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        for (const IndexScheme scheme :
             {IndexScheme::Pc, IndexScheme::Bhr, IndexScheme::PcXorBhr}) {
            out.push_back(std::make_unique<OneLevelCirConfidence>(
                scheme, 1 << 16, 16, CirReduction::RawPattern));
        }
        return out;
    };
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = kBranches / 200;
    options.strata = 4;
    options.subsamples = 5;
    options.warmupRegions = 2;
    options.sweep.threads = 1;
    options.sweep.decodeAhead = 1;
    SamplingEngine engine({config}, DriverOptions{}, options);
    const SamplingEngine::SourceFactory jpeg = [] {
        return std::make_unique<WorkloadGenerator>(ibsProfile("jpeg"),
                                                   kBranches);
    };
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.runTrace("jpeg", jpeg));
    state.SetItemsProcessed(state.iterations() * kBranches);
}
BENCHMARK(BM_SampledRunTrace)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace confsim

BENCHMARK_MAIN();
