/**
 * @file
 * Google-benchmark microbenchmarks: throughput of each predictor's
 * predict-and-train operation and of the sweep kernel, the quantities
 * that bound how fast the figure reproductions run.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/packed_pht.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "predictor/factory.hh"
#include "sim/prepared_trace.hh"
#include "sim/sweep.hh"
#include "workload/executor.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

/** Shared medium workload (generated once). */
const MemoryTrace &
workload()
{
    static const MemoryTrace trace = [] {
        setQuiet(true);
        WorkloadParams p;
        p.name = "micro";
        p.seed = 1234;
        p.staticBranches = 2000;
        p.functionCount = 170;
        p.targetConditionals = 200'000;
        return generateTrace(p);
    }();
    return trace;
}

const PreparedTrace &
prepared()
{
    static const PreparedTrace t{workload()};
    return t;
}

void
predictorThroughput(benchmark::State &state, const std::string &spec)
{
    const MemoryTrace &trace = workload();
    auto predictor = makePredictor(spec);
    std::size_t i = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const BranchRecord &rec = trace[i];
        if (rec.isConditional())
            sink += predictor->onBranch(rec);
        i = (i + 1) % trace.size();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK_CAPTURE(predictorThroughput, addr_4k, "addr:12");
BENCHMARK_CAPTURE(predictorThroughput, gag_4k, "GAg:12");
BENCHMARK_CAPTURE(predictorThroughput, gas_64x64, "GAs:6:6");
BENCHMARK_CAPTURE(predictorThroughput, gshare_4k, "gshare:12:0");
BENCHMARK_CAPTURE(predictorThroughput, path_64x64, "path:6:6");
BENCHMARK_CAPTURE(predictorThroughput, pas_perfect, "PAs:10:2");
BENCHMARK_CAPTURE(predictorThroughput, pas_1k_bht, "PAs:10:2:1024");
BENCHMARK_CAPTURE(predictorThroughput, tournament,
                  "tournament(addr:11,gshare:11:0):11");
// The zoo's per-step scalar costs: one full model stepped alone.
// Compare with the zooModelStep rows below (trace-normalised
// model-steps/s) to see what batching buys per step.
BENCHMARK_CAPTURE(predictorThroughput, tage_1k_base_256e,
                  "tage:10:8");
BENCHMARK_CAPTURE(predictorThroughput, perceptron_h24_256e,
                  "perceptron:24:8");

namespace {

void
sweepKernel(benchmark::State &state)
{
    const PreparedTrace &t = prepared();
    SweepOptions o;
    o.trackAliasing = state.range(0) != 0;
    for (auto _ : state) {
        ConfigResult r =
            simulateConfig(t, SchemeKind::GAs, 6, 6, o);
        benchmark::DoNotOptimize(r.mispRate);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}

/**
 * The stream-cache effect: a finite-BHT point probe rebuilds the BHT
 * history stream on every uncached call, while a caller-held
 * StreamCache builds it once and replays only the kernel.
 */
void
sweepKernelFiniteBht(benchmark::State &state)
{
    const PreparedTrace &t = prepared();
    SweepOptions o;
    o.trackAliasing = false;
    o.bhtEntries = 256;
    if (state.range(0)) {
        StreamCache cache(t, o);
        for (auto _ : state) {
            ConfigResult r =
                simulateConfig(cache, SchemeKind::PAsFinite, 6, 6);
            benchmark::DoNotOptimize(r.mispRate);
        }
    } else {
        for (auto _ : state) {
            ConfigResult r =
                simulateConfig(t, SchemeKind::PAsFinite, 6, 6, o);
            benchmark::DoNotOptimize(r.mispRate);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}

/**
 * The fused inner loop in isolation: replay a synthetic decoded
 * record stream through a full 8-wide lane batch on one dispatch
 * target.  Items processed counts lane-updates (records x lanes), so
 * the scalar/sse2/avx2 rows are directly comparable and their ratio
 * is the pure kernel speedup with no sweep bookkeeping around it.
 */
void
laneBatchReplay(benchmark::State &state, SimdTarget target)
{
    if (!simdTargetSupported(target)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    constexpr unsigned lanes = 8;
    constexpr unsigned indexBits = 12; // 4K-counter PHT per lane
    static const std::vector<std::uint32_t> records = [] {
        Pcg32 rng(0xBE9CF00DULL, 5);
        std::vector<std::uint32_t> r(1u << 16);
        for (std::uint32_t &d : r)
            d = rng.next(); // taken bit 31, index bits mixed below
        return r;
    }();

    std::vector<PackedPht> tables;
    LaneBatch batch;
    for (unsigned l = 0; l < lanes; ++l)
        tables.emplace_back(std::size_t{1} << indexBits);
    for (unsigned l = 0; l < lanes; ++l) {
        batch.totalMask[l] = (1u << indexBits) - 1;
        batch.pht[l] = tables[l].data();
        batch.misses[l] = 0;
    }
    batch.lanes = lanes;

    for (auto _ : state) {
        replayLaneBatch(target, records.data(), records.size(),
                        batch);
        benchmark::DoNotOptimize(batch.misses[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(records.size() *
                                                      lanes));
}

/**
 * The packed-counter gather primitive alone: fetch one byte per lane
 * from eight separately-allocated PHTs.  This is the memory-bound
 * half of the lane batch; compare with laneBatchReplay to see how
 * much of the kernel is gather latency vs counter arithmetic.
 */
void
packedGather(benchmark::State &state, SimdTarget target)
{
    if (!simdTargetSupported(target)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    constexpr unsigned lanes = 8;
    std::vector<PackedPht> tables;
    const std::uint8_t *bases[lanes];
    std::uint32_t idx[lanes];
    std::uint8_t out[lanes];
    for (unsigned l = 0; l < lanes; ++l)
        tables.emplace_back(std::size_t{1} << 10);
    for (unsigned l = 0; l < lanes; ++l) {
        bases[l] = tables[l].data();
        idx[l] = (l * 37u) & 0xFF;
    }
    for (auto _ : state) {
        gatherLaneBytes(target, bases, idx, lanes, out);
        benchmark::DoNotOptimize(out[0]);
        idx[0] = (idx[0] + 1) & 0xFF; // defeat trivial caching
    }
    state.SetItemsProcessed(state.iterations() * lanes);
}

/**
 * The zoo step cost at sweep granularity: one tier of TAGE or
 * perceptron configurations replayed per-config (one one-lane model
 * group, so one trace pass, per lane) vs batched (the planned model
 * groups, one decoded block stepped by every lane).  Items processed
 * counts model-steps (branches x lanes), so the per-config/batched
 * ratio is the batching speedup per step.  A smaller trace than
 * workload() keeps the per-config rows affordable.
 */
const PreparedTrace &
zooPrepared()
{
    static const MemoryTrace trace = [] {
        setQuiet(true);
        WorkloadParams p;
        p.name = "micro-zoo";
        p.seed = 4321;
        p.staticBranches = 900;
        p.functionCount = 80;
        p.targetConditionals = 50'000;
        return generateTrace(p);
    }();
    static const PreparedTrace t{trace};
    return t;
}

void
zooModelStep(benchmark::State &state, SchemeKind kind, bool batched)
{
    const PreparedTrace &t = zooPrepared();
    SweepOptions o;
    o.minTotalBits = 12;
    o.maxTotalBits = 12;
    const std::vector<ConfigJob> jobs = planSweep(kind, o);
    for (auto _ : state) {
        if (batched) {
            SweepResult r = sweepScheme(t, kind, o);
            benchmark::DoNotOptimize(r.bhtMissRate);
        } else {
            StreamCache cache(t, o);
            std::vector<ConfigResult> slots(jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i)
                runFusedGroup(singleJobGroup(jobs, i), jobs, cache,
                              slots.data());
            benchmark::DoNotOptimize(slots.front().mispRate);
        }
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(t.size() * jobs.size()));
}

/**
 * The batched perceptron inner loop in isolation: a full 8-wide lane
 * batch over a synthetic pre-offset index stream on one dispatch
 * target.  Items processed counts lane-updates, so the rows are
 * directly comparable across targets (same convention as
 * laneBatchReplay).
 */
void
perceptronBatchReplay(benchmark::State &state, SimdTarget target)
{
    if (!simdTargetSupported(target)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    constexpr unsigned lanes = 8;
    constexpr unsigned tables = 4;
    constexpr unsigned entryBits = 10;
    constexpr std::size_t n = 1u << 14;
    static const std::vector<std::uint32_t> idx = [] {
        Pcg32 rng(0xF005BA11ULL, 9);
        std::vector<std::uint32_t> v(n * tables *
                                     PerceptronBatch::kMaxLanes);
        for (std::size_t i = 0; i < n; ++i)
            for (unsigned tb = 0; tb < tables; ++tb)
                for (unsigned l = 0; l < PerceptronBatch::kMaxLanes;
                     ++l)
                    v[(i * tables + tb) * PerceptronBatch::kMaxLanes +
                      l] = (tb << entryBits) +
                           rng.nextBounded(1u << entryBits);
        return v;
    }();
    static const std::vector<std::uint8_t> taken = [] {
        Pcg32 rng(0x7AC0BEEFULL, 3);
        std::vector<std::uint8_t> v(n);
        for (std::uint8_t &b : v)
            b = static_cast<std::uint8_t>(rng.nextBounded(2));
        return v;
    }();

    std::vector<std::vector<std::int8_t>> banks(lanes);
    PerceptronBatch batch;
    batch.lanes = lanes;
    batch.tables = tables;
    for (unsigned l = 0; l < lanes; ++l) {
        banks[l].assign((std::size_t{tables} << entryBits) +
                            PackedPht::kGatherSlack,
                        0);
        batch.weights[l] = banks[l].data();
        batch.theta[l] = 60;
    }

    for (auto _ : state) {
        replayPerceptronBatch(target, idx.data(), taken.data(), n,
                              batch);
        benchmark::DoNotOptimize(batch.misses[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * lanes));
}

/**
 * The aliasing inner loop in isolation: GAs-shaped alias records
 * decoded from the shared workload (global-history rows, word-index
 * columns, dense-id tags, outcome + trailing-ones flags) replayed
 * through a batch of state.range(0) live tier-12 lanes (splits
 * r = 2..12 in turn) on exactly one kernel.  Items processed counts
 * lane-updates (branches x live lanes), so across the 1/2/4/8/16-lane
 * rows the avx512/scalar ratio is the occupancy break-even that
 * aliasBatchKernel's dispatch threshold comes from.
 */
void
aliasBatchReplay(benchmark::State &state, SimdTarget kernel)
{
    if (!simdTargetSupported(kernel)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    const PreparedTrace &t = prepared();
    static const std::vector<std::uint32_t> rows = [&t] {
        std::vector<std::uint32_t> v(t.size());
        for (std::size_t i = 0; i < t.size(); ++i)
            v[i] = static_cast<std::uint32_t>(t.globalHistory(i));
        return v;
    }();
    static const std::vector<std::uint32_t> cols = [&t] {
        std::vector<std::uint32_t> v(t.size());
        for (std::size_t i = 0; i < t.size(); ++i)
            v[i] = static_cast<std::uint32_t>(wordIndex(t.pc(i)));
        return v;
    }();
    static const std::vector<std::uint32_t> tags = [&t] {
        std::vector<std::uint32_t> v(t.size());
        for (std::size_t i = 0; i < t.size(); ++i)
            v[i] = (t.branchId(i) + 1) << 2;
        return v;
    }();
    static const std::vector<std::uint8_t> flags = [&t] {
        std::vector<std::uint8_t> v(t.size());
        for (std::size_t i = 0; i < t.size(); ++i)
            v[i] = static_cast<std::uint8_t>(
                (static_cast<unsigned>(t.taken(i)) << 7) |
                static_cast<unsigned>(
                    std::countr_one(t.globalHistory(i))));
        return v;
    }();
    const AliasRecords records{rows.data(), cols.data(), tags.data(),
                               flags.data()};

    constexpr unsigned totalBits = 12;
    AliasBatch batch;
    batch.lanes = static_cast<unsigned>(state.range(0));
    for (unsigned l = 0; l < batch.lanes; ++l) {
        const unsigned r = 2 + l % (totalBits - 1);
        // Staggered like the sweep engine's arenas (sim/sweep.cc).
        batch.offset[l] = l * ((1u << totalBits) + 16);
        batch.rowMask[l] = (1u << r) - 1;
        batch.colMask[l] = (1u << (totalBits - r)) - 1;
        batch.colBits[l] = totalBits - r;
        batch.harmlessOnes[l] = r;
    }
    std::vector<std::uint32_t> arena(std::size_t{batch.lanes} *
                                         ((1u << totalBits) + 16),
                                     AliasBatch::kFreshEntry);
    batch.entries = arena.data();

    // Replay in 2048-branch blocks, the sweep engine's tile.
    for (auto _ : state) {
        for (std::size_t base = 0; base < t.size(); base += 2048) {
            const std::size_t m = std::min<std::size_t>(2048,
                                                        t.size() - base);
            const AliasRecords block{records.row + base,
                                     records.col + base,
                                     records.tag + base,
                                     records.flags + base};
            replayAliasBatchOn(kernel, block, m, batch);
        }
        benchmark::DoNotOptimize(batch.misses[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()) *
                            state.range(0));
}

void
traceGeneration(benchmark::State &state)
{
    WorkloadParams p;
    p.name = "gen";
    p.seed = 77;
    p.staticBranches = 2000;
    p.functionCount = 170;
    p.targetConditionals =
        static_cast<std::uint64_t>(state.range(0));
    SyntheticProgram prog = buildProgram(p);
    for (auto _ : state) {
        ProgramExecutor exec(prog, p);
        BranchRecord rec;
        std::uint64_t n = 0;
        while (exec.next(rec))
            ++n;
        benchmark::DoNotOptimize(n);
        exec.reset();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

} // namespace

BENCHMARK(sweepKernel)->Arg(0)->Arg(1)->ArgNames({"aliasing"});
BENCHMARK(sweepKernelFiniteBht)->Arg(0)->Arg(1)->ArgNames({"cached"});
BENCHMARK_CAPTURE(laneBatchReplay, scalar, SimdTarget::Scalar);
BENCHMARK_CAPTURE(laneBatchReplay, sse2, SimdTarget::SSE2);
BENCHMARK_CAPTURE(laneBatchReplay, avx2, SimdTarget::AVX2);
BENCHMARK_CAPTURE(packedGather, scalar, SimdTarget::Scalar);
BENCHMARK_CAPTURE(packedGather, sse2, SimdTarget::SSE2);
BENCHMARK_CAPTURE(packedGather, avx2, SimdTarget::AVX2);
BENCHMARK_CAPTURE(zooModelStep, tage_per_config, SchemeKind::Tage,
                  false);
BENCHMARK_CAPTURE(zooModelStep, tage_batched, SchemeKind::Tage, true);
BENCHMARK_CAPTURE(zooModelStep, perceptron_per_config,
                  SchemeKind::Perceptron, false);
BENCHMARK_CAPTURE(zooModelStep, perceptron_batched,
                  SchemeKind::Perceptron, true);
BENCHMARK_CAPTURE(perceptronBatchReplay, scalar, SimdTarget::Scalar);
BENCHMARK_CAPTURE(perceptronBatchReplay, sse2, SimdTarget::SSE2);
BENCHMARK_CAPTURE(perceptronBatchReplay, avx2, SimdTarget::AVX2);
BENCHMARK_CAPTURE(aliasBatchReplay, scalar, SimdTarget::Scalar)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK_CAPTURE(aliasBatchReplay, avx512, SimdTarget::AVX512)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK(traceGeneration)->Arg(100'000);
