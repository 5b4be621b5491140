/**
 * @file
 * Google-benchmark microbenchmarks: throughput of each predictor's
 * predict-and-train operation, of each lane kernel, and of every
 * scheme's whole sweep, the quantities that bound how fast the figure
 * reproductions run.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <ctime>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "predictor/factory.hh"
#include "predictor/tage.hh"
#include "sim/experiment.hh"
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
// Compare with the sweepScheme rows below (branch-config updates/s)
// to see what batching buys per step.
BENCHMARK_CAPTURE(predictorThroughput, tage_1k_base_256e,
                  "tage:10:8");
BENCHMARK_CAPTURE(predictorThroughput, perceptron_h24_256e,
                  "perceptron:24:8");

namespace {

/**
 * One GAs point as a one-lane group.  The lane engine measures
 * aliasing whatever trackAliasing says, so one row covers both.
 */
void
sweepKernel(benchmark::State &state)
{
    const PreparedTrace &t = prepared();
    for (auto _ : state) {
        ConfigResult r = simulateConfig(t, SchemeKind::GAs, 6, 6);
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
 * Sweep throughput: one scheme's default sweep (tiers 2^4..2^15,
 * aliasing tracked) over a 1M-branch real_gcc trace, the trace the
 * ROADMAP baseline tables use, in one of three modes --
 *
 *   one_lane   every planned job as its own one-lane group, one trace
 *              pass per configuration, on the calling thread: the
 *              no-batching baseline
 *   threads:1  sweepScheme's planned groups, serially
 *   threads:0  sweepScheme's planned groups on every hardware thread
 *
 * Items processed counts branch-config updates (branches x configs),
 * comparable across schemes, modes and hosts.  cores_used is process
 * CPU seconds per wall second over the timed loop, so a threads:0
 * row that stayed on one core (a shared host) reads about 1.
 */
const PreparedTrace &
sweepTrace()
{
    static const PreparedTrace t = [] {
        setQuiet(true);
        return prepareProfile("real_gcc", 1'000'000);
    }();
    return t;
}

/** The `threads` of a sweep row; kOneLane selects one-lane groups. */
constexpr int kOneLane = -1;

void
sweepRow(benchmark::State &state, SchemeKind kind, int threads)
{
    const PreparedTrace &t = sweepTrace();
    SweepOptions o;
    o.threads = threads == kOneLane ? 1 : static_cast<unsigned>(threads);
    const std::vector<ConfigJob> jobs = planSweep(kind, o);
    const std::clock_t cpu0 = std::clock();
    const auto wall0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        if (threads == kOneLane) {
            StreamCache cache(t, o);
            std::vector<ConfigResult> slots(jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i)
                runFusedGroup(singleJobGroup(jobs, i), jobs, cache,
                              slots.data());
            benchmark::DoNotOptimize(slots.front().mispRate);
        } else {
            SweepResult r = sweepScheme(t, kind, o);
            benchmark::DoNotOptimize(r.bhtMissRate);
        }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
    state.counters["cores_used"] =
        static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC / wall;
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(t.size() * jobs.size()));
}

/**
 * The batched perceptron inner loop in isolation: a batch of
 * state.range(0) live lanes, laid out in one arena by the sweep
 * engine's packer, over a synthetic arena-offset index stream on
 * exactly one kernel.  Items processed counts lane-updates
 * (branches x live lanes), so across the 1..16-lane rows the
 * avx512/scalar ratio is the occupancy break-even that
 * perceptronBatchKernel's dispatch threshold comes from.
 */
void
perceptronBatchReplay(benchmark::State &state, SimdTarget kernel)
{
    if (!simdTargetSupported(kernel)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    const auto lanes = static_cast<unsigned>(state.range(0));
    constexpr unsigned tables = 4;
    constexpr unsigned entryBits = 10;
    constexpr std::size_t n = 1u << 14;
    static const LaneBatchLayout layout =
        packLaneBatches(std::vector<std::size_t>(
                            PerceptronBatch::kMaxLanes * tables,
                            std::size_t{1} << entryBits),
                        tables, sizeof(std::int8_t))
            .front();
    static const std::vector<std::uint32_t> idx = [] {
        Pcg32 rng(0xF005BA11ULL, 9);
        std::vector<std::uint32_t> v(n * tables *
                                     PerceptronBatch::kMaxLanes);
        for (std::size_t i = 0; i < n; ++i)
            for (unsigned tb = 0; tb < tables; ++tb)
                for (unsigned l = 0; l < PerceptronBatch::kMaxLanes;
                     ++l)
                    v[(i * tables + tb) * PerceptronBatch::kMaxLanes +
                      l] = layout.at(l, tb) +
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

    std::vector<std::int8_t> arena(layout.elements, 0);
    PerceptronBatch batch;
    batch.weights = arena.data();
    batch.lanes = lanes;
    batch.tables = tables;
    for (unsigned l = 0; l < lanes; ++l)
        batch.theta[l] = 60;

    for (auto _ : state) {
        replayPerceptronBatchOn(kernel, idx.data(), taken.data(), n,
                                batch);
        benchmark::DoNotOptimize(batch.misses[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * state.range(0));
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
    // Laid out as the sweep engine lays out its arenas.
    const LaneBatchLayout layout =
        packLaneBatches(std::vector<std::size_t>(
                            batch.lanes, std::size_t{1} << totalBits),
                        1, sizeof(std::uint32_t))
            .front();
    for (unsigned l = 0; l < batch.lanes; ++l) {
        const unsigned r = 2 + l % (totalBits - 1);
        batch.offset[l] = layout.at(l, 0);
        batch.rowMask[l] = (1u << r) - 1;
        batch.colMask[l] = (1u << (totalBits - r)) - 1;
        batch.colBits[l] = totalBits - r;
        batch.harmlessOnes[l] = r;
    }
    std::vector<std::uint32_t> arena(layout.elements,
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

/**
 * The TAGE inner loop in isolation: keys hashed from the first 2048
 * branches of the shared workload (TageModel's own hash hooks, the
 * default 4 components and 8-bit tags) for a batch of state.range(0)
 * live tier-12 lanes (entry widths 2..11 in turn, base tables the
 * rest of the tier), laid out in one arena by the sweep engine's
 * packer, replayed on exactly one kernel in the sweep engine's
 * 64-branch key tiles (so the keys stay cache-resident, as the
 * engine's freshly built tiles are).  Items processed
 * counts lane-updates (branches x live lanes), so across the
 * 1/2/3/4/5/8/9/16-lane rows the avx512/scalar ratio is the occupancy
 * break-even that tageBatchKernel's dispatch threshold comes from.
 */
void
tageBatchReplay(benchmark::State &state, SimdTarget kernel)
{
    if (!simdTargetSupported(kernel)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    constexpr unsigned kLanes = TageBatch::kMaxLanes;
    constexpr unsigned totalBits = 12;
    constexpr std::size_t n = 2048;
    constexpr std::size_t kTile = 64;
    const auto lanes = static_cast<unsigned>(state.range(0));
    const TageParams defaults;
    const auto ncomp = static_cast<unsigned>(defaults.histories.size());
    const auto entry_bits = [](unsigned l) { return 2 + l % 10; };

    // Lane l: the base table, then its components.
    static const LaneBatchLayout layout = [&] {
        std::vector<std::size_t> entries;
        for (unsigned l = 0; l < kLanes; ++l) {
            entries.push_back(std::size_t{1} << (totalBits - entry_bits(l)));
            entries.insert(entries.end(), ncomp,
                           std::size_t{1} << entry_bits(l));
        }
        return packLaneBatches(entries, ncomp + 1, sizeof(std::uint32_t))
            .front();
    }();
    static const std::vector<std::uint32_t> keys = [&] {
        const PreparedTrace &t = prepared();
        std::vector<std::uint32_t> v(n * (ncomp + 1) * kLanes);
        for (unsigned l = 0; l < kLanes; ++l) {
            TageParams p = defaults;
            p.entryBits = entry_bits(l);
            p.baseBits = totalBits - p.entryBits;
            const TageModel model(p);
            for (std::size_t i = 0; i < n; ++i) {
                std::uint32_t *row = v.data() + i * (ncomp + 1) * kLanes;
                row[l] = layout.at(l, 0) + static_cast<std::uint32_t>(
                                               model.baseIndex(t.pc(i)));
                for (unsigned c = 0; c < ncomp; ++c)
                    row[(c + 1) * kLanes + l] =
                        layout.at(l, c + 1) +
                        static_cast<std::uint32_t>(model.taggedIndex(
                            c, t.pc(i), t.globalHistory(i)));
            }
        }
        return v;
    }();
    static const std::vector<std::uint16_t> tags = [&] {
        const PreparedTrace &t = prepared();
        const TageModel model(defaults);
        std::vector<std::uint16_t> v(n * ncomp);
        for (std::size_t i = 0; i < n; ++i)
            for (unsigned c = 0; c < ncomp; ++c)
                v[i * ncomp + c] =
                    model.taggedTag(c, t.pc(i), t.globalHistory(i));
        return v;
    }();
    static const std::vector<std::uint8_t> taken = [] {
        const PreparedTrace &t = prepared();
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(t.taken(i));
        return v;
    }();

    std::vector<std::uint32_t> arena(layout.elements,
                                     TageBatch::kFreshEntry);
    for (unsigned l = 0; l < kLanes; ++l)
        std::fill_n(arena.begin() + layout.at(l, 0),
                    std::size_t{1} << (totalBits - entry_bits(l)),
                    TageBatch::kFreshBase);
    TageBatch batch;
    batch.entries = arena.data();
    batch.lanes = lanes;
    batch.components = ncomp;
    for (auto _ : state) {
        for (std::size_t off = 0; off < n; off += kTile)
            replayTageBatchOn(
                kernel,
                TageKeys{keys.data() + off * (ncomp + 1) * kLanes,
                         tags.data() + off * ncomp, taken.data() + off},
                kTile, batch);
        benchmark::DoNotOptimize(batch.misses[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * state.range(0));
}

/**
 * The zoo's key builder in isolation: the default perceptron shape (4
 * tables) for a batch of state.range(0) live tier-12 lanes (history
 * lengths 1..12 in turn, entry widths the rest of the tier), building
 * the lane-major index tile of the first 2048 branches of the shared
 * workload in the sweep engine's 64-branch tiles on exactly one
 * builder (buildLaneKeysOn).  Items processed counts lane-keys rows
 * (branches x live lanes), so across the 1/2/4/8/16-lane rows the
 * avx512/scalar ratio is the occupancy break-even that
 * laneKeysKernel's dispatch threshold comes from.
 */
void
laneKeys(benchmark::State &state, SimdTarget kernel)
{
    if (!simdTargetSupported(kernel)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    constexpr unsigned kLanes = LaneKeyPlan::kMaxLanes;
    constexpr unsigned tables = 4;
    constexpr unsigned totalBits = 12;
    constexpr std::size_t n = 2048;
    constexpr std::size_t kTile = 64;
    const auto lanes = static_cast<unsigned>(state.range(0));
    const auto history_bits = [](unsigned l) { return 1 + l % totalBits; };

    LaneKeyPlan plan(tables);
    for (unsigned l = 0; l < lanes; ++l) {
        const unsigned h = history_bits(l);
        const unsigned eb = totalBits - h;
        plan.setRaw(l, eb, 0);
        for (unsigned tb = 1; tb < tables; ++tb)
            plan.setFold(tb, l, (tb - 1) * h / (tables - 1),
                         tb * h / (tables - 1) - (tb - 1) * h / (tables - 1),
                         eb, tb << eb);
    }
    static const std::vector<std::uint64_t> widx = [] {
        const PreparedTrace &t = prepared();
        std::vector<std::uint64_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = wordIndex(t.pc(i));
        return v;
    }();
    static const std::vector<std::uint64_t> gh = [] {
        const PreparedTrace &t = prepared();
        std::vector<std::uint64_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = t.globalHistory(i);
        return v;
    }();
    static const std::vector<std::uint32_t> pc_fold = [&] {
        std::vector<std::uint32_t> v(n * kLanes);
        for (std::size_t i = 0; i < n; ++i)
            for (unsigned l = 0; l < kLanes; ++l)
                v[i * kLanes + l] = static_cast<std::uint32_t>(
                    xorFold(widx[i], totalBits - history_bits(l)));
        return v;
    }();

    std::vector<std::uint32_t> keys(kTile * tables * kLanes);
    for (auto _ : state) {
        for (std::size_t off = 0; off < n; off += kTile)
            buildLaneKeysOn(kernel, plan, widx.data() + off,
                            gh.data() + off, pc_fold.data() + off * kLanes,
                            kTile, keys.data());
        benchmark::DoNotOptimize(keys.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * state.range(0));
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

BENCHMARK(sweepKernel);
BENCHMARK(sweepKernelFiniteBht)->Arg(0)->Arg(1)->ArgNames({"cached"});
BENCHMARK_CAPTURE(perceptronBatchReplay, scalar, SimdTarget::Scalar)
    ->DenseRange(1, 16)->ArgNames({"lanes"});
BENCHMARK_CAPTURE(perceptronBatchReplay, avx512, SimdTarget::AVX512)
    ->DenseRange(1, 16)->ArgNames({"lanes"});
BENCHMARK_CAPTURE(aliasBatchReplay, scalar, SimdTarget::Scalar)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK_CAPTURE(aliasBatchReplay, avx512, SimdTarget::AVX512)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK_CAPTURE(tageBatchReplay, scalar, SimdTarget::Scalar)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(8)->Arg(9)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK_CAPTURE(tageBatchReplay, avx512, SimdTarget::AVX512)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(8)->Arg(9)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK_CAPTURE(laneKeys, scalar, SimdTarget::Scalar)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK_CAPTURE(laneKeys, avx512, SimdTarget::AVX512)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->ArgNames({"lanes"});
BENCHMARK(traceGeneration)->Arg(100'000);

namespace {

/** sweepScheme/<scheme>/<mode> for all nine schemes and three modes. */
[[maybe_unused]] const bool kSweepRowsRegistered = [] {
    const std::pair<const char *, SchemeKind> schemes[] = {
        {"addr", SchemeKind::AddressIndexed},
        {"gag", SchemeKind::GAg},
        {"gas", SchemeKind::GAs},
        {"gshare", SchemeKind::Gshare},
        {"path", SchemeKind::Path},
        {"pas_inf", SchemeKind::PAsPerfect},
        {"pas_bht", SchemeKind::PAsFinite},
        {"tage", SchemeKind::Tage},
        {"perceptron", SchemeKind::Perceptron},
    };
    const std::pair<const char *, int> modes[] = {
        {"one_lane", kOneLane}, {"threads:1", 1}, {"threads:0", 0}};
    for (const auto &[scheme, kind] : schemes)
        for (const auto &[mode, threads] : modes)
            benchmark::RegisterBenchmark(
                (std::string("sweepScheme/") + scheme + "/" + mode).c_str(),
                sweepRow, kind, threads)
                ->UseRealTime()
                ->Unit(benchmark::kMillisecond);
    return true;
}();

} // namespace
