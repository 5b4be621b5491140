/**
 * @file
 * Differential verification of the model lane engine (sweep.cc): a
 * model group stepping the whole TAGE/perceptron zoo in one trace pass
 * must be bit-identical to the naive reference mirrors, configuration
 * by configuration, for every thread count and fuzzed group
 * composition.
 *
 * The suite name is load-bearing: the tsan preset runs
 * "...|TageZoo|PerceptronZoo|ModelBatch", so model groups spread over
 * the pool are replayed under the race detector.  The long campaign
 * at the bottom additionally needs BPSIM_SLOW_TESTS=1 (the executable
 * carries the `zoo` ctest label).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "predictor/perceptron.hh"
#include "predictor/tage.hh"
#include "sim/sweep.hh"
#include "verify/differential.hh"
#include "verify/reference_model.hh"
#include "workload/synthetic.hh"

using namespace bpsim;
using namespace bpsim::verify;

namespace {

constexpr SchemeKind kZooKinds[] = {SchemeKind::Tage,
                                    SchemeKind::Perceptron};

/** Valid strictly-ascending history ladders (TageParams::validate). */
const std::vector<unsigned> kHistoryVariants[] = {
    {4, 8, 16, 32},
    {2, 5, 11, 23},
    {3, 9, 27},
    {6},
    {1, 2, 4, 8, 16, 32, 48, 64},
};
constexpr std::size_t kHistoryVariantCount =
    sizeof(kHistoryVariants) / sizeof(kHistoryVariants[0]);

MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "modelbatch-diff-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 90;
    p.functionCount = 9;
    p.targetConditionals = conditionals;
    return generateTrace(p);
}

/** Fuzz the zoo knobs that select model geometry. */
void
fuzzZooKnobs(SweepOptions &opts, Pcg32 &rng)
{
    opts.tageTagBits = 5 + rng.nextBounded(6); // 5..10
    opts.tageHistories =
        kHistoryVariants[rng.nextBounded(kHistoryVariantCount)];
    opts.perceptronTables = 2 + rng.nextBounded(4); // 2..5
}

/** A valid fuzzed zoo split for @p kind at @p total bits. */
ConfigJob
fuzzZooJob(SchemeKind kind, unsigned total, Pcg32 &rng)
{
    unsigned r;
    if (kind == SchemeKind::Tage) {
        // entryBits >= 1 AND baseBits >= 1.
        r = 1 + rng.nextBounded(total - 1);
    } else {
        // historyBits in 1..total; entryBits 0 is a legal point.
        r = 1 + rng.nextBounded(total);
    }
    return ConfigJob{kind, total, r, total - r};
}

/** Run @p jobs through planFusedGroups/runFusedGroup. */
std::vector<ConfigResult>
runGroups(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
          const SweepOptions &opts, unsigned threads)
{
    StreamCache cache(t, opts);
    cache.prepare(jobs, 1);
    std::vector<ConfigResult> slots(jobs.size());
    for (const FusedGroup &group : planFusedGroups(jobs, threads))
        runFusedGroup(group, jobs, cache, slots.data());
    return slots;
}

/** Exact equality on every surface point (bit-identity contract). */
void
expectSurfacesIdentical(const SweepResult &a, const SweepResult &b,
                        const char *what)
{
    ASSERT_EQ(a.misprediction.tiers().size(),
              b.misprediction.tiers().size())
        << what;
    for (std::size_t t = 0; t < a.misprediction.tiers().size(); ++t) {
        const SurfaceTier &ta = a.misprediction.tiers()[t];
        const SurfaceTier &tb = b.misprediction.tiers()[t];
        ASSERT_EQ(ta.points.size(), tb.points.size()) << what;
        for (std::size_t p = 0; p < ta.points.size(); ++p) {
            ASSERT_EQ(ta.points[p].rowBits, tb.points[p].rowBits);
            ASSERT_EQ(ta.points[p].value, tb.points[p].value)
                << what << ": tier " << ta.totalBits << " row "
                << ta.points[p].rowBits;
        }
    }
    ASSERT_EQ(a.bhtMissRate, b.bhtMissRate) << what;
}

/** The reference mirrors' misprediction surface for a sweep. */
SweepResult
referenceSweep(const MemoryTrace &trace, SchemeKind kind,
               const SweepOptions &opts)
{
    SweepResult r(schemeKindName(kind), trace.name());
    for (const ConfigJob &job : planSweep(kind, opts))
        r.misprediction.add(
            job.totalBits, job.rowBits, job.colBits,
            referenceMispRate(sweepRefConfig(job, opts), trace));
    return r;
}

/** Each job's reference misprediction rate. */
std::vector<double>
referenceRates(const MemoryTrace &trace,
               const std::vector<ConfigJob> &jobs,
               const SweepOptions &opts)
{
    std::vector<double> rates;
    for (const ConfigJob &job : jobs)
        rates.push_back(
            referenceMispRate(sweepRefConfig(job, opts), trace));
    return rates;
}

std::size_t
pointCount(const SweepResult &r)
{
    std::size_t n = 0;
    for (const SurfaceTier &tier : r.misprediction.tiers())
        n += tier.points.size();
    return n;
}

/**
 * One fuzzed group composition: a job list executed through the
 * model-group path under @p threads, every slot held to exact
 * equality against its reference rate (@p expected) with zero
 * aliasing surfaces.
 */
void
checkComposition(const PreparedTrace &prepared,
                 const std::vector<ConfigJob> &jobs,
                 const std::vector<double> &expected,
                 const SweepOptions &opts, unsigned threads, int round)
{
    std::vector<ConfigResult> batched =
        runGroups(prepared, jobs, opts, threads);

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(batched[j].mispRate, expected[j])
            << schemeKindName(jobs[j].kind) << " r=" << jobs[j].rowBits
            << " c=" << jobs[j].colBits << " threads=" << threads
            << " round " << round;
        EXPECT_EQ(batched[j].aliasRate, 0.0);
        EXPECT_EQ(batched[j].harmlessFraction, 0.0);
    }
}

/**
 * One fuzzed TageBatch replay: lanes of mixed entry and base widths in
 * one arena (each table followed by a fuzzed pad) and the keys of a
 * fuzzed branch stream, hashed with TageModel's own hooks exactly as
 * the sweep engine lays them out.  The stream mixes history-correlated
 * and coin-flip branches over a few dozen pcs, so lanes mispredict
 * often: allocation, the age-them-all path and useful saturation all
 * run.
 */
struct TageKernelCase
{
    unsigned lanes = 0;
    unsigned components = 0;
    unsigned tagBits = 0;
    std::vector<unsigned> histories;
    std::vector<TageParams> params;
    std::vector<std::uint32_t> fresh;
    std::vector<std::uint32_t> slot;
    std::vector<std::uint16_t> tag;
    std::vector<std::uint8_t> taken;
    std::vector<RefBranch> branches;
};

TageKernelCase
makeTageKernelCase(Pcg32 &rng, unsigned lanes, unsigned ncomp,
                   unsigned tag_bits, bool narrowest_entries)
{
    constexpr unsigned kLanes = TageBatch::kMaxLanes;
    TageKernelCase k;
    k.lanes = lanes;
    k.components = ncomp;
    k.tagBits = tag_bits;
    // A strictly ascending ladder of ncomp lengths in 1..64.
    std::vector<unsigned> pool(64);
    for (unsigned h = 0; h < 64; ++h)
        pool[h] = h + 1;
    for (unsigned c = 0; c < ncomp; ++c)
        std::swap(pool[c], pool[c + rng.nextBounded(64 - c)]);
    k.histories.assign(pool.begin(), pool.begin() + ncomp);
    std::sort(k.histories.begin(), k.histories.end());

    std::vector<std::uint32_t> base_at(lanes);
    std::vector<std::vector<std::uint32_t>> comp_at(lanes);
    std::size_t slots = 0;
    for (unsigned l = 0; l < lanes; ++l) {
        TageParams p;
        p.entryBits = narrowest_entries && l == 0
                          ? 1
                          : 1 + rng.nextBounded(7); // 1..7
        p.baseBits = 1 + rng.nextBounded(7);
        p.tagBits = tag_bits;
        p.histories = k.histories;
        k.params.push_back(p);
        base_at[l] = static_cast<std::uint32_t>(slots);
        slots += (std::size_t{1} << p.baseBits) + rng.nextBounded(17);
        for (unsigned c = 0; c < ncomp; ++c) {
            comp_at[l].push_back(static_cast<std::uint32_t>(slots));
            slots += (std::size_t{1} << p.entryBits) + rng.nextBounded(17);
        }
    }
    k.fresh.assign(slots, TageBatch::kFreshEntry);
    for (unsigned l = 0; l < lanes; ++l)
        std::fill(k.fresh.begin() + base_at[l],
                  k.fresh.begin() + comp_at[l][0], TageBatch::kFreshBase);

    std::vector<TageModel> hooks;
    for (const TageParams &p : k.params)
        hooks.emplace_back(p);
    const unsigned pcs = 2 + rng.nextBounded(40);
    const std::size_t n = 500 + rng.nextBounded(700);
    k.slot.assign(n * (ncomp + 1) * kLanes, 0);
    k.tag.resize(n * ncomp);
    std::uint64_t ghist = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned site = rng.nextBounded(pcs);
        const Addr pc = 0x400000 + (site * 0x9E3779B1ull & 0xFFFFFCull);
        // Every third site is a coin flip; the rest follow history.
        const bool tk = site % 3 == 0
                            ? rng.nextBounded(2) != 0
                            : (((ghist >> (site % 7)) ^ site) & 1) != 0;
        std::uint32_t *row = k.slot.data() + i * (ncomp + 1) * kLanes;
        for (unsigned l = 0; l < lanes; ++l) {
            row[l] = base_at[l] +
                     static_cast<std::uint32_t>(hooks[l].baseIndex(pc));
            for (unsigned c = 0; c < ncomp; ++c)
                row[(c + 1) * kLanes + l] =
                    comp_at[l][c] + static_cast<std::uint32_t>(
                                        hooks[l].taggedIndex(c, pc, ghist));
        }
        for (unsigned c = 0; c < ncomp; ++c)
            k.tag[i * ncomp + c] = hooks[0].taggedTag(c, pc, ghist);
        k.taken.push_back(static_cast<std::uint8_t>(tk));
        k.branches.push_back(RefBranch{pc, pc + 64, tk});
        ghist = (ghist << 1) | static_cast<std::uint64_t>(tk);
    }
    return k;
}

/**
 * Replay @p k on exactly @p kernel in fuzzed call spans (so state
 * carries across calls as it does across the engine's key tiles);
 * returns the final arena, the misses in @p misses.
 */
std::vector<std::uint32_t>
replayTageCase(const TageKernelCase &k, SimdTarget kernel,
               std::uint64_t *misses, Pcg32 &spans)
{
    std::vector<std::uint32_t> arena = k.fresh;
    TageBatch batch;
    batch.entries = arena.data();
    batch.lanes = k.lanes;
    batch.components = k.components;
    const std::size_t n = k.taken.size();
    for (std::size_t off = 0; off < n;) {
        const std::size_t len =
            std::min<std::size_t>(n - off, 1 + spans.nextBounded(200));
        replayTageBatchOn(
            kernel,
            TageKeys{k.slot.data() +
                         off * (k.components + 1) * TageBatch::kMaxLanes,
                     k.tag.data() + off * k.components,
                     k.taken.data() + off},
            len, batch);
        off += len;
    }
    for (unsigned l = 0; l < k.lanes; ++l)
        misses[l] = batch.misses[l];
    return arena;
}

} // namespace

TEST(ModelBatchDifferential, BatchedSweepBitIdenticalToPerConfig)
{
    // The tentpole invariant at sweep granularity: for fuzzed zoo
    // knobs, a batched sweep (one model group stepping every lane)
    // must reproduce the per-config reference mirrors exactly for any
    // thread count (which also sets how the planner chunks the model
    // groups).  >= 100 configurations
    // accumulate across rounds.
    Pcg32 rng(0x300DE1B5ULL, 17);
    std::size_t configs_checked = 0;
    for (int round = 0; round < 6; ++round) {
        const SchemeKind kind = kZooKinds[round & 1];
        MemoryTrace trace =
            fuzzTrace(6100 + round, 6000 + rng.nextBounded(6000));
        PreparedTrace prepared(trace);

        SweepOptions base;
        base.minTotalBits = 5 + rng.nextBounded(2);
        base.maxTotalBits = base.minTotalBits + 2 + rng.nextBounded(2);
        fuzzZooKnobs(base, rng);

        const SweepResult serial = referenceSweep(trace, kind, base);
        configs_checked += pointCount(serial);

        for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
            SweepOptions opts = base;
            opts.threads = threads;
            const SweepResult batched = sweepScheme(prepared, kind, opts);
            expectSurfacesIdentical(
                serial, batched,
                ("threads=" + std::to_string(threads)).c_str());
        }
    }
    EXPECT_GE(configs_checked, 100u);
}

TEST(ModelBatchDifferential, FuzzedGroupCompositionsAgreeWithPerConfig)
{
    // >= 100 fuzzed group compositions through the raw
    // planFusedGroups/runFusedGroup route: mixed tiers, duplicate
    // lanes, fuzzed model geometry and a random chunk shape per
    // composition.  Sorting lanes into
    // entry-width classes, chunked grouping and the shared key blocks
    // must never leak between lanes.
    Pcg32 rng(0xBA7C4ED5ULL, 11);

    std::vector<MemoryTrace> traces;
    std::vector<std::unique_ptr<PreparedTrace>> prepared;
    for (int i = 0; i < 5; ++i) {
        traces.push_back(
            fuzzTrace(6200 + i, 1500 + rng.nextBounded(2000)));
        prepared.push_back(
            std::make_unique<PreparedTrace>(traces.back()));
    }

    std::size_t compositions = 0;
    for (int round = 0; round < 100; ++round) {
        const SchemeKind kind = kZooKinds[rng.nextBounded(2)];
        const std::size_t trace_idx = rng.nextBounded(5);

        SweepOptions opts;
        fuzzZooKnobs(opts, rng);

        std::vector<ConfigJob> jobs;
        const std::size_t count = 3 + rng.nextBounded(6);
        for (std::size_t j = 0; j < count; ++j)
            jobs.push_back(
                fuzzZooJob(kind, 5 + rng.nextBounded(5), rng));

        const unsigned threads = 1 + rng.nextBounded(8);
        checkComposition(*prepared[trace_idx], jobs,
                         referenceRates(traces[trace_idx], jobs, opts),
                         opts, threads, round);
        ++compositions;
    }
    EXPECT_GE(compositions, 100u);
}

TEST(ModelBatchDifferential, HighAddressesAgreeWithReferenceMirrors)
{
    // The sweep engine folds pc word indices and histories of any
    // width: relocate a program above 2^46 (word indices wider than
    // 32 bits) and give TAGE a 64-bit history, and both zoo sweeps
    // must still match the reference mirrors exactly.
    const MemoryTrace base = fuzzTrace(6304, 2500);
    MemoryTrace trace("modelbatch-high");
    for (std::size_t i = 0; i < base.size(); ++i) {
        BranchRecord rec = base[i];
        rec.pc += 0x7FFF00000000ull;
        rec.target += 0x7FFF00000000ull;
        trace.append(rec);
    }
    PreparedTrace prepared(trace);

    SweepOptions opts;
    opts.minTotalBits = 5;
    opts.maxTotalBits = 7;
    opts.tageHistories = {3, 17, 40, 64};
    for (SchemeKind kind : kZooKinds) {
        const SweepResult batched = sweepScheme(prepared, kind, opts);
        for (const SurfaceTier &tier : batched.misprediction.tiers()) {
            for (const SurfacePoint &pt : tier.points) {
                ConfigJob job{kind, tier.totalBits, pt.rowBits,
                              tier.totalBits - pt.rowBits};
                EXPECT_EQ(pt.value, referenceMispRate(
                                        sweepRefConfig(job, opts), trace))
                    << schemeKindName(kind) << " r=" << pt.rowBits
                    << " c=" << job.colBits;
            }
        }
    }
}

TEST(ModelBatchDifferential, BatchedReplayAgreesWithReferenceMirrors)
{
    // Close the triangle: the batched sweep against the naive
    // reference mirrors (verify/reference_model.cc), exact equality on
    // every surface point, for default and non-default model geometry.
    MemoryTrace trace = fuzzTrace(6303, 2500);
    PreparedTrace prepared(trace);

    for (int variant = 0; variant < 2; ++variant) {
        SweepOptions opts;
        opts.minTotalBits = 5;
        opts.maxTotalBits = 7;
        if (variant == 1) {
            opts.tageTagBits = 6;
            opts.tageHistories = {2, 5, 11};
            opts.perceptronTables = 3;
        }

        for (SchemeKind kind : kZooKinds) {
            const SweepResult batched =
                sweepScheme(prepared, kind, opts);
            ASSERT_GT(batched.kernel.modelGroups, 0u);
            for (const SurfaceTier &tier :
                 batched.misprediction.tiers()) {
                for (const SurfacePoint &pt : tier.points) {
                    ConfigJob job{kind, tier.totalBits, pt.rowBits,
                                  tier.totalBits - pt.rowBits};
                    const double reference = referenceMispRate(
                        sweepRefConfig(job, opts), trace);
                    EXPECT_EQ(pt.value, reference)
                        << schemeKindName(kind) << " r=" << pt.rowBits
                        << " c=" << job.colBits << " variant "
                        << variant;
                }
            }
        }
    }
}

TEST(PerceptronBatchKernel, DispatchIsOccupancyAware)
{
    for (unsigned lanes = 1; lanes <= PerceptronBatch::kMaxLanes;
         ++lanes)
        EXPECT_EQ(perceptronBatchKernel(SimdTarget::Scalar, lanes),
                  SimdTarget::Scalar);
    if (!simdTargetSupported(SimdTarget::AVX512))
        GTEST_SKIP() << "host has no AVX-512 kernel";
    // The perceptronBatchReplay ledger's break-even (EXPERIMENTS
    // "Perceptron kernel ledger"): the 16-wide kernel pays for itself
    // from 2 live lanes.
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 1),
              SimdTarget::Scalar);
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 2),
              SimdTarget::AVX512);
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 16),
              SimdTarget::AVX512);
}

TEST(ModelBatchDifferential, PerceptronKernelTargetsMatchScalar)
{
    // The SIMD kernels in isolation: replayPerceptronBatchOn on every
    // supported kernel, at every lane count from 1 to 16, must leave a
    // bit-identical weight arena (table pads included -- they are
    // read-only by contract) and miss counts against the scalar
    // kernel, for fuzzed table counts, per-lane entry widths, weights
    // and outcomes.  The arena is laid out by the sweep engine's
    // packer and sized exactly to the layout, and the last branch
    // addresses the last weight of the last lane, so the AVX-512
    // gather window runs into the arena's final pad.  ASan does not
    // see inside a hardware gather, so the window is checked against
    // the layout too: a packer that drops the final pad fails here.
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    Pcg32 rng(0x9E2CE974ULL, 7);

    for (int round = 0; round < 48; ++round) {
        const unsigned lanes = 1 + round % PerceptronBatch::kMaxLanes;
        const unsigned tables = 2 + rng.nextBounded(7); // 2..8
        const std::size_t n = 64 + rng.nextBounded(512);

        std::vector<unsigned> eb(lanes);
        std::vector<std::size_t> entries;
        std::vector<std::int32_t> theta(lanes);
        for (unsigned l = 0; l < lanes; ++l) {
            eb[l] = rng.nextBounded(7); // 0..6
            entries.insert(entries.end(), tables, std::size_t{1} << eb[l]);
            const unsigned h = 1 + rng.nextBounded(40);
            theta[l] =
                static_cast<std::int32_t>((193u * h) / 100u + 14);
        }
        const std::vector<LaneBatchLayout> layouts =
            packLaneBatches(entries, tables, sizeof(std::int8_t));
        ASSERT_EQ(layouts.size(), 1u);
        const LaneBatchLayout &layout = layouts[0];
        std::vector<std::int8_t> init(layout.elements);
        for (std::int8_t &w : init)
            w = static_cast<std::int8_t>(
                static_cast<int>(rng.nextBounded(128)) - 64);

        // Arena offsets at stride kMaxLanes, exactly as the sweep
        // engine's key builder fills them.
        std::vector<std::uint32_t> idx(
            n * tables * PerceptronBatch::kMaxLanes, 0);
        std::vector<std::uint8_t> taken(n);
        for (std::size_t i = 0; i < n; ++i) {
            taken[i] = static_cast<std::uint8_t>(rng.nextBounded(2));
            for (unsigned t = 0; t < tables; ++t)
                for (unsigned l = 0; l < lanes; ++l)
                    idx[(i * tables + t) * PerceptronBatch::kMaxLanes + l] =
                        layout.at(l, t) + rng.nextBounded(1u << eb[l]);
        }
        const unsigned last = lanes - 1;
        const std::uint32_t last_weight =
            layout.at(last, tables - 1) + (1u << eb[last]) - 1;
        ASSERT_LE(last_weight + sizeof(std::int32_t), layout.elements);
        idx[((n - 1) * tables + tables - 1) * PerceptronBatch::kMaxLanes +
            last] = last_weight;

        const auto replay_on = [&](SimdTarget target,
                                   std::vector<std::int8_t> &arena,
                                   std::uint64_t *misses) {
            arena = init;
            PerceptronBatch batch;
            batch.weights = arena.data();
            batch.lanes = lanes;
            batch.tables = tables;
            for (unsigned l = 0; l < lanes; ++l)
                batch.theta[l] = theta[l];
            replayPerceptronBatchOn(target, idx.data(), taken.data(), n,
                                    batch);
            for (unsigned l = 0; l < lanes; ++l)
                misses[l] = batch.misses[l];
        };

        std::vector<std::int8_t> truth_arena;
        std::uint64_t truth_misses[PerceptronBatch::kMaxLanes] = {};
        replay_on(SimdTarget::Scalar, truth_arena, truth_misses);

        for (SimdTarget target : targets) {
            if (target == SimdTarget::Scalar)
                continue;
            std::vector<std::int8_t> arena;
            std::uint64_t misses[PerceptronBatch::kMaxLanes] = {};
            replay_on(target, arena, misses);
            for (unsigned l = 0; l < lanes; ++l)
                EXPECT_EQ(misses[l], truth_misses[l])
                    << simdTargetName(target) << " lane " << l
                    << " lanes=" << lanes << " tables=" << tables
                    << " eb=" << eb[l] << " round " << round;
            EXPECT_EQ(arena, truth_arena)
                << simdTargetName(target) << " arena diverged, round "
                << round;
        }
    }
}

TEST(LaneKeysKernel, DispatchIsOccupancyAware)
{
    // Two-table plans of 1..16 lanes folding history bits [0, 32) (the
    // AVX-512 builder's reach) and [0, 33) (past it).
    const auto plan = [](unsigned lanes, unsigned bits) {
        LaneKeyPlan p(2);
        for (unsigned l = 0; l < lanes; ++l) {
            p.setRaw(l, 8, 0);
            p.setFold(1, l, 0, bits, 8, 1u << 8);
        }
        return p;
    };
    for (unsigned lanes = 1; lanes <= LaneKeyPlan::kMaxLanes; ++lanes) {
        ASSERT_TRUE(plan(lanes, 32).fits32);
        ASSERT_FALSE(plan(lanes, 33).fits32);
        EXPECT_EQ(laneKeysKernel(SimdTarget::Scalar, plan(lanes, 32)),
                  SimdTarget::Scalar);
    }
    if (!simdTargetSupported(SimdTarget::AVX512))
        GTEST_SKIP() << "host has no AVX-512 kernel";
    // The laneKeys ledger's break-even (EXPERIMENTS "Zoo key-builder
    // ledger"): the 16-lane builder pays for itself from 2 live lanes;
    // a plan wider than 32 bits always runs the scalar builder.
    for (unsigned lanes = 1; lanes <= LaneKeyPlan::kMaxLanes; ++lanes) {
        EXPECT_EQ(laneKeysKernel(SimdTarget::AVX512, plan(lanes, 32)),
                  lanes >= 2 ? SimdTarget::AVX512 : SimdTarget::Scalar)
            << lanes << " lanes";
        EXPECT_EQ(laneKeysKernel(SimdTarget::AVX512, plan(lanes, 33)),
                  SimdTarget::Scalar)
            << lanes << " lanes";
    }
}

namespace {

/** One fuzzed key-builder case: a plan and its expected keys. */
struct LaneKeyCase
{
    LaneKeyPlan plan{1};
    std::vector<std::uint64_t> widx;
    std::vector<std::uint64_t> gh;
    std::vector<std::uint32_t> pcFold;
    /** expect[(i * T + t) * kMaxLanes + l] for the live lanes. */
    std::vector<std::uint32_t> expect;
    std::string what;
};

/** A 64-bit value whose width is itself fuzzed (1..64 bits). */
std::uint64_t
fuzzWord(Pcg32 &rng)
{
    const std::uint64_t v =
        (std::uint64_t{rng.next()} << 32) | rng.next();
    return v & mask(1 + rng.nextBounded(64));
}

/**
 * Branches with 62-bit pc word indices and 64-bit histories, plus the
 * lane-major pc folds the engine lays out for the plan's lanes.
 */
void
fuzzBranches(LaneKeyCase &k, Pcg32 &rng)
{
    const std::size_t n = 1 + rng.nextBounded(96);
    for (std::size_t i = 0; i < n; ++i) {
        k.widx.push_back(wordIndex(fuzzWord(rng)));
        k.gh.push_back(fuzzWord(rng));
    }
    k.pcFold.assign(n * LaneKeyPlan::kMaxLanes, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (unsigned l = 0; l < k.plan.lanes; ++l)
            k.pcFold[i * LaneKeyPlan::kMaxLanes + l] =
                static_cast<std::uint32_t>(
                    xorFold(k.widx[i], k.plan.pcBits[l]));
}

/**
 * Perceptron lanes of fuzzed (history, entry width) pairs; the keys
 * expected are (t << entryBits) + PerceptronModel::tableIndex.  A
 * @p narrow case keeps every history within 32 bits (a fits32 plan)
 * and gives lane 0 a 32-bit history at entry width 1, the deepest
 * fold such a plan has.
 */
LaneKeyCase
perceptronKeyCase(Pcg32 &rng, unsigned lanes, unsigned tables,
                  bool full_history, bool narrow)
{
    LaneKeyCase k;
    k.plan = LaneKeyPlan(tables);
    PerceptronParams params[LaneKeyPlan::kMaxLanes];
    unsigned eb[LaneKeyPlan::kMaxLanes] = {};
    const unsigned max_history = narrow ? 32 : 64;
    for (unsigned l = 0; l < lanes; ++l) {
        // Lane 0 takes entry width 0 (1 when narrow), lane 1 width 25,
        // and with full_history lane 2 the longest history (one
        // segment of it when tables == 2).
        params[l].tables = tables;
        params[l].historyBits =
            (full_history && l == 2) || (narrow && l == 0)
                ? max_history
                : 1 + rng.nextBounded(max_history);
        params[l].entryBits = l == 0   ? (narrow ? 1 : 0)
                              : l == 1 ? 25
                                       : rng.nextBounded(26);
        eb[l] = params[l].entryBits;
        const unsigned h = params[l].historyBits;
        const unsigned nseg = tables - 1;
        k.plan.setRaw(l, eb[l], 0);
        for (unsigned tb = 1; tb < tables; ++tb) {
            const unsigned lo = (tb - 1) * h / nseg;
            k.plan.setFold(tb, l, lo, tb * h / nseg - lo, eb[l],
                           static_cast<std::uint32_t>(tb) << eb[l]);
        }
    }
    fuzzBranches(k, rng);
    k.expect.assign(k.widx.size() * tables * LaneKeyPlan::kMaxLanes, 0);
    for (unsigned l = 0; l < lanes; ++l) {
        // The model allocates its tables: hold narrow lanes to it, and
        // every lane to its hash, which tableIndex is.
        const bool model_sized = eb[l] <= 12;
        const std::unique_ptr<PerceptronModel> model =
            model_sized ? std::make_unique<PerceptronModel>(params[l])
                        : nullptr;
        const unsigned h = params[l].historyBits;
        const unsigned nseg = tables - 1;
        for (std::size_t i = 0; i < k.widx.size(); ++i) {
            const Addr pc = k.widx[i] << 2;
            for (unsigned tb = 0; tb < tables; ++tb) {
                const unsigned lo = (tb - 1) * h / nseg;
                const std::uint64_t hash =
                    tb == 0 ? wordIndex(pc) & mask(eb[l])
                            : (xorFold(bitsAt(k.gh[i], lo,
                                              tb * h / nseg - lo),
                                       eb[l]) ^
                               xorFold(wordIndex(pc), eb[l])) &
                                  mask(eb[l]);
                if (model) {
                    EXPECT_EQ(hash, model->tableIndex(tb, pc, k.gh[i]));
                }
                k.expect[(i * tables + tb) * LaneKeyPlan::kMaxLanes + l] =
                    (static_cast<std::uint32_t>(tb) << eb[l]) +
                    static_cast<std::uint32_t>(hash);
            }
        }
    }
    return k;
}

/**
 * TAGE lanes of fuzzed (entry, base) widths at fuzzed arena offsets;
 * the keys expected are the offsets plus TageModel's baseIndex and
 * taggedIndex.  A @p narrow case's longest history is 32 bits (a
 * fits32 plan, like the default {4, 8, 16, 32}), otherwise 64.
 */
LaneKeyCase
tageKeyCase(Pcg32 &rng, unsigned lanes, unsigned ncomp, bool narrow)
{
    LaneKeyCase k;
    k.plan = LaneKeyPlan(ncomp + 1);
    // Strictly ascending histories, the longest one max_history bits.
    const unsigned max_history = narrow ? 32 : 64;
    std::vector<unsigned> histories{max_history};
    while (histories.size() < ncomp) {
        const unsigned h = 1 + rng.nextBounded(max_history - 1);
        if (std::find(histories.begin(), histories.end(), h) ==
            histories.end())
            histories.push_back(h);
    }
    std::sort(histories.begin(), histories.end());
    TageParams params[LaneKeyPlan::kMaxLanes];
    unsigned eb[LaneKeyPlan::kMaxLanes] = {};
    std::uint32_t base_at[LaneKeyPlan::kMaxLanes] = {};
    std::uint32_t comp_at[LaneKeyPlan::kMaxLanes] = {};
    for (unsigned l = 0; l < lanes; ++l) {
        params[l].histories = histories;
        params[l].entryBits =
            l == 0 ? 1 : l == 1 ? 25 : 1 + rng.nextBounded(25);
        params[l].baseBits = 1 + rng.nextBounded(25);
        eb[l] = params[l].entryBits;
        base_at[l] = rng.nextBounded(1u << 30);
        comp_at[l] = rng.nextBounded(1u << 30);
        k.plan.setRaw(l, params[l].baseBits, base_at[l]);
        for (unsigned c = 0; c < ncomp; ++c)
            k.plan.setFold(c + 1, l, 0, histories[c], eb[l],
                           comp_at[l] + (c << 26));
    }
    fuzzBranches(k, rng);
    const std::size_t row = std::size_t{ncomp + 1} * LaneKeyPlan::kMaxLanes;
    k.expect.assign(k.widx.size() * row, 0);
    for (unsigned l = 0; l < lanes; ++l) {
        const bool model_sized = eb[l] <= 12 && params[l].baseBits <= 12;
        const std::unique_ptr<TageModel> model =
            model_sized ? std::make_unique<TageModel>(params[l]) : nullptr;
        for (std::size_t i = 0; i < k.widx.size(); ++i) {
            const Addr pc = k.widx[i] << 2;
            const std::uint64_t base = wordIndex(pc) & mask(params[l].baseBits);
            if (model) {
                EXPECT_EQ(base, model->baseIndex(pc));
            }
            k.expect[i * row + l] =
                base_at[l] + static_cast<std::uint32_t>(base);
            for (unsigned c = 0; c < ncomp; ++c) {
                const std::uint64_t hash =
                    (xorFold(k.gh[i] & mask(histories[c]), eb[l]) ^
                     xorFold(wordIndex(pc), eb[l])) &
                    mask(eb[l]);
                if (model) {
                    EXPECT_EQ(hash, model->taggedIndex(c, pc, k.gh[i]));
                }
                k.expect[i * row + (c + 1) * LaneKeyPlan::kMaxLanes + l] =
                    comp_at[l] + (c << 26) +
                    static_cast<std::uint32_t>(hash);
            }
        }
    }
    return k;
}

} // namespace

TEST(ModelBatchDifferential, LaneKeyBuildersMatchModelHashes)
{
    // The key builders in isolation: buildLaneKeysOn on every supported
    // builder, at every lane count from 1 to 16, must produce exactly
    // the keys the models hash (PerceptronModel::tableIndex, TageModel's
    // baseIndex/taggedIndex, or their xorFold expression where a model
    // would be too large to allocate) for every live lane, for mixed
    // (history, entry width) pairs per batch, entry widths 0..25,
    // histories and segments of 1..64 bits and 62-bit pc word indices.
    // Each (scheme, lane count) runs narrow plans (histories of at most
    // 32 bits, folded by the AVX-512 builder) and wide ones (up to 64
    // bits, which every builder hands to the scalar one).  Dead lanes:
    // the AVX-512 builder writes key 0, the scalar one leaves them
    // alone.
    constexpr std::uint32_t kUntouched = 0xDEADBEEFu;
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    Pcg32 rng(0x1A9EC0DEULL, 17);
    for (int round = 0; round < 128; ++round) {
        const unsigned lanes = 1 + round % LaneKeyPlan::kMaxLanes;
        const bool perceptron = round / 16 % 2 == 0;
        const bool narrow = round / 32 % 2 == 1;
        LaneKeyCase k;
        if (perceptron) {
            const unsigned tables =
                round % 3 == 0 ? 2 : 2 + rng.nextBounded(15); // 2..16
            k = perceptronKeyCase(rng, lanes, tables, round % 2 == 0,
                                  narrow);
            k.what = "perceptron tables=" + std::to_string(tables);
        } else {
            const unsigned ncomp = 1 + rng.nextBounded(8);
            k = tageKeyCase(rng, lanes, ncomp, narrow);
            k.what = "tage components=" + std::to_string(ncomp);
        }
        k.what += " lanes=" + std::to_string(lanes) +
                  (narrow ? " narrow" : " wide") + " round " +
                  std::to_string(round);
        ASSERT_EQ(k.plan.lanes, lanes) << k.what;
        if (narrow) {
            // Lane 0 folds a 32-bit segment (perceptron tables == 2) or
            // history (TAGE) at entry width 1, or shorter segments of
            // more tables: the 32-bit builder runs fold steps.
            ASSERT_TRUE(k.plan.fits32) << k.what;
            ASSERT_GT(k.plan.steps, 0u) << k.what;
        } else if (!perceptron) {
            ASSERT_FALSE(k.plan.fits32) << k.what;
        }
        const auto tables = static_cast<unsigned>(k.plan.tables.size());

        for (SimdTarget target : targets) {
            const bool vector_builder =
                target == SimdTarget::AVX512 && k.plan.fits32;
            std::vector<std::uint32_t> keys(k.expect.size(), kUntouched);
            buildLaneKeysOn(target, k.plan, k.widx.data(), k.gh.data(),
                            k.pcFold.data(), k.widx.size(), keys.data());
            for (std::size_t i = 0; i < k.widx.size(); ++i) {
                for (unsigned t = 0; t < tables; ++t) {
                    for (unsigned l = 0; l < LaneKeyPlan::kMaxLanes; ++l) {
                        const std::size_t at =
                            (i * tables + t) * LaneKeyPlan::kMaxLanes + l;
                        const std::uint32_t want =
                            l < lanes        ? k.expect[at]
                            : vector_builder ? 0u
                                             : kUntouched;
                        ASSERT_EQ(keys[at], want)
                            << simdTargetName(target) << " branch " << i
                            << " table " << t << " lane " << l << ", "
                            << k.what;
                    }
                }
            }
        }
    }
}

TEST(TageBatchKernel, DispatchIsOccupancyAware)
{
    for (unsigned lanes = 1; lanes <= TageBatch::kMaxLanes; ++lanes)
        EXPECT_EQ(tageBatchKernel(SimdTarget::Scalar, lanes),
                  SimdTarget::Scalar);
    if (!simdTargetSupported(SimdTarget::AVX512))
        GTEST_SKIP() << "host has no AVX-512 kernel";
    // The tageBatchReplay ledger's break-even (EXPERIMENTS "TAGE
    // kernel ledger"): the 16-wide kernel pays for itself from 5 live
    // lanes, so grid-sized batches of 9-16 lanes always run it.
    for (unsigned lanes = 1; lanes <= TageBatch::kMaxLanes; ++lanes)
        EXPECT_EQ(tageBatchKernel(SimdTarget::AVX512, lanes),
                  lanes >= 5 ? SimdTarget::AVX512 : SimdTarget::Scalar)
            << lanes << " lanes";
}

TEST(ModelBatchDifferential, TageKernelTargetsMatchScalar)
{
    // The TAGE kernels in isolation: replayTageBatchOn on every
    // supported kernel, at every lane count from 1 to 16, must leave a
    // bit-identical arena (pads included: no kernel writes outside the
    // keyed slots) and identical miss counts against the scalar kernel;
    // and the scalar kernel's misses must match the NaiveTage mirror.  The rounds cover 1 and 8 components, tag widths 2
    // and 16, entry width 1 and mixed entry widths in one batch.
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    Pcg32 rng(0x7A6EB47CULL, 13);
    std::uint64_t allocations = 0;
    std::uint64_t agings = 0;
    std::uint64_t saturated = 0;

    for (int round = 0; round < 32; ++round) {
        const unsigned lanes = 1 + round % TageBatch::kMaxLanes;
        const unsigned ncomp = round % 4 == 0   ? 1
                               : round % 4 == 1 ? 8
                                                : 2 + rng.nextBounded(6);
        const unsigned tag_bits = round % 3 == 0   ? 2
                                  : round % 3 == 1 ? 16
                                                   : 2 + rng.nextBounded(15);
        const TageKernelCase k =
            makeTageKernelCase(rng, lanes, ncomp, tag_bits, round % 2 == 0);
        const std::string what = "round " + std::to_string(round) +
                                 " lanes=" + std::to_string(lanes) +
                                 " components=" + std::to_string(ncomp) +
                                 " tagBits=" + std::to_string(tag_bits);

        const std::uint64_t span_seed = rng.nextBounded(1u << 30);
        std::uint64_t truth[TageBatch::kMaxLanes] = {};
        Pcg32 truth_spans(span_seed, 1);
        const std::vector<std::uint32_t> truth_arena =
            replayTageCase(k, SimdTarget::Scalar, truth, truth_spans);

        for (unsigned l = 0; l < lanes; ++l) {
            // The naive mirror is slow by design: hold every fourth
            // lane to it, a different quarter each round.
            if ((l + round) % 4 == 0) {
                RefConfig cfg;
                cfg.scheme = RefScheme::Tage;
                cfg.rowBits = k.params[l].entryBits;
                cfg.colBits = k.params[l].baseBits;
                cfg.tagBits = tag_bits;
                cfg.tageHistories = k.histories;
                const auto naive = makeReferencePredictor(cfg);
                std::uint64_t misses = 0;
                for (const RefBranch &branch : k.branches)
                    misses +=
                        naive->predictAndTrain(branch) != branch.taken;
                EXPECT_EQ(truth[l], misses) << what << " lane " << l;
            }

            // Coverage: the online model names the events.
            TageModel model(k.params[l]);
            std::uint64_t ghist = 0;
            for (const RefBranch &branch : k.branches) {
                const TageStep step =
                    model.step(branch.pc, ghist, branch.taken);
                allocations += step.allocated;
                agings += step.prediction != branch.taken &&
                          step.provider < ncomp && !step.allocated;
                ghist = (ghist << 1) | static_cast<std::uint64_t>(
                                           branch.taken);
            }
        }
        for (std::uint32_t word : truth_arena)
            saturated += (word & TageBatch::kValid) != 0 &&
                         (word & TageBatch::kUsefulMask) ==
                             TageBatch::kUsefulMask;

        for (SimdTarget target : targets) {
            if (target == SimdTarget::Scalar)
                continue;
            std::uint64_t misses[TageBatch::kMaxLanes] = {};
            Pcg32 spans(span_seed, 1);
            const std::vector<std::uint32_t> arena =
                replayTageCase(k, target, misses, spans);
            for (unsigned l = 0; l < lanes; ++l)
                EXPECT_EQ(misses[l], truth[l])
                    << simdTargetName(target) << " lane " << l << ", "
                    << what;
            EXPECT_EQ(std::memcmp(arena.data(), truth_arena.data(),
                                  arena.size() * sizeof(std::uint32_t)),
                      0)
                << simdTargetName(target) << " arena diverged, " << what;
        }
    }
    EXPECT_GT(allocations, 0u);
    EXPECT_GT(agings, 0u);
    EXPECT_GT(saturated, 0u);
}

TEST(ModelBatchDifferential, TelemetryReportsModelGroupShape)
{
    MemoryTrace trace = fuzzTrace(6606, 10'000);
    PreparedTrace prepared(trace);
    // One exact pass per model group, block by block, and one kernel
    // batch of up to 16 lanes per (block, lane batch of a group).
    const std::size_t blocks = (prepared.size() + 2047) / 2048;

    SweepOptions opts;
    opts.minTotalBits = 5;
    opts.maxTotalBits = 8;
    for (unsigned threads : {1u, 3u}) {
        opts.threads = threads;
        for (SchemeKind kind : kZooKinds) {
            const SweepResult r = sweepScheme(prepared, kind, opts);
            const std::string name = std::string(schemeKindName(kind)) +
                                     " threads=" + std::to_string(threads);
            std::size_t lane_batches = 0;
            for (const FusedGroup &group :
                 planFusedGroups(planSweep(kind, opts), threads))
                lane_batches += (group.jobs.size() + 15) / 16;

            // Zoo groups are model groups, not 2-bit lane groups.
            EXPECT_EQ(r.kernel.fusedGroups, 0u) << name;
            EXPECT_EQ(r.kernel.lanes, 0u) << name;
            EXPECT_EQ(r.kernel.laneBatches, 0u) << name;
            ASSERT_GT(r.kernel.modelGroups, 0u) << name;
            EXPECT_EQ(r.kernel.modelLanes, planSweep(kind, opts).size())
                << name;
            EXPECT_EQ(r.kernel.modelBatches, blocks * lane_batches)
                << name;
            EXPECT_EQ(r.kernel.blocksReplayed,
                      r.kernel.modelGroups * blocks)
                << name;
            EXPECT_GT(r.kernel.modelLanesPerGroup(), 0.0) << name;
        }
    }
}

TEST(ModelBatchSlow, CompositionCampaign)
{
    if (std::getenv("BPSIM_SLOW_TESTS") == nullptr) {
        GTEST_SKIP() << "set BPSIM_SLOW_TESTS=1 to run the long "
                        "campaign (ctest -L zoo)";
    }

    // The long campaign: hundreds of fuzzed group compositions with
    // longer traces, every slot held to the naive reference mirrors.
    Pcg32 rng(0x51077CA3ULL, 29);

    std::vector<MemoryTrace> traces;
    std::vector<std::unique_ptr<PreparedTrace>> prepared;
    for (int i = 0; i < 8; ++i) {
        traces.push_back(
            fuzzTrace(6700 + i, 3000 + rng.nextBounded(5000)));
        prepared.push_back(
            std::make_unique<PreparedTrace>(traces.back()));
    }

    for (int round = 0; round < 200; ++round) {
        const SchemeKind kind = kZooKinds[rng.nextBounded(2)];
        const std::size_t trace_idx = rng.nextBounded(8);
        const PreparedTrace &t = *prepared[trace_idx];

        SweepOptions opts;
        fuzzZooKnobs(opts, rng);

        std::vector<ConfigJob> jobs;
        const std::size_t count = 3 + rng.nextBounded(8);
        for (std::size_t j = 0; j < count; ++j)
            jobs.push_back(
                fuzzZooJob(kind, 5 + rng.nextBounded(6), rng));

        const unsigned threads = 1 + rng.nextBounded(8);
        const std::vector<double> expected =
            referenceRates(traces[trace_idx], jobs, opts);
        checkComposition(t, jobs, expected, opts, threads, round);
    }
}
