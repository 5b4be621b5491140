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

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/simd.hh"
#include "sim/sweep.hh"
#include "verify/differential.hh"
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
         ++lanes) {
        EXPECT_EQ(perceptronBatchKernel(SimdTarget::Scalar, lanes),
                  SimdTarget::Scalar);
        // The 8-wide AVX2 kernel pays for itself from 4 live lanes.
        EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX2, lanes),
                  lanes >= 4 ? SimdTarget::AVX2 : SimdTarget::Scalar);
    }
    if (!simdTargetSupported(SimdTarget::AVX512))
        GTEST_SKIP() << "host has no AVX-512 kernel";
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 1),
              SimdTarget::Scalar);
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 3),
              SimdTarget::Scalar);
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 4),
              SimdTarget::AVX2);
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 8),
              SimdTarget::AVX2);
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 9),
              SimdTarget::AVX512);
    EXPECT_EQ(perceptronBatchKernel(SimdTarget::AVX512, 16),
              SimdTarget::AVX512);
}

TEST(ModelBatchDifferential, PerceptronKernelTargetsMatchScalar)
{
    // The SIMD kernels in isolation: replayPerceptronBatchOn on every
    // supported kernel, at every lane count from 1 to 16, must leave
    // bit-identical weight banks (gather-slack padding included -- it
    // is read-only by contract) and miss counts against the scalar
    // kernel, for fuzzed table counts, per-lane entry widths, weights
    // and outcomes.
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    Pcg32 rng(0x9E2CE974ULL, 7);

    for (int round = 0; round < 48; ++round) {
        const unsigned lanes = 1 + round % PerceptronBatch::kMaxLanes;
        const unsigned tables = 2 + rng.nextBounded(7); // 2..8
        const std::size_t n = 64 + rng.nextBounded(512);

        std::vector<unsigned> eb(lanes);
        std::vector<std::vector<std::int8_t>> init(lanes);
        std::vector<std::int32_t> theta(lanes);
        for (unsigned l = 0; l < lanes; ++l) {
            eb[l] = rng.nextBounded(7); // 0..6
            init[l].resize((std::size_t{tables} << eb[l]) +
                           PerceptronBatch::kGatherSlack);
            for (std::size_t b = 0; b < init[l].size(); ++b)
                init[l][b] = static_cast<std::int8_t>(
                    static_cast<int>(rng.nextBounded(128)) - 64);
            const unsigned h = 1 + rng.nextBounded(40);
            theta[l] =
                static_cast<std::int32_t>((193u * h) / 100u + 14);
        }

        // Pre-offset index layout: (t << entryBits_l) + tableIndex at
        // stride kMaxLanes, exactly as the sweep engine fills it.
        std::vector<std::uint32_t> idx(
            n * tables * PerceptronBatch::kMaxLanes, 0);
        std::vector<std::uint8_t> taken(n);
        for (std::size_t i = 0; i < n; ++i) {
            taken[i] = static_cast<std::uint8_t>(rng.nextBounded(2));
            for (unsigned t = 0; t < tables; ++t)
                for (unsigned l = 0; l < lanes; ++l)
                    idx[(i * tables + t) *
                            PerceptronBatch::kMaxLanes +
                        l] = (t << eb[l]) +
                             rng.nextBounded(1u << eb[l]);
        }

        const auto replay_on = [&](SimdTarget target,
                                   std::vector<std::vector<
                                       std::int8_t>> &banks,
                                   std::uint64_t *misses) {
            PerceptronBatch batch;
            batch.lanes = lanes;
            batch.tables = tables;
            for (unsigned l = 0; l < lanes; ++l) {
                banks[l] = init[l];
                batch.weights[l] = banks[l].data();
                batch.theta[l] = theta[l];
            }
            replayPerceptronBatchOn(target, idx.data(), taken.data(), n,
                                    batch);
            for (unsigned l = 0; l < lanes; ++l)
                misses[l] = batch.misses[l];
        };

        std::vector<std::vector<std::int8_t>> truth_banks(lanes);
        std::uint64_t truth_misses[PerceptronBatch::kMaxLanes] = {};
        replay_on(SimdTarget::Scalar, truth_banks, truth_misses);

        for (SimdTarget target : targets) {
            if (target == SimdTarget::Scalar)
                continue;
            std::vector<std::vector<std::int8_t>> banks(lanes);
            std::uint64_t misses[PerceptronBatch::kMaxLanes] = {};
            replay_on(target, banks, misses);
            for (unsigned l = 0; l < lanes; ++l) {
                EXPECT_EQ(misses[l], truth_misses[l])
                    << simdTargetName(target) << " lane " << l
                    << " lanes=" << lanes << " tables=" << tables
                    << " eb=" << eb[l] << " round " << round;
                EXPECT_EQ(std::memcmp(banks[l].data(),
                                      truth_banks[l].data(),
                                      banks[l].size()),
                          0)
                    << simdTargetName(target) << " lane " << l
                    << " bank diverged, round " << round;
            }
        }
    }
}

TEST(ModelBatchDifferential, TelemetryReportsModelGroupShape)
{
    MemoryTrace trace = fuzzTrace(6606, 10'000);
    PreparedTrace prepared(trace);
    // One exact pass per model group, block by block.
    const std::size_t blocks = (prepared.size() + 2047) / 2048;

    SweepOptions opts;
    opts.minTotalBits = 5;
    opts.maxTotalBits = 8;
    for (SchemeKind kind : kZooKinds) {
        const SweepResult r = sweepScheme(prepared, kind, opts);
        const char *name = schemeKindName(kind);

        // Zoo groups are model groups, not 2-bit lane groups.
        EXPECT_EQ(r.kernel.fusedGroups, 0u) << name;
        EXPECT_EQ(r.kernel.lanes, 0u) << name;
        EXPECT_EQ(r.kernel.laneBatches, 0u) << name;
        ASSERT_GT(r.kernel.modelGroups, 0u) << name;
        EXPECT_EQ(r.kernel.modelLanes, planSweep(kind, opts).size())
            << name;
        EXPECT_GE(r.kernel.modelBatches, r.kernel.blocksReplayed)
            << name;
        EXPECT_EQ(r.kernel.blocksReplayed,
                  r.kernel.modelGroups * blocks)
            << name;
        EXPECT_GT(r.kernel.modelLanesPerGroup(), 0.0) << name;
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
