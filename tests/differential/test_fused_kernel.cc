/**
 * @file
 * Differential verification of the 2-bit lane engines: for fuzzed
 * sets of (tier, split) configurations across all seven sweep schemes,
 * the packed engine on planned multi-lane groups, the same jobs as
 * one-lane groups, the aliasing engine and the naive reference model
 * must agree bit-exactly on every misprediction rate.
 *
 * This is the sweep-group-shaped complement of the per-pair engine
 * cross-check inside runDifferentialFuzzer (which the tier-1 campaign
 * in test_differential_fuzz.cc runs): here whole mixed-tier job lists
 * go through planFusedGroups/runFusedGroup exactly as sweepScheme
 * dispatches them.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sim/sweep.hh"
#include "verify/differential.hh"
#include "workload/synthetic.hh"

using namespace bpsim;
using namespace bpsim::verify;

namespace {

constexpr SchemeKind allKinds[] = {
    SchemeKind::AddressIndexed, SchemeKind::GAg,
    SchemeKind::GAs,            SchemeKind::Gshare,
    SchemeKind::Path,           SchemeKind::PAsPerfect,
    SchemeKind::PAsFinite,
};

MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "fused-diff-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 80;
    p.functionCount = 8;
    p.targetConditionals = conditionals;
    return generateTrace(p);
}

/** Run @p jobs through planFusedGroups/runFusedGroup. */
std::vector<ConfigResult>
runFused(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
         const SweepOptions &opts, unsigned threads)
{
    StreamCache cache(t, opts);
    cache.prepare(jobs, 1);
    std::vector<ConfigResult> slots(jobs.size());
    for (const FusedGroup &group :
         planFusedGroups(jobs, opts, threads))
        runFusedGroup(group, jobs, cache, slots.data());
    return slots;
}

/** Run every job of @p jobs as its own one-lane group. */
std::vector<ConfigResult>
runOneLane(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
           const SweepOptions &opts)
{
    StreamCache cache(t, opts);
    std::vector<ConfigResult> slots(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        runFusedGroup(singleJobGroup(jobs, j), jobs, cache, slots.data());
    return slots;
}

} // namespace

TEST(FusedKernelDifferential, FuzzedGroupsAgreeWithPerConfigKernel)
{
    // Fuzzed mixed-tier job lists for every scheme: planned multi-lane
    // groups must match one-lane groups exactly, field for field, and
    // the reference model and the aliasing engine on misprediction.
    Pcg32 rng(0xF05ED0BAULL, 11);
    for (int round = 0; round < 10; ++round) {
        const SchemeKind kind = allKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(1000 + round, 2000 + rng.nextBounded(3000));
        PreparedTrace prepared(trace);

        SweepOptions opts;
        opts.trackAliasing = false;
        opts.bhtEntries = 32u << rng.nextBounded(3);
        opts.bhtAssoc = rng.nextBounded(2) ? 4 : 2;
        SweepOptions aliasing = opts;
        aliasing.trackAliasing = true;

        // A fuzzed (tier, split) set: random tiers 4..9, random
        // splits, duplicates of row width across tiers included.
        std::vector<ConfigJob> jobs;
        const std::size_t count = 3 + rng.nextBounded(6);
        for (std::size_t j = 0; j < count; ++j) {
            unsigned total = 4 + rng.nextBounded(6);
            unsigned r = rng.nextBounded(total + 1);
            if (kind == SchemeKind::AddressIndexed)
                r = 0;
            if (kind == SchemeKind::GAg)
                r = total;
            jobs.push_back(ConfigJob{kind, total, r, total - r});
        }

        const unsigned threads = 1 + rng.nextBounded(3);
        std::vector<ConfigResult> fused =
            runFused(prepared, jobs, opts, threads);

        const std::vector<ConfigResult> one_lane =
            runOneLane(prepared, jobs, opts);
        const std::vector<ConfigResult> tracked =
            runFused(prepared, jobs, aliasing, threads);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const ConfigResult &expected = one_lane[j];
            EXPECT_EQ(fused[j].mispRate, expected.mispRate)
                << schemeKindName(kind) << " r=" << jobs[j].rowBits
                << " c=" << jobs[j].colBits << " round " << round;
            EXPECT_EQ(fused[j].bhtMissRate, expected.bhtMissRate)
                << schemeKindName(kind) << " round " << round;
            EXPECT_EQ(fused[j].aliasRate, expected.aliasRate);
            EXPECT_EQ(fused[j].harmlessFraction,
                      expected.harmlessFraction);
            EXPECT_EQ(fused[j].mispRate,
                      referenceMispRate(sweepRefConfig(jobs[j], opts),
                                        trace))
                << schemeKindName(kind) << " vs reference, round "
                << round;
            EXPECT_EQ(tracked[j].mispRate, fused[j].mispRate)
                << schemeKindName(kind) << " aliasing engine, round "
                << round;
        }
    }
}

TEST(FusedKernelDifferential, AllSchemesAgreeWithReferenceModel)
{
    // Close the triangle: fused kernel vs the naive reference model,
    // exact equality, on a fuzzed split per scheme per tier.
    Pcg32 rng(0xD1FF05EDULL, 3);
    MemoryTrace trace = fuzzTrace(77, 2500);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : allKinds) {
        SweepOptions opts;
        opts.trackAliasing = false;
        opts.bhtEntries = 64;
        opts.bhtAssoc = 4;

        std::vector<ConfigJob> jobs;
        for (unsigned total : {4u, 6u, 8u}) {
            unsigned r = rng.nextBounded(total + 1);
            if (kind == SchemeKind::AddressIndexed)
                r = 0;
            if (kind == SchemeKind::GAg)
                r = total;
            jobs.push_back(ConfigJob{kind, total, r, total - r});
        }

        std::vector<ConfigResult> fused =
            runFused(prepared, jobs, opts, 1);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const double reference =
                referenceMispRate(sweepRefConfig(jobs[j], opts), trace);
            EXPECT_EQ(fused[j].mispRate, reference)
                << schemeKindName(kind) << " r=" << jobs[j].rowBits
                << " c=" << jobs[j].colBits;
        }
    }
}

TEST(FusedKernelDifferential, ForcedDispatchTargetsBitIdentical)
{
    // The SIMD dispatch campaign: >= 100 fuzzed group configurations,
    // each executed under EVERY dispatch target this host supports
    // (scalar always; SSE2/AVX2 when available), with every target
    // held to exact equality against the naive reference model on
    // every job, and against scalar one-lane groups on the BHT miss
    // rate.
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    ASSERT_GE(targets.size(), 1u);
    ASSERT_EQ(targets.front(), SimdTarget::Scalar);

    Pcg32 rng(0x51D0F05EULL, 17);
    std::size_t configs_checked = 0;
    for (int round = 0; configs_checked < 100; ++round) {
        ASSERT_LT(round, 64) << "fuzzer failed to reach 100 configs";
        const SchemeKind kind = allKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(4000 + round, 1500 + rng.nextBounded(2500));
        PreparedTrace prepared(trace);

        SweepOptions opts;
        opts.trackAliasing = false;
        opts.simd = SimdTarget::Scalar;
        opts.bhtEntries = 32u << rng.nextBounded(3);
        opts.bhtAssoc = rng.nextBounded(2) ? 4 : 2;

        std::vector<ConfigJob> jobs;
        const std::size_t count = 4 + rng.nextBounded(5);
        for (std::size_t j = 0; j < count; ++j) {
            unsigned total = 4 + rng.nextBounded(7);
            unsigned r = rng.nextBounded(total + 1);
            if (kind == SchemeKind::AddressIndexed)
                r = 0;
            if (kind == SchemeKind::GAg)
                r = total;
            jobs.push_back(ConfigJob{kind, total, r, total - r});
        }

        const std::vector<ConfigResult> expected =
            runOneLane(prepared, jobs, opts);
        std::vector<double> reference(jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j)
            reference[j] =
                referenceMispRate(sweepRefConfig(jobs[j], opts), trace);

        for (SimdTarget target : targets) {
            SweepOptions forced = opts;
            forced.simd = target;
            std::vector<ConfigResult> fused =
                runFused(prepared, jobs, forced,
                         1 + rng.nextBounded(2));
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                EXPECT_EQ(fused[j].mispRate, reference[j])
                    << simdTargetName(target) << " "
                    << schemeKindName(kind) << " r=" << jobs[j].rowBits
                    << " c=" << jobs[j].colBits << " round " << round;
                EXPECT_EQ(fused[j].bhtMissRate,
                          expected[j].bhtMissRate)
                    << simdTargetName(target) << " round " << round;
            }
        }
        configs_checked += jobs.size();
    }
    EXPECT_GE(configs_checked, 100u);
}

TEST(FusedKernelDifferential, WholeSweepTriangleOnCoreSchemes)
{
    // sweepScheme end to end, packed engine vs aliasing engine, with
    // reference spot checks at the corners of each scheme's surface.
    MemoryTrace trace = fuzzTrace(5, 4000);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : allKinds) {
        SweepOptions fused;
        fused.minTotalBits = 4;
        fused.maxTotalBits = 7;
        fused.trackAliasing = false;
        fused.bhtEntries = 64;
        SweepOptions aliasing = fused;
        aliasing.trackAliasing = true;

        SweepResult rf = sweepScheme(prepared, kind, fused);
        SweepResult rp = sweepScheme(prepared, kind, aliasing);
        ASSERT_EQ(rf.misprediction.tiers().size(),
                  rp.misprediction.tiers().size());
        for (std::size_t t = 0; t < rf.misprediction.tiers().size();
             ++t) {
            const SurfaceTier &tf = rf.misprediction.tiers()[t];
            const SurfaceTier &tp = rp.misprediction.tiers()[t];
            ASSERT_EQ(tf.points.size(), tp.points.size());
            for (std::size_t p = 0; p < tf.points.size(); ++p)
                EXPECT_EQ(tf.points[p].value, tp.points[p].value)
                    << schemeKindName(kind) << " tier 2^"
                    << tf.totalBits << " rows 2^"
                    << tf.points[p].rowBits;
        }

        // Reference spot check at both edges of the largest tier.
        for (const SurfacePoint &pt :
             {rf.misprediction.tiers().back().points.front(),
              rf.misprediction.tiers().back().points.back()}) {
            ConfigJob job{kind, pt.rowBits + pt.colBits, pt.rowBits,
                          pt.colBits};
            const double reference =
                referenceMispRate(sweepRefConfig(job, fused), trace);
            EXPECT_EQ(pt.value, reference)
                << schemeKindName(kind) << " r=" << pt.rowBits
                << " c=" << pt.colBits;
        }
    }
}
