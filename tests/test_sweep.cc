/**
 * @file
 * Tests for the configuration sweep engine, most importantly the
 * equivalence between the fast sweep path and the online
 * TwoLevelPredictor for every scheme.
 */

#include <gtest/gtest.h>

#include "predictor/two_level.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "verify/differential.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

MemoryTrace &
sharedWorkload()
{
    static MemoryTrace trace = [] {
        WorkloadParams p;
        p.name = "sweep-unit";
        p.seed = 21;
        p.staticBranches = 150;
        p.functionCount = 15;
        p.targetConditionals = 30'000;
        return generateTrace(p);
    }();
    return trace;
}

double
onlineMisp(BranchPredictor &p)
{
    MemoryTrace &t = sharedWorkload();
    t.reset();
    return runPredictor(t, p).mispRate();
}

} // namespace

TEST(Sweep, TierAndPointCounts)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 7;
    SweepResult r = sweepScheme(t, SchemeKind::GAs, o);
    ASSERT_EQ(r.misprediction.tiers().size(), 4u);
    for (const auto &tier : r.misprediction.tiers())
        EXPECT_EQ(tier.points.size(), tier.totalBits + 1);
}

TEST(Sweep, DegenerateSchemesHaveOnePointPerTier)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 8;
    SweepResult addr = sweepScheme(t, SchemeKind::AddressIndexed, o);
    SweepResult gag = sweepScheme(t, SchemeKind::GAg, o);
    for (const auto &tier : addr.misprediction.tiers()) {
        ASSERT_EQ(tier.points.size(), 1u);
        EXPECT_EQ(tier.points[0].rowBits, 0u);
    }
    for (const auto &tier : gag.misprediction.tiers()) {
        ASSERT_EQ(tier.points.size(), 1u);
        EXPECT_EQ(tier.points[0].colBits, 0u);
    }
}

TEST(Sweep, RatesAreValidProbabilities)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 10;
    for (SchemeKind kind :
         {SchemeKind::GAs, SchemeKind::Gshare, SchemeKind::Path,
          SchemeKind::PAsPerfect}) {
        SweepResult r = sweepScheme(t, kind, o);
        for (const auto &tier : r.misprediction.tiers()) {
            for (const auto &pt : tier.points) {
                EXPECT_GE(pt.value, 0.0);
                EXPECT_LE(pt.value, 1.0);
            }
        }
        for (const auto &tier : r.aliasing.tiers()) {
            for (const auto &pt : tier.points) {
                EXPECT_GE(pt.value, 0.0);
                EXPECT_LE(pt.value, 1.0);
            }
        }
    }
}

TEST(Sweep, SchemeNames)
{
    EXPECT_STREQ(schemeKindName(SchemeKind::AddressIndexed), "addr");
    EXPECT_STREQ(schemeKindName(SchemeKind::GAg), "GAg");
    EXPECT_STREQ(schemeKindName(SchemeKind::GAs), "GAs");
    EXPECT_STREQ(schemeKindName(SchemeKind::Gshare), "gshare");
    EXPECT_STREQ(schemeKindName(SchemeKind::Path), "path");
    EXPECT_STREQ(schemeKindName(SchemeKind::PAsPerfect), "PAs(inf)");
    EXPECT_STREQ(schemeKindName(SchemeKind::PAsFinite), "PAs(bht)");
}

TEST(Sweep, BhtMissRateReported)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 6;
    o.maxTotalBits = 6;
    o.bhtEntries = 32;
    o.bhtAssoc = 4;
    SweepResult r = sweepScheme(t, SchemeKind::PAsFinite, o);
    EXPECT_GT(r.bhtMissRate, 0.0);
    EXPECT_LT(r.bhtMissRate, 1.0);
}

// --- The fast-path / online equivalence matrix ---

struct EquivCase
{
    SchemeKind kind;
    unsigned rowBits;
    unsigned colBits;
};

class SweepEquivalence : public ::testing::TestWithParam<EquivCase>
{
};

TEST_P(SweepEquivalence, FastPathMatchesOnlinePredictor)
{
    const EquivCase &c = GetParam();
    PreparedTrace prepared(sharedWorkload());

    SweepOptions o;
    o.trackAliasing = true;
    o.bhtEntries = 64;
    o.bhtAssoc = 4;
    ConfigResult fast =
        simulateConfig(prepared, c.kind, c.rowBits, c.colBits, o);

    std::unique_ptr<TwoLevelPredictor> online;
    switch (c.kind) {
      case SchemeKind::AddressIndexed:
        online = makeAddressIndexed(c.colBits, true);
        break;
      case SchemeKind::GAg:
        online = makeGAg(c.rowBits, true);
        break;
      case SchemeKind::GAs:
        online = makeGAs(c.rowBits, c.colBits, true);
        break;
      case SchemeKind::Gshare:
        online = makeGshare(c.rowBits, c.colBits, true);
        break;
      case SchemeKind::Path:
        online = makePath(c.rowBits, c.colBits, 2, true);
        break;
      case SchemeKind::PAsPerfect:
        online = makePAsPerfect(c.rowBits, c.colBits, true);
        break;
      case SchemeKind::PAsFinite:
        online = makePAsFinite(c.rowBits, c.colBits, 64, 4, true);
        break;
      case SchemeKind::Tage:
      case SchemeKind::Perceptron:
        FAIL() << "zoo schemes have no TwoLevelPredictor twin";
        break;
    }

    double online_misp = onlineMisp(*online);
    EXPECT_NEAR(fast.mispRate, online_misp, 1e-12)
        << "scheme " << schemeKindName(c.kind) << " 2^" << c.rowBits
        << " x 2^" << c.colBits;

    const AliasTracker *alias = online->pht().aliasStats();
    ASSERT_NE(alias, nullptr);
    EXPECT_NEAR(fast.aliasRate, alias->aliasRate(), 1e-12);
    EXPECT_NEAR(fast.harmlessFraction, alias->harmlessFraction(),
                1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SweepEquivalence,
    ::testing::Values(
        EquivCase{SchemeKind::AddressIndexed, 0, 8},
        EquivCase{SchemeKind::AddressIndexed, 0, 0},
        EquivCase{SchemeKind::GAg, 8, 0},
        EquivCase{SchemeKind::GAg, 3, 0},
        EquivCase{SchemeKind::GAs, 5, 4},
        EquivCase{SchemeKind::GAs, 0, 6},
        EquivCase{SchemeKind::GAs, 9, 1},
        EquivCase{SchemeKind::Gshare, 6, 3},
        EquivCase{SchemeKind::Gshare, 8, 0},
        EquivCase{SchemeKind::Gshare, 0, 5},
        EquivCase{SchemeKind::Path, 6, 3},
        EquivCase{SchemeKind::Path, 4, 0},
        EquivCase{SchemeKind::PAsPerfect, 6, 3},
        EquivCase{SchemeKind::PAsPerfect, 0, 7},
        EquivCase{SchemeKind::PAsPerfect, 10, 0},
        EquivCase{SchemeKind::PAsFinite, 6, 3},
        EquivCase{SchemeKind::PAsFinite, 4, 4},
        EquivCase{SchemeKind::PAsFinite, 0, 6}));

namespace {

/** Exact (bit-identical) surface comparison. */
void
expectSurfacesIdentical(const Surface &a, const Surface &b,
                        const char *what)
{
    ASSERT_EQ(a.tiers().size(), b.tiers().size()) << what;
    for (std::size_t t = 0; t < a.tiers().size(); ++t) {
        const SurfaceTier &ta = a.tiers()[t];
        const SurfaceTier &tb = b.tiers()[t];
        ASSERT_EQ(ta.totalBits, tb.totalBits) << what;
        ASSERT_EQ(ta.points.size(), tb.points.size()) << what;
        for (std::size_t p = 0; p < ta.points.size(); ++p) {
            EXPECT_EQ(ta.points[p].rowBits, tb.points[p].rowBits)
                << what;
            EXPECT_EQ(ta.points[p].colBits, tb.points[p].colBits)
                << what;
            // EXPECT_EQ, not NEAR: parallel execution must be
            // bit-identical to the serial merge order.
            EXPECT_EQ(ta.points[p].value, tb.points[p].value)
                << what << " tier 2^" << ta.totalBits << " rows 2^"
                << ta.points[p].rowBits;
        }
    }
}

} // namespace

TEST(Sweep, PlanEnumeratesMergeOrder)
{
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 6;
    auto jobs = planSweep(SchemeKind::GAs, o);
    ASSERT_EQ(jobs.size(), 5u + 6u + 7u);
    EXPECT_EQ(jobs.front().totalBits, 4u);
    EXPECT_EQ(jobs.front().rowBits, 0u);
    EXPECT_EQ(jobs.back().totalBits, 6u);
    EXPECT_EQ(jobs.back().rowBits, 6u);
    for (const auto &job : jobs)
        EXPECT_EQ(job.rowBits + job.colBits, job.totalBits);

    EXPECT_EQ(planSweep(SchemeKind::AddressIndexed, o).size(), 3u);
    EXPECT_EQ(planSweep(SchemeKind::GAg, o).size(), 3u);
}

TEST(Sweep, ParallelSurfacesBitIdenticalToSerialForEveryScheme)
{
    PreparedTrace t(sharedWorkload());
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        SweepOptions serial;
        serial.minTotalBits = 4;
        serial.maxTotalBits = 9;
        serial.trackAliasing = true;
        serial.bhtEntries = 64;
        serial.threads = 1;
        SweepOptions parallel = serial;
        parallel.threads = 4;

        SweepResult rs = sweepScheme(t, kind, serial);
        SweepResult rp = sweepScheme(t, kind, parallel);
        const char *name = schemeKindName(kind);
        expectSurfacesIdentical(rs.misprediction, rp.misprediction,
                                name);
        expectSurfacesIdentical(rs.aliasing, rp.aliasing, name);
        expectSurfacesIdentical(rs.harmless, rp.harmless, name);
        EXPECT_EQ(rs.bhtMissRate, rp.bhtMissRate) << name;
    }
}

TEST(Sweep, ThreadsZeroSelectsHardwareConcurrencyAndStaysIdentical)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions serial;
    serial.minTotalBits = 5;
    serial.maxTotalBits = 8;
    serial.threads = 1;
    SweepOptions hw = serial;
    hw.threads = 0; // all hardware threads
    SweepResult rs = sweepScheme(t, SchemeKind::Gshare, serial);
    SweepResult rh = sweepScheme(t, SchemeKind::Gshare, hw);
    expectSurfacesIdentical(rs.misprediction, rh.misprediction,
                            "gshare threads=0");
}

TEST(Sweep, SimulateConfigReportsBhtMissRate)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.bhtEntries = 32;
    o.bhtAssoc = 2;
    ConfigResult finite =
        simulateConfig(t, SchemeKind::PAsFinite, 5, 3, o);
    EXPECT_GT(finite.bhtMissRate, 0.0);
    EXPECT_LT(finite.bhtMissRate, 1.0);

    // Inapplicable for schemes without a first-level table.
    ConfigResult gas = simulateConfig(t, SchemeKind::GAs, 5, 3, o);
    EXPECT_LT(gas.bhtMissRate, 0.0);
}

TEST(Sweep, StreamCacheReuseMatchesTransientCalls)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.trackAliasing = true;
    o.bhtEntries = 64;

    StreamCache cache(t, o);
    for (SchemeKind kind :
         {SchemeKind::Path, SchemeKind::PAsFinite, SchemeKind::GAs}) {
        for (unsigned r : {3u, 5u}) {
            ConfigResult cached = simulateConfig(cache, kind, r, 4);
            ConfigResult fresh = simulateConfig(t, kind, r, 4, o);
            EXPECT_EQ(cached.mispRate, fresh.mispRate);
            EXPECT_EQ(cached.aliasRate, fresh.aliasRate);
            EXPECT_EQ(cached.harmlessFraction, fresh.harmlessFraction);
            EXPECT_EQ(cached.bhtMissRate, fresh.bhtMissRate);
        }
    }
}

TEST(Sweep, StreamCacheDoesNotRecomputeFirstLevelStreams)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.bhtEntries = 64;

    StreamCache cache(t, o);
    EXPECT_EQ(cache.streamBuilds(), 0u);

    // First probes build exactly one stream each: the path stream and
    // one BHT stream per distinct row width.
    simulateConfig(cache, SchemeKind::Path, 4, 3);
    EXPECT_EQ(cache.streamBuilds(), 1u);
    simulateConfig(cache, SchemeKind::PAsFinite, 4, 3);
    EXPECT_EQ(cache.streamBuilds(), 2u);
    simulateConfig(cache, SchemeKind::PAsFinite, 6, 2);
    EXPECT_EQ(cache.streamBuilds(), 3u);

    // Repeated probes -- same widths, different column splits, plus
    // schemes that need no first-level stream -- reuse what exists.
    for (int round = 0; round < 3; ++round) {
        simulateConfig(cache, SchemeKind::Path, 4, 2);
        simulateConfig(cache, SchemeKind::PAsFinite, 4, 5);
        simulateConfig(cache, SchemeKind::PAsFinite, 6, 0);
        simulateConfig(cache, SchemeKind::GAs, 5, 5);
        simulateConfig(cache, SchemeKind::Gshare, 5, 5);
    }
    EXPECT_EQ(cache.streamBuilds(), 3u);

    // prepare() for already-covered jobs is a no-op too.
    std::vector<ConfigJob> jobs{
        ConfigJob{SchemeKind::Path, 7, 4, 3},
        ConfigJob{SchemeKind::PAsFinite, 7, 6, 1},
    };
    cache.prepare(jobs, 2);
    EXPECT_EQ(cache.streamBuilds(), 3u);
}

TEST(Sweep, FusedSweepBitIdenticalToPerConfigForEveryScheme)
{
    // Both 2-bit engines against the per-configuration reference
    // model: the packed sweep (one pass per group) and the aliasing
    // sweep (one lane per group) must reproduce every point exactly.
    const MemoryTrace &trace = sharedWorkload();
    PreparedTrace t(trace);
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        SweepOptions packed;
        packed.minTotalBits = 4;
        packed.maxTotalBits = 9;
        packed.trackAliasing = false;
        packed.bhtEntries = 64;
        SweepOptions aliasing = packed;
        aliasing.trackAliasing = true;

        SweepResult rp = sweepScheme(t, kind, packed);
        SweepResult ra = sweepScheme(t, kind, aliasing);
        const char *name = schemeKindName(kind);
        expectSurfacesIdentical(rp.misprediction, ra.misprediction,
                                name);
        EXPECT_EQ(rp.bhtMissRate, ra.bhtMissRate) << name;
        for (const ConfigJob &job : planSweep(kind, packed)) {
            EXPECT_EQ(*rp.misprediction.at(job.totalBits, job.rowBits),
                      verify::referenceMispRate(
                          verify::sweepRefConfig(job, packed), trace))
                << name << " 2^" << job.rowBits << " x 2^"
                << job.colBits;
        }
    }
}

TEST(Sweep, FusedParallelBitIdenticalToFusedSerial)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions serial;
    serial.minTotalBits = 4;
    serial.maxTotalBits = 9;
    serial.trackAliasing = false;
    serial.threads = 1;
    SweepOptions parallel = serial;
    parallel.threads = 4; // groups are chunked differently too
    SweepResult rs = sweepScheme(t, SchemeKind::Gshare, serial);
    SweepResult rp = sweepScheme(t, SchemeKind::Gshare, parallel);
    expectSurfacesIdentical(rs.misprediction, rp.misprediction,
                            "gshare fused threads");
}

TEST(Sweep, AliasingSweepMatchesOnlinePredictor)
{
    // Figure 5's surfaces, point by point, against the online
    // TwoLevelPredictor's own AliasTracker: the SweepEquivalence
    // contract at whole-sweep granularity.
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 7;
    o.trackAliasing = true;
    for (SchemeKind kind : {SchemeKind::GAs, SchemeKind::Gshare}) {
        SweepResult r = sweepScheme(t, kind, o);
        for (const ConfigJob &job : planSweep(kind, o)) {
            std::unique_ptr<TwoLevelPredictor> online =
                kind == SchemeKind::GAs
                    ? makeGAs(job.rowBits, job.colBits, true)
                    : makeGshare(job.rowBits, job.colBits, true);
            const double misp = onlineMisp(*online);
            const AliasTracker *alias = online->pht().aliasStats();
            ASSERT_NE(alias, nullptr);
            const unsigned tb = job.totalBits;
            EXPECT_NEAR(*r.misprediction.at(tb, job.rowBits), misp,
                        1e-12);
            EXPECT_NEAR(*r.aliasing.at(tb, job.rowBits),
                        alias->aliasRate(), 1e-12)
                << schemeKindName(kind) << " 2^" << job.rowBits;
            EXPECT_NEAR(*r.harmless.at(tb, job.rowBits),
                        alias->harmlessFraction(), 1e-12)
                << schemeKindName(kind) << " 2^" << job.rowBits;
        }
    }
}

TEST(Sweep, FusedGroupPlanPartitionsJobsByStream)
{
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 8;
    o.trackAliasing = false;

    // GAs: every job shares the global-history stream -> one fused
    // group at threads=1, covering all jobs exactly once.
    auto jobs = planSweep(SchemeKind::GAs, o);
    auto groups = planFusedGroups(jobs, o, 1);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].jobs.size(), jobs.size());

    // threads=3 chunks the group without losing or duplicating jobs.
    auto chunked = planFusedGroups(jobs, o, 3);
    EXPECT_EQ(chunked.size(), 3u);
    std::vector<bool> seen(jobs.size(), false);
    for (const auto &g : chunked) {
        for (std::size_t idx : g.jobs) {
            ASSERT_LT(idx, jobs.size());
            EXPECT_FALSE(seen[idx]) << "job " << idx << " duplicated";
            seen[idx] = true;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "job " << i << " dropped";

    // PAsFinite streams depend on the row width: one group per
    // distinct rowBits (widths 0..8 across tiers 4..8).
    auto finite_jobs = planSweep(SchemeKind::PAsFinite, o);
    auto finite_groups = planFusedGroups(finite_jobs, o, 1);
    EXPECT_EQ(finite_groups.size(), 9u);
    for (const auto &g : finite_groups) {
        for (std::size_t idx : g.jobs)
            EXPECT_EQ(finite_jobs[idx].rowBits, g.streamRowBits);
    }

    // Aliasing-tracked 2-bit jobs bucket by stream too, but chunk into
    // one group per AliasBatch::kMaxLanes jobs whatever the thread
    // count: each PAsFinite width bucket (at most 5 jobs here) is one
    // group, and GAs's 35 jobs are three balanced batches (12/12/11).
    SweepOptions aliasing = o;
    aliasing.trackAliasing = true;
    for (unsigned threads : {1u, 4u}) {
        auto tracked = planFusedGroups(finite_jobs, aliasing, threads);
        EXPECT_EQ(tracked.size(), 9u);
        for (const auto &g : tracked) {
            for (std::size_t idx : g.jobs)
                EXPECT_EQ(finite_jobs[idx].rowBits, g.streamRowBits);
        }
        auto gas = planFusedGroups(jobs, aliasing, threads);
        ASSERT_EQ(jobs.size(), 35u);
        ASSERT_EQ(gas.size(), 3u);
        std::size_t next = 0;
        for (const auto &g : gas) {
            EXPECT_EQ(g.jobs.size(), next < 24 ? 12u : 11u);
            for (std::size_t idx : g.jobs)
                EXPECT_EQ(idx, next++); // contiguous, plan order
        }
        EXPECT_EQ(next, jobs.size());
    }
}

TEST(Sweep, FusedExecutionDoesZeroLockedLookupsAfterPrepare)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 7;
    o.trackAliasing = false;
    o.bhtEntries = 64;

    for (SchemeKind kind : {SchemeKind::Gshare, SchemeKind::Path,
                            SchemeKind::PAsFinite}) {
        auto jobs = planSweep(kind, o);
        auto groups = planFusedGroups(jobs, o, 2);
        StreamCache cache(t, o);
        cache.prepare(jobs, 1);
        EXPECT_EQ(cache.lockedLookups(), 0u) << schemeKindName(kind);

        std::vector<ConfigResult> slots(jobs.size());
        for (const auto &group : groups)
            runFusedGroup(group, jobs, cache, slots.data());
        EXPECT_EQ(cache.lockedLookups(), 0u)
            << schemeKindName(kind)
            << ": fused execution took the lazy-build lock";
    }

    // Contrast: an unprepared cache must count its locked lookups.
    StreamCache lazy(t, o);
    lazy.stream(SchemeKind::Path, 3);
    EXPECT_EQ(lazy.lockedLookups(), 1u);
    lazy.bhtMissRate(4);
    EXPECT_EQ(lazy.lockedLookups(), 2u);
    // A prepare() over those same needs re-publishes the fast table;
    // repeated lookups stop locking.
    std::vector<ConfigJob> jobs{ConfigJob{SchemeKind::Path, 7, 3, 4},
                                ConfigJob{SchemeKind::PAsFinite, 7, 4,
                                          3}};
    lazy.prepare(jobs, 1);
    lazy.stream(SchemeKind::Path, 3);
    lazy.stream(SchemeKind::PAsFinite, 4);
    lazy.bhtMissRate(4);
    EXPECT_EQ(lazy.lockedLookups(), 2u);
}

TEST(Sweep, ForcedSimdTargetsBitIdenticalThroughSweepScheme)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions base;
    base.minTotalBits = 4;
    base.maxTotalBits = 9;
    base.trackAliasing = false;
    base.bhtEntries = 64;
    base.simd = SimdTarget::Scalar;

    for (SchemeKind kind : {SchemeKind::GAs, SchemeKind::Gshare,
                            SchemeKind::PAsFinite}) {
        SweepResult scalar = sweepScheme(t, kind, base);
        EXPECT_EQ(scalar.kernel.target, SimdTarget::Scalar);
        for (SimdTarget target : supportedSimdTargets()) {
            SweepOptions forced = base;
            forced.simd = target;
            SweepResult r = sweepScheme(t, kind, forced);
            EXPECT_EQ(r.kernel.target, target);
            expectSurfacesIdentical(scalar.misprediction,
                                    r.misprediction,
                                    simdTargetName(target));
            EXPECT_EQ(scalar.bhtMissRate, r.bhtMissRate)
                << simdTargetName(target);
        }
    }
}

TEST(Sweep, KernelTelemetryDescribesFusedExecution)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 9;
    o.trackAliasing = false;

    SweepResult r = sweepScheme(t, SchemeKind::GAs, o);
    const std::size_t jobs = planSweep(SchemeKind::GAs, o).size();
    EXPECT_EQ(r.kernel.target, resolveSimdTarget(o.simd));
    EXPECT_EQ(r.kernel.fusedGroups, 1u); // one stream, one thread
    EXPECT_EQ(r.kernel.lanes, jobs);
    EXPECT_EQ(r.kernel.wideLanes, 0u); // paper tiers are all narrow
    EXPECT_GT(r.kernel.laneBatches, 0u);
    // 30k branches in 2 KiB blocks, one decode pass per group.
    EXPECT_EQ(r.kernel.blocksReplayed, (t.size() + 2047) / 2048);
    EXPECT_DOUBLE_EQ(r.kernel.lanesPerGroup(),
                     static_cast<double>(jobs));
    // Narrow lanes read exactly one packed 4-byte record per branch.
    EXPECT_DOUBLE_EQ(r.kernel.hotBytesPerBranch(), 4.0);

    // Aliasing-tracked sweeps run the aliasing engine: one group per
    // lane batch (45 jobs -> 3 groups of 15), each decoding every
    // block once and stepping its one batch per block, every lane
    // reading the 13-byte alias record.
    SweepOptions aliasing = o;
    aliasing.trackAliasing = true;
    SweepResult ra = sweepScheme(t, SchemeKind::GAs, aliasing);
    const std::size_t groups =
        (jobs + AliasBatch::kMaxLanes - 1) / AliasBatch::kMaxLanes;
    const std::size_t blocks = (t.size() + 2047) / 2048;
    EXPECT_EQ(ra.kernel.target, resolveSimdTarget(o.simd));
    EXPECT_EQ(ra.kernel.fusedGroups, groups);
    EXPECT_EQ(ra.kernel.lanes, jobs);
    EXPECT_EQ(ra.kernel.aliasLanes, jobs);
    EXPECT_EQ(ra.kernel.wideLanes, 0u);
    EXPECT_EQ(ra.kernel.laneBatches, groups * blocks);
    EXPECT_EQ(ra.kernel.blocksReplayed, groups * blocks);
    EXPECT_EQ(ra.kernel.segments, groups); // exact: one per group
    EXPECT_DOUBLE_EQ(ra.kernel.lanesPerGroup(),
                     static_cast<double>(jobs) /
                         static_cast<double>(groups));
    EXPECT_DOUBLE_EQ(ra.kernel.hotBytesPerBranch(), 13.0);
}

TEST(Sweep, TelemetryMergeKeepsTargetOfReplayedWork)
{
    // A record that replayed no group (a cache-hit-only drain) carries
    // the default target; merging it must not overwrite the target of
    // the work that did run.
    KernelTelemetry ran;
    ran.target = SimdTarget::AVX512;
    ran.fusedGroups = 2;
    ran.lanes = 20;
    ran.aliasLanes = 20;
    KernelTelemetry total;
    total.merge(ran);
    total.merge(KernelTelemetry{});
    EXPECT_EQ(total.target, SimdTarget::AVX512);
    EXPECT_EQ(total.fusedGroups, 2u);
    EXPECT_EQ(total.aliasLanes, 20u);

    KernelTelemetry model;
    model.target = SimdTarget::AVX2;
    model.modelGroups = 1;
    total.merge(model);
    EXPECT_EQ(total.target, SimdTarget::AVX2);
}

TEST(Sweep, StreamCacheReleasesStreamsAfterLastConsumer)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 8;
    o.trackAliasing = false;
    o.bhtEntries = 64;

    // PAsFinite needs one stream per row width: tiers 4..8 use widths
    // 0..8, nine streams of 8 bytes per branch each.
    auto jobs = planSweep(SchemeKind::PAsFinite, o);
    auto groups = planFusedGroups(jobs, o, 1);
    ASSERT_EQ(groups.size(), 9u);

    // Without a release plan, eager preparation keeps all nine
    // resident for the cache's whole lifetime.
    {
        StreamCache eager(t, o);
        eager.prepare(jobs, 1);
        EXPECT_EQ(eager.residentStreams(), 9u);
        EXPECT_EQ(eager.peakResidentStreams(), 9u);
    }

    // With the release plan and lazy serial execution, a stream dies
    // the moment its last consuming group finishes: peak residency is
    // ONE stream, not nine.
    StreamCache cache(t, o);
    cache.planRelease(groups);
    std::vector<ConfigResult> slots(jobs.size());
    for (const FusedGroup &group : groups) {
        runFusedGroup(group, jobs, cache, slots.data());
        cache.groupFinished(group);
        EXPECT_LE(cache.residentStreams(), 1u);
    }
    EXPECT_EQ(cache.residentStreams(), 0u);
    EXPECT_EQ(cache.peakResidentStreams(), 1u);
    // The sweep-level miss rate is recorded at build time and must
    // survive the buffers being freed.
    EXPECT_GT(cache.sweepBhtMissRate(), 0.0);

    // Releasing must not change any result.
    StreamCache keep(t, o);
    keep.prepare(jobs, 1);
    std::vector<ConfigResult> expected(jobs.size());
    for (const FusedGroup &group : groups)
        runFusedGroup(group, jobs, keep, expected.data());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(slots[i].mispRate, expected[i].mispRate) << i;
        EXPECT_EQ(slots[i].bhtMissRate, expected[i].bhtMissRate) << i;
    }
}

TEST(Sweep, ReleasedStreamRebuildsOnLaterLookup)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 5;
    o.maxTotalBits = 5;
    o.trackAliasing = false;

    auto jobs = planSweep(SchemeKind::Path, o);
    auto groups = planFusedGroups(jobs, o, 1);
    StreamCache cache(t, o);
    cache.planRelease(groups);
    std::vector<ConfigResult> slots(jobs.size());
    for (const FusedGroup &group : groups) {
        runFusedGroup(group, jobs, cache, slots.data());
        cache.groupFinished(group);
    }
    EXPECT_EQ(cache.residentStreams(), 0u);
    const std::size_t builds = cache.streamBuilds();

    // A post-release lookup transparently rebuilds the stream.
    const std::vector<std::uint64_t> *stream =
        cache.stream(SchemeKind::Path, 3);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->size(), t.size());
    EXPECT_EQ(cache.streamBuilds(), builds + 1);
    EXPECT_EQ(cache.residentStreams(), 1u);
}

TEST(Sweep, SweepAgreesWithSimulateConfig)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 8;
    o.maxTotalBits = 8;
    SweepResult r = sweepScheme(t, SchemeKind::Gshare, o);
    for (unsigned rbits = 0; rbits <= 8; ++rbits) {
        ConfigResult single =
            simulateConfig(t, SchemeKind::Gshare, rbits, 8 - rbits, o);
        auto from_sweep = r.misprediction.at(8, rbits);
        ASSERT_TRUE(from_sweep.has_value());
        EXPECT_NEAR(*from_sweep, single.mispRate, 1e-12)
            << "rows 2^" << rbits;
    }
}
