/**
 * @file
 * Tests for the configuration sweep engine, most importantly the
 * equivalence between the fast sweep path and the online
 * TwoLevelPredictor for every scheme.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/random.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "predictor/factory.hh"
#include "predictor/two_level.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "sim/sweep_session.hh"
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

TEST(Sweep, SchemeNamesResolveThroughOneTable)
{
    // Every display name resolves back to its kind, and every listed
    // name resolves; the list is sorted.
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite, SchemeKind::Tage,
          SchemeKind::Perceptron}) {
        Result<SchemeKind> back = schemeKindFromName(schemeKindName(kind));
        ASSERT_TRUE(back.ok()) << schemeKindName(kind);
        EXPECT_EQ(back.value(), kind);
    }
    const std::vector<std::string> names = schemeNames();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const std::string &name : names)
        EXPECT_TRUE(schemeKindFromName(name).ok()) << name;
    EXPECT_EQ(schemeKindFromName("pas").value(), SchemeKind::PAsPerfect);
    EXPECT_EQ(schemeKindFromName("pas_bht").value(),
              SchemeKind::PAsFinite);
    EXPECT_FALSE(schemeKindFromName("PAsBht").ok());
    EXPECT_FALSE(schemeKindFromName("").ok());
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
    // the one BHT stream, which serves every row width.
    simulateConfig(cache, SchemeKind::Path, 4, 3);
    EXPECT_EQ(cache.streamBuilds(), 1u);
    simulateConfig(cache, SchemeKind::PAsFinite, 4, 3);
    EXPECT_EQ(cache.streamBuilds(), 2u);
    simulateConfig(cache, SchemeKind::PAsFinite, 6, 2);
    EXPECT_EQ(cache.streamBuilds(), 2u);

    // Repeated probes -- other widths, other column splits, plus
    // schemes that need no first-level stream -- reuse what exists.
    for (int round = 0; round < 3; ++round) {
        simulateConfig(cache, SchemeKind::Path, 4, 2);
        simulateConfig(cache, SchemeKind::PAsFinite, 4, 5);
        simulateConfig(cache, SchemeKind::PAsFinite, 9, 0);
        simulateConfig(cache, SchemeKind::GAs, 5, 5);
        simulateConfig(cache, SchemeKind::Gshare, 5, 5);
    }
    EXPECT_EQ(cache.streamBuilds(), 2u);

    // prepare() for already-covered jobs is a no-op too.
    std::vector<ConfigJob> jobs{
        ConfigJob{SchemeKind::Path, 7, 4, 3},
        ConfigJob{SchemeKind::PAsFinite, 7, 7, 0},
    };
    cache.prepare(jobs, 2);
    EXPECT_EQ(cache.streamBuilds(), 2u);
}

TEST(Sweep, FusedSweepBitIdenticalToPerConfigForEveryScheme)
{
    // Untracked and tracked sweeps against the per-configuration
    // reference model: both must reproduce every point exactly
    // (trackAliasing only filters the reported surfaces).
    const MemoryTrace &trace = sharedWorkload();
    PreparedTrace t(trace);
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        SweepOptions untracked;
        untracked.minTotalBits = 4;
        untracked.maxTotalBits = 9;
        untracked.trackAliasing = false;
        untracked.bhtEntries = 64;
        SweepOptions aliasing = untracked;
        aliasing.trackAliasing = true;

        SweepResult ru = sweepScheme(t, kind, untracked);
        SweepResult ra = sweepScheme(t, kind, aliasing);
        const char *name = schemeKindName(kind);
        expectSurfacesIdentical(ru.misprediction, ra.misprediction,
                                name);
        EXPECT_TRUE(ru.aliasing.tiers().empty()) << name;
        EXPECT_EQ(ru.bhtMissRate, ra.bhtMissRate) << name;
        for (const ConfigJob &job : planSweep(kind, untracked)) {
            EXPECT_EQ(*ru.misprediction.at(job.totalBits, job.rowBits),
                      verify::referenceMispRate(
                          verify::sweepRefConfig(job, untracked), trace))
                << name << " 2^" << job.rowBits << " x 2^"
                << job.colBits;
        }
    }

    // Tables past 2^15 counters: row-heavy and column-heavy splits at
    // tiers 16-18 on a short trace, untracked and tracked, against the
    // reference model and the online predictor's AliasTracker.
    WorkloadParams p;
    p.name = "sweep-wide";
    p.seed = 16;
    p.staticBranches = 120;
    p.functionCount = 12;
    p.targetConditionals = 2'000;
    const MemoryTrace short_trace = generateTrace(p);
    const PreparedTrace short_prepared(short_trace);
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        std::vector<ConfigJob> jobs;
        for (unsigned total = 16; total <= 18; ++total) {
            for (unsigned r : {total - 1, 1u}) {
                if (kind == SchemeKind::AddressIndexed)
                    r = 0;
                if (kind == SchemeKind::GAg)
                    r = total;
                jobs.push_back(ConfigJob{kind, total, r, total - r});
            }
        }
        const auto run = [&](bool track) {
            SweepOptions o;
            o.bhtEntries = 64;
            o.trackAliasing = track;
            StreamCache cache(short_prepared, o);
            std::vector<ConfigResult> slots(jobs.size());
            for (const FusedGroup &group : planFusedGroups(jobs, 1))
                runFusedGroup(group, jobs, cache, slots.data());
            return slots;
        };
        const std::vector<ConfigResult> with = run(true);
        const std::vector<ConfigResult> without = run(false);
        SweepOptions tracked;
        tracked.bhtEntries = 64;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const ConfigJob &job = jobs[j];
            const verify::RefConfig ref =
                verify::sweepRefConfig(job, tracked);
            const std::string where = std::string(schemeKindName(kind)) +
                                      " 2^" + std::to_string(job.rowBits) +
                                      " x 2^" + std::to_string(job.colBits);
            const double reference =
                verify::referenceMispRate(ref, short_trace);
            EXPECT_EQ(with[j].mispRate, reference) << where;
            EXPECT_EQ(without[j].mispRate, reference) << where;
            EXPECT_EQ(without[j].aliasRate, 0.0) << where;
            EXPECT_EQ(without[j].harmlessFraction, 0.0) << where;

            std::unique_ptr<BranchPredictor> online =
                makePredictor(verify::engineSpec(ref), true);
            const auto *two_level =
                dynamic_cast<const TwoLevelPredictor *>(online.get());
            ASSERT_NE(two_level, nullptr) << where;
            MemoryTrace replay = short_trace;
            replay.reset();
            runPredictor(replay, *online);
            const AliasTracker *alias = two_level->pht().aliasStats();
            ASSERT_NE(alias, nullptr) << where;
            EXPECT_EQ(with[j].aliasRate, alias->aliasRate()) << where;
            EXPECT_EQ(with[j].harmlessFraction, alias->harmlessFraction())
                << where;
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

    // 2-bit jobs bucket by shared first-level stream and chunk into
    // one group per AliasBatch::kMaxLanes jobs whatever the thread
    // count.  GAs: every job shares the global-history stream, so its
    // 35 jobs are three balanced batches (12/12/11), contiguous in
    // plan order, covering every job exactly once.  PAsFinite groups
    // decode one row width from the shared BHT stream: one group per
    // distinct rowBits (widths 0..8 across tiers 4..8, at most 5 jobs
    // each).
    auto jobs = planSweep(SchemeKind::GAs, o);
    auto finite_jobs = planSweep(SchemeKind::PAsFinite, o);
    for (unsigned threads : {1u, 3u, 4u}) {
        auto finite_groups = planFusedGroups(finite_jobs, threads);
        EXPECT_EQ(finite_groups.size(), 9u);
        for (const auto &g : finite_groups) {
            for (std::size_t idx : g.jobs)
                EXPECT_EQ(finite_jobs[idx].rowBits,
                          finite_jobs[g.jobs.front()].rowBits);
        }
        auto gas = planFusedGroups(jobs, threads);
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

TEST(Sweep, ForcedSimdTargetsBitIdenticalThroughSweepScheme)
{
    // The host picks the kernel: sweepScheme batches up to 16 lanes,
    // so a vector host runs its widest kernel, while one-lane groups
    // always run the scalar one (one lane never pays for a vector
    // pass).  Both must give the same surface, bit for bit.
    PreparedTrace t(sharedWorkload());
    SweepOptions base;
    base.minTotalBits = 4;
    base.maxTotalBits = 9;
    base.trackAliasing = false;
    base.bhtEntries = 64;
    EXPECT_EQ(aliasBatchKernel(resolveSimdTarget(), 1), SimdTarget::Scalar);

    for (SchemeKind kind : {SchemeKind::GAs, SchemeKind::Gshare,
                            SchemeKind::PAsFinite}) {
        const SweepResult swept = sweepScheme(t, kind, base);
        const std::vector<ConfigJob> jobs = planSweep(kind, base);
        StreamCache cache(t, base);
        std::vector<ConfigResult> slots(jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j)
            runFusedGroup(singleJobGroup(jobs, j), jobs, cache,
                          slots.data());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const ConfigJob &job = jobs[j];
            EXPECT_EQ(*swept.misprediction.at(job.totalBits, job.rowBits),
                      slots[j].mispRate)
                << schemeKindName(kind) << " 2^" << job.rowBits
                << " x 2^" << job.colBits;
            if (kind == SchemeKind::PAsFinite) {
                EXPECT_EQ(swept.bhtMissRate, slots[j].bhtMissRate);
            }
        }
    }
}

TEST(Sweep, PlannedGroupsMatchOneLaneGroupsAtFullTiers)
{
    // Every scheme over its full tier range -- the paper's 2^4..2^15,
    // aliasing tracked, and the zoo's 2^10..2^18, which spans every
    // fig_tage_aliasing budget -- run three ways: every planned job as
    // its own one-lane group, the planned groups on one thread, and
    // the planned groups on every hardware thread.  All three surfaces
    // must agree bit for bit, and an untracked sweep must report the
    // tracked misprediction surface and no aliasing.
    const PreparedTrace t = prepareProfile("mpeg_play", 8000);
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite, SchemeKind::Tage,
          SchemeKind::Perceptron}) {
        const char *name = schemeKindName(kind);
        SweepOptions serial;
        if (kind == SchemeKind::Tage || kind == SchemeKind::Perceptron) {
            serial.minTotalBits = 10;
            serial.maxTotalBits = 18;
        }
        SweepOptions all_threads = serial;
        all_threads.threads = 0;
        SweepOptions untracked = serial;
        untracked.trackAliasing = false;

        const std::vector<ConfigJob> jobs = planSweep(kind, serial);
        StreamCache cache(t, serial);
        std::vector<ConfigResult> slots(jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j)
            runFusedGroup(singleJobGroup(jobs, j), jobs, cache,
                          slots.data());
        SweepResult one_lane(name, t.name());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const ConfigJob &job = jobs[j];
            one_lane.misprediction.add(job.totalBits, job.rowBits,
                                       job.colBits, slots[j].mispRate);
            one_lane.aliasing.add(job.totalBits, job.rowBits, job.colBits,
                                  slots[j].aliasRate);
            one_lane.harmless.add(job.totalBits, job.rowBits, job.colBits,
                                  slots[j].harmlessFraction);
        }

        for (const SweepOptions &o : {serial, all_threads}) {
            const SweepResult planned = sweepScheme(t, kind, o);
            expectSurfacesIdentical(one_lane.misprediction,
                                    planned.misprediction, name);
            expectSurfacesIdentical(one_lane.aliasing, planned.aliasing,
                                    name);
            expectSurfacesIdentical(one_lane.harmless, planned.harmless,
                                    name);
            if (kind == SchemeKind::PAsFinite) {
                EXPECT_EQ(planned.bhtMissRate, slots.front().bhtMissRate);
            }
        }
        const SweepResult filtered = sweepScheme(t, kind, untracked);
        expectSurfacesIdentical(one_lane.misprediction,
                                filtered.misprediction, name);
        EXPECT_TRUE(filtered.aliasing.tiers().empty()) << name;
        EXPECT_TRUE(filtered.harmless.tiers().empty()) << name;
    }
}

TEST(Sweep, KernelTelemetryDescribesFusedExecution)
{
    // Every 2-bit sweep runs one group per lane batch (45 jobs -> 3
    // groups of 15), each decoding every block once and stepping its
    // one batch per block -- tracked or not, the execution is the
    // same.
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 9;
    const std::size_t jobs = planSweep(SchemeKind::GAs, o).size();
    const std::size_t groups =
        (jobs + AliasBatch::kMaxLanes - 1) / AliasBatch::kMaxLanes;
    // 30k branches in 2 KiB blocks, one decode pass per group.
    const std::size_t blocks = (t.size() + 2047) / 2048;
    for (bool tracked : {false, true}) {
        o.trackAliasing = tracked;
        SweepResult r = sweepScheme(t, SchemeKind::GAs, o);
        EXPECT_EQ(r.kernel.fusedGroups, groups);
        EXPECT_EQ(r.kernel.lanes, jobs);
        EXPECT_EQ(r.kernel.laneBatches, groups * blocks);
        EXPECT_EQ(r.kernel.blocksReplayed, groups * blocks);
        EXPECT_DOUBLE_EQ(static_cast<double>(r.kernel.lanes) /
                             static_cast<double>(r.kernel.fusedGroups),
                         static_cast<double>(jobs) /
                             static_cast<double>(groups));
    }
}

TEST(Sweep, ConcurrentGroupsBuildEachStreamOnce)
{
    // A threads=8 sweep's groups look their stream up concurrently:
    // the first lookup builds it, the others wait for that build.  Run
    // the sweep's own execution shape over a visible cache, then hold
    // the threads=8 sweep to the serial one.
    PreparedTrace t(sharedWorkload());
    for (SchemeKind kind : {SchemeKind::PAsFinite, SchemeKind::Path}) {
        SweepOptions o;
        o.minTotalBits = 4;
        o.maxTotalBits = 10;
        o.bhtEntries = 64;
        o.threads = 8;
        const std::vector<ConfigJob> jobs = planSweep(kind, o);
        const std::vector<FusedGroup> groups = planFusedGroups(jobs, 8);
        ASSERT_GE(groups.size(), 4u);
        StreamCache cache(t, o);
        std::vector<ConfigResult> slots(jobs.size());
        ThreadPool::shared().parallelFor(
            groups.size(), 8, [&](std::size_t g) {
                runFusedGroup(groups[g], jobs, cache, slots.data());
            });
        EXPECT_EQ(cache.streamBuilds(), 1u) << schemeKindName(kind);

        SweepOptions serial = o;
        serial.threads = 1;
        const SweepResult rs = sweepScheme(t, kind, serial);
        const SweepResult rp = sweepScheme(t, kind, o);
        const char *name = schemeKindName(kind);
        expectSurfacesIdentical(rs.misprediction, rp.misprediction,
                                name);
        expectSurfacesIdentical(rs.aliasing, rp.aliasing, name);
        expectSurfacesIdentical(rs.harmless, rp.harmless, name);
        EXPECT_EQ(rs.bhtMissRate, rp.bhtMissRate) << name;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(slots[i].mispRate,
                      *rs.misprediction.at(jobs[i].totalBits,
                                           jobs[i].rowBits))
                << name << " job " << i;
            if (kind == SchemeKind::PAsFinite) {
                EXPECT_EQ(slots[i].bhtMissRate, rs.bhtMissRate) << i;
            }
        }
    }
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

namespace {

constexpr SchemeKind kTwoBitKinds[] = {
    SchemeKind::AddressIndexed, SchemeKind::GAg,
    SchemeKind::GAs,            SchemeKind::Gshare,
    SchemeKind::Path,           SchemeKind::PAsPerfect,
    SchemeKind::PAsFinite,
};

MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "thread-fuzz-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 90;
    p.functionCount = 9;
    p.targetConditionals = conditionals;
    return generateTrace(p);
}

/** All three surfaces and the BHT miss rate, bit for bit. */
void
expectSurfacesIdentical(const SweepResult &a, const SweepResult &b,
                        const char *what)
{
    expectSurfacesIdentical(a.misprediction, b.misprediction, what);
    expectSurfacesIdentical(a.aliasing, b.aliasing, what);
    expectSurfacesIdentical(a.harmless, b.harmless, what);
    ASSERT_EQ(a.bhtMissRate, b.bhtMissRate) << what;
}

std::size_t
pointCount(const SweepResult &r)
{
    std::size_t n = 0;
    for (const SurfaceTier &tier : r.misprediction.tiers())
        n += tier.points.size();
    return n;
}

/** A retired environment override; results must ignore it. */
constexpr const char *kRetiredSegmentsVar = "BPSIM_" "SEGMENTS";

} // namespace

TEST(Sweep, ThreadCountsBitIdenticalAcrossFuzzedConfigs)
{
    // Planner groups are the only lane partition: spreading them over
    // any thread count never changes any result.
    // The zoo rounds also pin model-group chunking, which follows the
    // thread count.  >= 100 fuzzed configurations accumulate across
    // the rounds.
    Pcg32 rng(0x5E63B0B5ULL, 17);
    std::size_t configs_checked = 0;
    for (int round = 0; round < 10; ++round) {
        const SchemeKind kind =
            round == 8   ? SchemeKind::Tage
            : round == 9 ? SchemeKind::Perceptron
                         : kTwoBitKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(4200 + round, 8000 + rng.nextBounded(8000));
        PreparedTrace prepared(trace);

        SweepOptions base;
        base.trackAliasing = false;
        base.minTotalBits = 4 + rng.nextBounded(2);
        base.maxTotalBits = base.minTotalBits + 3 + rng.nextBounded(3);
        // Every BHT shape class (direct-mapped, 2-way, 4-way, fully
        // associative) under every reset policy.
        base.bhtEntries = 32u << rng.nextBounded(3);
        const unsigned assoc[] = {1, 2, 4,
                                  static_cast<unsigned>(base.bhtEntries)};
        base.bhtAssoc = assoc[rng.nextBounded(4)];
        const BhtResetPolicy policies[] = {
            BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Zeros,
            BhtResetPolicy::Ones, BhtResetPolicy::Hold};
        base.bhtResetPolicy = policies[rng.nextBounded(4)];
        base.pathBitsPerTarget = 1 + rng.nextBounded(4);
        base.threads = 1;

        const SweepResult serial = sweepScheme(prepared, kind, base);
        configs_checked += pointCount(serial);

        for (unsigned threads : {1u, 2u, 3u, 8u, 0u}) {
            SweepOptions opts = base;
            opts.threads = threads;
            const SweepResult spread = sweepScheme(prepared, kind, opts);
            expectSurfacesIdentical(
                serial, spread,
                ("threads=" + std::to_string(threads)).c_str());
        }
    }
    EXPECT_GE(configs_checked, 100u);
}

TEST(Sweep, EnvironmentChangesNeitherResultsNorKeys)
{
    // A result depends only on the request: with the retired segments
    // override set, a sweep stays exact and keeps its cache key,
    // tracked or not.
    MemoryTrace trace = fuzzTrace(98, 10'000);
    PreparedTrace prepared(trace);
    const char *prev = std::getenv(kRetiredSegmentsVar);
    const std::string saved = prev ? prev : "";

    for (bool aliasing : {true, false}) {
        SweepOptions opts;
        opts.trackAliasing = aliasing;
        opts.minTotalBits = 4;
        opts.maxTotalBits = 7;
        ::unsetenv(kRetiredSegmentsVar);
        const SweepResult truth =
            sweepScheme(prepared, SchemeKind::GAs, opts);
        const std::string key =
            SweepSession::cacheConfigKey(SchemeKind::GAs, opts);

        ::setenv(kRetiredSegmentsVar, "4", 1);
        expectSurfacesIdentical(truth,
                                sweepScheme(prepared, SchemeKind::GAs,
                                            opts),
                                aliasing ? "tracked" : "untracked");
        EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::GAs, opts),
                  key);
    }

    if (prev)
        ::setenv(kRetiredSegmentsVar, saved.c_str(), 1);
    else
        ::unsetenv(kRetiredSegmentsVar);
}
