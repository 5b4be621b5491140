/**
 * @file
 * Differential verification of the replay grid's group x segment
 * decomposition (sweep.cc): spreading planner groups over any thread
 * count must be bit-identical to the serial sweep on every SIMD target,
 * speculative segment replay must be deterministic with a bounded,
 * auditable epsilon against exact mode -- for tracked and untracked
 * 2-bit sweeps alike -- and nothing but the request may select it.
 *
 * The suite name is load-bearing: the tsan preset runs
 * "ThreadPool|Sweep|Experiment|ServiceStress|SegmentParallel", so the
 * nested groups-outer/segments-inner pool dispatch here is replayed
 * under the race detector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/random.hh"
#include "sim/sweep.hh"
#include "sim/sweep_session.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

constexpr SchemeKind kAllKinds[] = {
    SchemeKind::AddressIndexed, SchemeKind::GAg,
    SchemeKind::GAs,            SchemeKind::Gshare,
    SchemeKind::Path,           SchemeKind::PAsPerfect,
    SchemeKind::PAsFinite,
};

MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "segpar-diff-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 90;
    p.functionCount = 9;
    p.targetConditionals = conditionals;
    return generateTrace(p);
}

/** Exact equality on every surface point (bit-identity contract). */
void
expectSurfaceIdentical(const Surface &a, const Surface &b,
                       const char *what)
{
    ASSERT_EQ(a.tiers().size(), b.tiers().size()) << what;
    for (std::size_t t = 0; t < a.tiers().size(); ++t) {
        const SurfaceTier &ta = a.tiers()[t];
        const SurfaceTier &tb = b.tiers()[t];
        ASSERT_EQ(ta.points.size(), tb.points.size()) << what;
        for (std::size_t p = 0; p < ta.points.size(); ++p) {
            ASSERT_EQ(ta.points[p].rowBits, tb.points[p].rowBits);
            ASSERT_EQ(ta.points[p].value, tb.points[p].value)
                << what << ": " << a.name() << " tier " << ta.totalBits
                << " row " << ta.points[p].rowBits;
        }
    }
}

/** All three surfaces and the BHT miss rate, bit for bit. */
void
expectSurfacesIdentical(const SweepResult &a, const SweepResult &b,
                        const char *what)
{
    expectSurfaceIdentical(a.misprediction, b.misprediction, what);
    expectSurfaceIdentical(a.aliasing, b.aliasing, what);
    expectSurfaceIdentical(a.harmless, b.harmless, what);
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

/** Largest per-point |delta| between two surfaces of the same plan. */
double
maxPointDelta(const Surface &a, const Surface &b)
{
    double worst = 0.0;
    for (std::size_t t = 0; t < a.tiers().size(); ++t) {
        const SurfaceTier &ta = a.tiers()[t];
        const SurfaceTier &tb = b.tiers()[t];
        for (std::size_t p = 0; p < ta.points.size(); ++p)
            worst = std::max(worst, std::abs(ta.points[p].value -
                                             tb.points[p].value));
    }
    return worst;
}

/** The environment override segments once had; results must ignore it. */
constexpr const char *kRetiredSegmentsVar = "BPSIM_" "SEGMENTS";

} // namespace

TEST(SegmentParallel, ThreadCountsBitIdenticalAcrossFuzzedConfigs)
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
                         : kAllKinds[rng.nextBounded(7)];
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

TEST(SegmentParallel, SpeculativeEpsilonBoundedAndDeterministic)
{
    // Speculative segments trade a bounded error for parallelism: the
    // 2-bit counters converge within a few updates (DESIGN.md section
    // "Segment-parallel replay"), so a 512-branch warm-up window keeps
    // the per-point delta against exact mode small.  The delta is the
    // auditable epsilon; determinism means it never depends on thread
    // or worker counts.
    MemoryTrace trace = fuzzTrace(77, 24'000);
    PreparedTrace prepared(trace);

    SweepOptions exact;
    exact.trackAliasing = false;
    exact.minTotalBits = 4;
    exact.maxTotalBits = 8;

    for (SchemeKind kind :
         {SchemeKind::Gshare, SchemeKind::GAs, SchemeKind::PAsPerfect}) {
        const SweepResult truth = sweepScheme(prepared, kind, exact);

        SweepOptions spec = exact;
        spec.segments = 4;
        spec.segmentWarmup = 512;
        const SweepResult approx = sweepScheme(prepared, kind, spec);
        EXPECT_LE(maxPointDelta(truth.misprediction, approx.misprediction),
                  0.02)
            << schemeKindName(kind);

        // Same K, different thread count: bit-identical to the first
        // speculative run -- the epsilon is a property of (K, warmup),
        // not of the execution.
        SweepOptions spec2 = spec;
        spec2.threads = 3;
        const SweepResult again = sweepScheme(prepared, kind, spec2);
        expectSurfacesIdentical(approx, again, schemeKindName(kind));
    }
}

TEST(SegmentParallel, WarmupCoveringTheTraceReproducesExactResults)
{
    // With a warm-up window at least as long as any segment's start
    // offset, every segment replays the full prefix (uncounted) before
    // counting -- the counter state at each boundary is then exactly
    // the serial state, so speculative mode must be bit-identical to
    // exact mode.  Pins that the warm-up replay path itself is sound.
    MemoryTrace trace = fuzzTrace(88, 12'000);
    PreparedTrace prepared(trace);

    SweepOptions exact;
    exact.trackAliasing = false;
    exact.minTotalBits = 4;
    exact.maxTotalBits = 7;
    const SweepResult truth =
        sweepScheme(prepared, SchemeKind::GAs, exact);

    SweepOptions spec = exact;
    spec.segments = 3;
    spec.segmentWarmup = 1u << 20; // covers any segment start
    const SweepResult approx =
        sweepScheme(prepared, SchemeKind::GAs, spec);
    expectSurfacesIdentical(truth, approx, "covering warm-up");
}

TEST(SegmentParallel, ExactModeUntouchedByKnobDefaults)
{
    // segments=0 (the default) and segments=1 (explicit exact) must
    // both take the historical exact path.
    MemoryTrace trace = fuzzTrace(99, 10'000);
    PreparedTrace prepared(trace);

    SweepOptions defaults;
    defaults.trackAliasing = false;
    defaults.minTotalBits = 4;
    defaults.maxTotalBits = 7;
    ASSERT_EQ(resolveSegments(defaults), 1u);

    SweepOptions explicit_exact = defaults;
    explicit_exact.segments = 1;
    expectSurfacesIdentical(
        sweepScheme(prepared, SchemeKind::Gshare, defaults),
        sweepScheme(prepared, SchemeKind::Gshare, explicit_exact),
        "explicit segments=1");
}

TEST(SegmentParallel, EnvironmentChangesNeitherResultsNorKeys)
{
    // A result depends only on the request: with the retired segments
    // override set, a sweep that never asked for segments stays exact
    // and keeps its cache key, tracked or not.
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
        EXPECT_EQ(resolveSegments(opts), 1u);
        expectSurfacesIdentical(truth,
                                sweepScheme(prepared, SchemeKind::GAs,
                                            opts),
                                aliasing ? "tracked" : "untracked");
        EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::GAs, opts),
                  key);
    }

    // Explicit requests resolve as asked, clamped to the ceiling.
    SweepOptions opts;
    opts.segments = 2;
    EXPECT_EQ(resolveSegments(opts), 2u);
    opts.segments = 1000;
    EXPECT_EQ(resolveSegments(opts), SweepOptions::kMaxSegments);

    if (prev)
        ::setenv(kRetiredSegmentsVar, saved.c_str(), 1);
    else
        ::unsetenv(kRetiredSegmentsVar);
}

TEST(SegmentParallel, AliasingSegmentsIdenticalForAnyThreadCount)
{
    // Segments reach aliasing-tracked sweeps: misprediction, aliasing
    // and harmless counts reconcile per segment, so a speculative
    // aliasing sweep has a bounded epsilon and depends only on
    // (K, warmup) -- never on the thread count, nor on how the
    // planner groups the lanes.
    MemoryTrace trace = fuzzTrace(123, 24'000);
    PreparedTrace prepared(trace);

    SweepOptions exact;
    exact.trackAliasing = true;
    exact.minTotalBits = 4;
    exact.maxTotalBits = 8;
    exact.bhtEntries = 64;
    for (SchemeKind kind :
         {SchemeKind::GAs, SchemeKind::Gshare, SchemeKind::PAsFinite}) {
        const char *name = schemeKindName(kind);
        const SweepResult truth = sweepScheme(prepared, kind, exact);

        SweepOptions spec = exact;
        spec.segments = 4;
        spec.segmentWarmup = 512;
        const SweepResult approx = sweepScheme(prepared, kind, spec);
        EXPECT_LE(maxPointDelta(truth.misprediction, approx.misprediction),
                  0.02)
            << name;
        EXPECT_LE(maxPointDelta(truth.aliasing, approx.aliasing), 0.02)
            << name;
        EXPECT_GT(approx.kernel.warmupBranches, 0u) << name;

        for (unsigned threads : {2u, 4u, 0u}) {
            SweepOptions again = spec;
            again.threads = threads;
            expectSurfacesIdentical(
                approx, sweepScheme(prepared, kind, again), name);
        }

        // Every job of the sweep as one group sharing one stream --
        // several lane batches in each task: every lane lands on its
        // planner-grouped sweep value.
        if (kind == SchemeKind::PAsFinite)
            continue;
        const std::vector<ConfigJob> jobs = planSweep(kind, spec);
        FusedGroup all{kind, {}};
        for (std::size_t i = 0; i < jobs.size(); ++i)
            all.jobs.push_back(i);
        ASSERT_GT(all.jobs.size(), AliasBatch::kMaxLanes) << name;
        StreamCache cache(prepared, spec);
        std::vector<ConfigResult> slots(jobs.size());
        runFusedGroup(all, jobs, cache, slots.data());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const ConfigJob &job = jobs[i];
            EXPECT_EQ(slots[i].mispRate,
                      *approx.misprediction.at(job.totalBits, job.rowBits))
                << name;
            EXPECT_EQ(slots[i].aliasRate,
                      *approx.aliasing.at(job.totalBits, job.rowBits))
                << name;
            EXPECT_EQ(slots[i].harmlessFraction,
                      *approx.harmless.at(job.totalBits, job.rowBits))
                << name;
        }
    }
}

TEST(SegmentParallel, AliasingCoveringWarmupReproducesExactResults)
{
    // A warm-up window reaching the trace start replays each segment's
    // whole prefix -- training the counters and the last-writer state
    // without counting -- so an aliasing-tracked speculative sweep is
    // bit-identical to exact mode on all three surfaces.
    MemoryTrace trace = fuzzTrace(89, 12'000);
    PreparedTrace prepared(trace);

    SweepOptions exact;
    exact.trackAliasing = true;
    exact.minTotalBits = 4;
    exact.maxTotalBits = 7;
    exact.bhtEntries = 64;
    for (SchemeKind kind : {SchemeKind::GAs, SchemeKind::Path,
                            SchemeKind::PAsPerfect,
                            SchemeKind::PAsFinite}) {
        SweepOptions spec = exact;
        spec.segments = 3;
        spec.segmentWarmup = 1u << 20; // covers any segment start
        expectSurfacesIdentical(sweepScheme(prepared, kind, exact),
                                sweepScheme(prepared, kind, spec),
                                schemeKindName(kind));
    }
}

TEST(SegmentParallel, TelemetryReportsSegmentShape)
{
    MemoryTrace trace = fuzzTrace(111, 10'000);
    PreparedTrace prepared(trace);

    SweepOptions opts;
    opts.trackAliasing = false;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 7;
    opts.segments = 3;
    opts.segmentWarmup = 512;
    const SweepResult r =
        sweepScheme(prepared, SchemeKind::GAs, opts);

    // Per group, tasks = segments, one executor each.
    ASSERT_GT(r.kernel.fusedGroups, 0u);
    EXPECT_EQ(r.kernel.segmentsPerGroup(), 3.0);
    EXPECT_EQ(r.kernel.segments, 3 * r.kernel.fusedGroups);
    EXPECT_EQ(r.kernel.taskWorkers, 3u);
    // Two speculative segments per group warm up, each over the full
    // configured window (the trace is long enough).
    EXPECT_EQ(r.kernel.warmupBranches, 2 * 512 * r.kernel.fusedGroups);
    EXPECT_GT(r.kernel.busySeconds, 0.0);
    EXPECT_GT(r.kernel.spanSeconds, 0.0);
    const double util = r.kernel.workerUtilization();
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);

    // Exact serial runs keep the degenerate shape.
    SweepOptions serial;
    serial.trackAliasing = false;
    serial.minTotalBits = 4;
    serial.maxTotalBits = 7;
    const SweepResult s =
        sweepScheme(prepared, SchemeKind::GAs, serial);
    EXPECT_EQ(s.kernel.segmentsPerGroup(), 1.0);
    EXPECT_EQ(s.kernel.taskWorkers, 1u);
    EXPECT_EQ(s.kernel.warmupBranches, 0u);
}
