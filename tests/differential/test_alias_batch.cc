/**
 * @file
 * Differential verification of the batched aliasing lane engine
 * (Figure 5's aliasing and harmless-alias surfaces).
 *
 * Fuzzed group compositions -- 1-40 lanes of mixed row/column widths
 * (row width 0 included) over every 2-bit SchemeKind -- run through
 * runFusedGroup as one group (several lane batches per block) and as
 * the planner's groups, under every SIMD target this host supports
 * (forced through SweepOptions::simd), lane shard counts 1-4, and
 * segment counts 1 and K > 1.  Every execution shape must be
 * bit-identical to the scalar unsharded one, and the exact results
 * must match the naive reference model (misprediction) and the online
 * TwoLevelPredictor's AliasTracker (aliasing and harmless fractions).
 * A kernel-level check replays random records with branch ids near
 * the 2^30 ceiling through every kernel and memcmps the final lane
 * arenas against the scalar kernel's.
 *
 * The tsan test preset's name filter includes "AliasBatch", so the
 * shard x segment grid over alias lanes runs under the race detector.
 * The 1000-composition campaign at the bottom additionally needs
 * BPSIM_SLOW_TESTS=1.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/simd.hh"
#include "predictor/factory.hh"
#include "predictor/two_level.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "stats/aliasing.hh"
#include "verify/differential.hh"
#include "workload/synthetic.hh"

using namespace bpsim;
using namespace bpsim::verify;

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
    p.name = "alias-batch-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 60 + seed % 90;
    p.functionCount = 8;
    p.targetConditionals = conditionals;
    return generateTrace(p);
}

/** One fuzzed group: a scheme, its options and 1-40 member jobs. */
struct Composition
{
    SchemeKind kind = SchemeKind::GAs;
    SweepOptions opts;
    std::vector<ConfigJob> jobs;
};

Composition
fuzzComposition(SchemeKind kind, Pcg32 &rng)
{
    Composition c;
    c.kind = kind;
    c.opts.trackAliasing = true;
    c.opts.simd = SimdTarget::Scalar;
    c.opts.pathBitsPerTarget = 1 + rng.nextBounded(3);
    c.opts.bhtEntries = 32u << rng.nextBounded(3);
    c.opts.bhtAssoc = rng.nextBounded(2) ? 4 : 2;
    const std::size_t lanes = 1 + rng.nextBounded(40);
    // A PAsFinite group shares one BHT stream, i.e. one row width.
    const unsigned bht_rows = rng.nextBounded(9);
    for (std::size_t j = 0; j < lanes; ++j) {
        unsigned total = rng.nextBounded(12);
        unsigned r = rng.nextBounded(total + 1);
        if (kind == SchemeKind::AddressIndexed || rng.nextBounded(6) == 0)
            r = 0;
        if (kind == SchemeKind::GAg)
            r = total;
        if (kind == SchemeKind::PAsFinite) {
            r = bht_rows;
            total = std::max(total, r);
        }
        c.jobs.push_back(ConfigJob{kind, total, r, total - r});
    }
    return c;
}

/** Run every job of @p c as ONE group (several lane batches). */
std::vector<ConfigResult>
runOneGroup(const PreparedTrace &t, const Composition &c,
            const SweepOptions &opts)
{
    StreamCache cache(t, opts);
    FusedGroup group = singleJobGroup(c.jobs, 0);
    for (std::size_t j = 1; j < c.jobs.size(); ++j)
        group.jobs.push_back(j);
    std::vector<ConfigResult> slots(c.jobs.size());
    KernelTelemetry tel;
    runFusedGroup(group, c.jobs, cache, slots.data(), &tel);
    EXPECT_EQ(tel.aliasLanes, c.jobs.size());
    EXPECT_EQ(tel.target, resolveSimdTarget(opts.simd));
    return slots;
}

/** Run @p c through the planner's groups, as sweepScheme would. */
std::vector<ConfigResult>
runPlanned(const PreparedTrace &t, const Composition &c,
           const SweepOptions &opts)
{
    StreamCache cache(t, opts);
    std::vector<ConfigResult> slots(c.jobs.size());
    for (const FusedGroup &group : planFusedGroups(c.jobs, opts, 1)) {
        EXPECT_LE(group.jobs.size(), AliasBatch::kMaxLanes);
        runFusedGroup(group, c.jobs, cache, slots.data());
    }
    return slots;
}

void
expectSlotsIdentical(const std::vector<ConfigResult> &expect,
                     const std::vector<ConfigResult> &got,
                     const std::string &what)
{
    ASSERT_EQ(expect.size(), got.size()) << what;
    for (std::size_t j = 0; j < expect.size(); ++j) {
        EXPECT_EQ(expect[j].mispRate, got[j].mispRate) << what << " " << j;
        EXPECT_EQ(expect[j].aliasRate, got[j].aliasRate)
            << what << " " << j;
        EXPECT_EQ(expect[j].harmlessFraction, got[j].harmlessFraction)
            << what << " " << j;
        EXPECT_EQ(expect[j].bhtMissRate, got[j].bhtMissRate)
            << what << " " << j;
    }
}

/**
 * The exact results of @p c against the independent oracles: the
 * naive reference model's misprediction rate and the online
 * TwoLevelPredictor's own AliasTracker.
 */
void
expectMatchesOracles(const MemoryTrace &trace, const Composition &c,
                     const std::vector<ConfigResult> &exact,
                     const std::string &what)
{
    for (std::size_t j = 0; j < c.jobs.size(); ++j) {
        const ConfigJob &job = c.jobs[j];
        const RefConfig ref = sweepRefConfig(job, c.opts);
        const std::string where = what + " " + schemeKindName(c.kind) +
                                  " r=" + std::to_string(job.rowBits) +
                                  " c=" + std::to_string(job.colBits);
        EXPECT_EQ(exact[j].mispRate, referenceMispRate(ref, trace))
            << where;

        std::unique_ptr<BranchPredictor> online =
            makePredictor(engineSpec(ref), true);
        const auto *two_level =
            dynamic_cast<const TwoLevelPredictor *>(online.get());
        ASSERT_NE(two_level, nullptr) << where;
        MemoryTrace replay = trace;
        replay.reset();
        const PredictionStats stats = runPredictor(replay, *online);
        const AliasTracker *alias = two_level->pht().aliasStats();
        ASSERT_NE(alias, nullptr) << where;
        EXPECT_EQ(exact[j].mispRate, stats.mispRate()) << where;
        EXPECT_EQ(exact[j].aliasRate, alias->aliasRate()) << where;
        EXPECT_EQ(exact[j].harmlessFraction, alias->harmlessFraction())
            << where;
    }
}

/**
 * The full check of one composition: the scalar one-group exact
 * replay is the baseline; planner groups, every target, lane shards
 * 1-4 and (speculative) segments must reproduce it or each other bit
 * for bit, and the baseline must match the oracles.
 */
void
checkComposition(const MemoryTrace &trace, const PreparedTrace &prepared,
                 const Composition &c, Pcg32 &rng, bool oracles,
                 const std::string &what)
{
    const std::vector<ConfigResult> exact =
        runOneGroup(prepared, c, c.opts);
    expectSlotsIdentical(exact, runPlanned(prepared, c, c.opts),
                         what + " planned");
    if (oracles)
        expectMatchesOracles(trace, c, exact, what);

    SweepOptions speculative = c.opts;
    speculative.segments = 2 + rng.nextBounded(3);
    speculative.segmentWarmup = 64u << rng.nextBounded(5);
    const std::vector<ConfigResult> spec_scalar =
        runOneGroup(prepared, c, speculative);

    for (SimdTarget target : supportedSimdTargets()) {
        const std::string tag = what + " " + simdTargetName(target);
        SweepOptions forced = c.opts;
        forced.simd = target;
        forced.fusedThreads = 1 + rng.nextBounded(4);
        expectSlotsIdentical(exact, runOneGroup(prepared, c, forced),
                             tag + " shards " +
                                 std::to_string(forced.fusedThreads));
        expectSlotsIdentical(exact, runPlanned(prepared, c, forced),
                             tag + " planned");

        SweepOptions spec = speculative;
        spec.simd = target;
        spec.fusedThreads = 1 + rng.nextBounded(4);
        expectSlotsIdentical(spec_scalar, runOneGroup(prepared, c, spec),
                             tag + " segments " +
                                 std::to_string(spec.segments));
    }

    // A warm-up window reaching back to the trace start makes every
    // segment exact by construction.
    SweepOptions covering = speculative;
    covering.segmentWarmup = static_cast<unsigned>(prepared.size());
    covering.fusedThreads = 1 + rng.nextBounded(4);
    expectSlotsIdentical(exact, runOneGroup(prepared, c, covering),
                         what + " covering warm-up");
}

/** Fuzz @p count compositions, every scheme in rotation. */
void
runCampaign(std::uint64_t seed, std::size_t count,
            std::uint64_t min_branches, std::uint64_t span)
{
    Pcg32 rng(seed, 23);
    for (std::size_t round = 0; round < count; ++round) {
        const SchemeKind kind = kTwoBitKinds[round % 7];
        const MemoryTrace trace =
            fuzzTrace(seed + round, min_branches + rng.nextBounded(span));
        const PreparedTrace prepared(trace);
        const Composition c = fuzzComposition(kind, rng);
        checkComposition(trace, prepared, c, rng, true,
                         "round " + std::to_string(round));
        if (::testing::Test::HasFailure())
            return;
    }
}

/** Random records for the kernel-level checks. */
struct RecordBlock
{
    std::vector<std::uint32_t> row, col, tag;
    std::vector<std::uint8_t> flags;

    AliasRecords
    view(std::size_t from) const
    {
        return AliasRecords{row.data() + from, col.data() + from,
                            tag.data() + from, flags.data() + from};
    }
};

RecordBlock
randomRecords(Pcg32 &rng, std::size_t n, std::uint32_t id_floor,
              std::uint32_t ids)
{
    RecordBlock b;
    for (std::size_t i = 0; i < n; ++i) {
        b.row.push_back(rng.next());
        b.col.push_back(rng.next());
        const std::uint32_t id = id_floor + rng.nextBounded(ids);
        b.tag.push_back((id + 1) << 2);
        b.flags.push_back(static_cast<std::uint8_t>(
            (rng.nextBounded(2) << 7) | rng.nextBounded(65)));
    }
    return b;
}

} // namespace

TEST(AliasBatchKernel, DispatchIsOccupancyAware)
{
    for (unsigned lanes = 1; lanes <= AliasBatch::kMaxLanes; ++lanes) {
        EXPECT_EQ(aliasBatchKernel(SimdTarget::Scalar, lanes),
                  SimdTarget::Scalar);
        // No scatter below AVX-512: the fused slot update stays scalar.
        EXPECT_EQ(aliasBatchKernel(SimdTarget::SSE2, lanes),
                  SimdTarget::Scalar);
        EXPECT_EQ(aliasBatchKernel(SimdTarget::AVX2, lanes),
                  SimdTarget::Scalar);
    }
    if (!simdTargetSupported(SimdTarget::AVX512))
        GTEST_SKIP() << "host has no AVX-512 kernel";
    EXPECT_EQ(aliasBatchKernel(SimdTarget::AVX512, 1), SimdTarget::Scalar);
    EXPECT_EQ(aliasBatchKernel(SimdTarget::AVX512, 2), SimdTarget::Scalar);
    EXPECT_EQ(aliasBatchKernel(SimdTarget::AVX512, 3), SimdTarget::AVX512);
    EXPECT_EQ(aliasBatchKernel(SimdTarget::AVX512, 16),
              SimdTarget::AVX512);
}

TEST(AliasBatchKernel, EveryKernelLeavesIdenticalArenas)
{
    // Random records whose branch ids sit just under the 2^30 ceiling
    // (tags up to 0xFFFFFFFC), random lane geometries including row
    // width 0, several consecutive calls per batch so counts
    // accumulate: every kernel at every occupancy must leave the same
    // arena bytes and counts as the scalar reference.
    Pcg32 rng(0xA11A5B0BULL, 7);
    const std::uint32_t id_top =
        static_cast<std::uint32_t>(PreparedTrace::kMaxStaticBranches) - 1;
    for (int round = 0; round < 60; ++round) {
        const std::uint32_t ids = 1 + rng.nextBounded(40);
        const RecordBlock records =
            randomRecords(rng, 3000, id_top + 1 - ids, ids);

        AliasBatch proto;
        proto.lanes = 1 + rng.nextBounded(AliasBatch::kMaxLanes);
        std::size_t slots = 0;
        for (unsigned l = 0; l < proto.lanes; ++l) {
            const unsigned r = rng.nextBounded(9);
            const unsigned c = rng.nextBounded(9);
            proto.offset[l] = static_cast<std::uint32_t>(slots);
            proto.rowMask[l] = (1u << r) - 1;
            proto.colMask[l] = (1u << c) - 1;
            proto.colBits[l] = c;
            proto.harmlessOnes[l] = r > 0 ? r : AliasBatch::kNeverHarmless;
            slots += (std::size_t{1} << (r + c)) + rng.nextBounded(3);
        }

        std::vector<std::uint32_t> expect_arena(slots,
                                                AliasBatch::kFreshEntry);
        AliasBatch expect = proto;
        expect.entries = expect_arena.data();
        for (std::size_t from = 0; from < 3000; from += 1000)
            replayAliasBatchOn(SimdTarget::Scalar, records.view(from), 1000,
                               expect);

        for (SimdTarget target : supportedSimdTargets()) {
            for (bool dispatched : {false, true}) {
                std::vector<std::uint32_t> arena(slots,
                                                 AliasBatch::kFreshEntry);
                AliasBatch got = proto;
                got.entries = arena.data();
                for (std::size_t from = 0; from < 3000; from += 1000) {
                    if (dispatched)
                        replayAliasBatch(target, records.view(from), 1000,
                                         got);
                    else
                        replayAliasBatchOn(target, records.view(from),
                                           1000, got);
                }
                const std::string what =
                    std::string(simdTargetName(target)) +
                    (dispatched ? " dispatched" : " forced") + " round " +
                    std::to_string(round) + " lanes " +
                    std::to_string(proto.lanes);
                EXPECT_EQ(std::memcmp(arena.data(), expect_arena.data(),
                                      slots * sizeof(std::uint32_t)),
                          0)
                    << what;
                for (unsigned l = 0; l < proto.lanes; ++l) {
                    EXPECT_EQ(got.misses[l], expect.misses[l]) << what;
                    EXPECT_EQ(got.conflicts[l], expect.conflicts[l])
                        << what;
                    EXPECT_EQ(got.harmless[l], expect.harmless[l]) << what;
                }
            }
        }
        // The records name at most `ids` branches, all near the
        // ceiling: a written slot holds one of their tags.
        for (std::uint32_t word : expect_arena) {
            if (word >> 2) {
                ASSERT_GE(word >> 2, id_top + 2 - ids);
            }
        }
    }
}

TEST(AliasBatchKernel, SlotWordEncodesLastWriterAndCounter)
{
    // One lane, one slot: the fused word's tag field is the last
    // writer and its low two bits the 2-bit counter, starting weakly
    // taken.
    std::vector<std::uint32_t> arena(1, AliasBatch::kFreshEntry);
    AliasBatch batch;
    batch.lanes = 1;
    batch.harmlessOnes[0] = 1;
    batch.entries = arena.data();
    const std::uint32_t rows[] = {0, 0, 0, 0};
    const std::uint32_t tags[] = {(0u + 1) << 2, (0u + 1) << 2,
                                  (7u + 1) << 2, (0u + 1) << 2};
    // taken / not, pattern trailing ones 0, 0, 3, 0.
    const std::uint8_t flags[] = {0x80, 0x00, 0x83, 0x80};
    const AliasRecords records{rows, rows, tags, flags};
    replayAliasBatchOn(SimdTarget::Scalar, records, 4, batch);
    // Counter 2 -> 3 (hit) -> 2 (miss) -> 3 (hit) -> 3 (hit).
    EXPECT_EQ(batch.misses[0], 1u);
    // Branch 7 displaces branch 0, then branch 0 displaces branch 7.
    EXPECT_EQ(batch.conflicts[0], 2u);
    EXPECT_EQ(batch.harmless[0], 1u); // only the all-ones access
    EXPECT_EQ(arena[0], ((0u + 1) << 2) | 3u);
}

TEST(AliasBatchDifferential, FuzzedCompositionsAgreeAcrossTargetsAndOracles)
{
    // >= 100 fuzzed compositions, every 2-bit scheme in rotation, each
    // held to the oracles and replayed under every supported target,
    // shard counts 1-4 and segments 1 and K > 1.
    runCampaign(0xA1A5BA7CULL, 105, 1200, 2000);
}

TEST(AliasBatchDifferential, WholeSweepsMatchOnlinePredictorPerTarget)
{
    // sweepScheme end to end: every target and thread count gives the
    // same three surfaces, and every point's aliasing and harmless
    // values equal the online predictor's tracker.
    const MemoryTrace trace = fuzzTrace(91, 3000);
    const PreparedTrace prepared(trace);
    for (SchemeKind kind : kTwoBitKinds) {
        SweepOptions opts;
        opts.minTotalBits = 3;
        opts.maxTotalBits = 8;
        opts.bhtEntries = 64;
        opts.simd = SimdTarget::Scalar;
        const SweepResult base = sweepScheme(prepared, kind, opts);
        EXPECT_EQ(base.kernel.aliasLanes, base.kernel.lanes);
        for (SimdTarget target : supportedSimdTargets()) {
            SweepOptions forced = opts;
            forced.simd = target;
            forced.threads = 3;
            const SweepResult r = sweepScheme(prepared, kind, forced);
            EXPECT_EQ(r.kernel.target, target);
            for (const auto &[a, b] :
                 {std::pair{&base.misprediction, &r.misprediction},
                  std::pair{&base.aliasing, &r.aliasing},
                  std::pair{&base.harmless, &r.harmless}}) {
                ASSERT_EQ(a->tiers().size(), b->tiers().size());
                for (std::size_t t = 0; t < a->tiers().size(); ++t) {
                    const auto &pa = a->tiers()[t].points;
                    const auto &pb = b->tiers()[t].points;
                    ASSERT_EQ(pa.size(), pb.size());
                    for (std::size_t p = 0; p < pa.size(); ++p)
                        EXPECT_EQ(pa[p].value, pb[p].value)
                            << schemeKindName(kind) << " "
                            << simdTargetName(target);
                }
            }
        }

        Composition c;
        c.kind = kind;
        c.opts = opts;
        c.jobs = planSweep(kind, opts);
        std::vector<ConfigResult> exact(c.jobs.size());
        for (std::size_t j = 0; j < c.jobs.size(); ++j) {
            const ConfigJob &job = c.jobs[j];
            exact[j].mispRate =
                *base.misprediction.at(job.totalBits, job.rowBits);
            exact[j].aliasRate =
                *base.aliasing.at(job.totalBits, job.rowBits);
            exact[j].harmlessFraction =
                *base.harmless.at(job.totalBits, job.rowBits);
        }
        expectMatchesOracles(trace, c, exact, "whole sweep");
    }
}

TEST(AliasBatchSlow, CompositionCampaign)
{
    if (std::getenv("BPSIM_SLOW_TESTS") == nullptr) {
        GTEST_SKIP() << "set BPSIM_SLOW_TESTS=1 to run the long "
                        "campaign (ctest -R AliasBatch)";
    }
    // The long campaign: 1000 compositions with longer traces.
    runCampaign(0x510A11A5ULL, 1000, 2000, 6000);
}
