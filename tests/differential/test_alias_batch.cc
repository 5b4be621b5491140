/**
 * @file
 * Differential verification of the 2-bit lane engine: misprediction
 * and Figure 5's aliasing and harmless-alias surfaces.
 *
 * Fuzzed group compositions -- 1-40 lanes of mixed row/column widths
 * (row width 0 included) over every 2-bit SchemeKind (finite-BHT
 * groups under every reset policy, direct-mapped to fully
 * associative), plus row-heavy and column-heavy splits at tiers
 * 16-18, on traces with one or several branch pcs per instruction
 * word -- run through runFusedGroup as one group (several lane
 * batches per block) and as the planner's groups, on the host's
 * kernels.  The two group shapes
 * batch lanes differently, so occupancy-aware dispatch runs a
 * composition on different kernels in each; both must be
 * bit-identical, and the exact results must match the naive reference
 * model (misprediction) and the online TwoLevelPredictor's
 * AliasTracker (aliasing and harmless fractions).
 * Untracked runs (trackAliasing false) must report the same
 * misprediction with the aliasing fields zeroed: the option filters
 * output and never changes execution.  A kernel-level check replays
 * random records with branch ids near the 2^30 ceiling through every
 * kernel and memcmps the final lane arenas against the scalar
 * kernel's.
 *
 * The FusedKernelDifferential cases hold untracked mixed-tier job
 * lists, planned exactly as sweepScheme plans them, to one-lane groups,
 * the tracked engine and the reference model.
 *
 * The tsan test preset's name filter includes "AliasBatch", so alias
 * lane groups spread over the pool run under the race detector.
 * The 1000-composition campaign at the bottom additionally needs
 * BPSIM_SLOW_TESTS=1 (ctest -L slow).
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
#include "predictor/row_selector.hh"
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

/**
 * A fuzzed first-level BHT: 32-128 entries, direct-mapped, 2-way,
 * 4-way or fully associative, under any reset policy.
 */
void
fuzzBht(SweepOptions &opts, Pcg32 &rng)
{
    opts.bhtEntries = 32u << rng.nextBounded(3);
    const unsigned assoc[] = {1, 2, 4,
                              static_cast<unsigned>(opts.bhtEntries)};
    opts.bhtAssoc = assoc[rng.nextBounded(4)];
    const BhtResetPolicy policies[] = {
        BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Zeros,
        BhtResetPolicy::Ones, BhtResetPolicy::Hold};
    opts.bhtResetPolicy = policies[rng.nextBounded(4)];
}

/**
 * BhtPerAddressSelector under any reset policy: the oracle's finite
 * first level (the library selector keeps the paper's 0xC3FF reset).
 */
class PolicyBhtSelector : public RowSelector
{
  public:
    PolicyBhtSelector(const SweepOptions &opts, unsigned history_bits)
        : bht(opts.bhtEntries, opts.bhtAssoc, history_bits,
              opts.bhtResetPolicy)
    {
    }

    std::uint64_t selectRow(const BranchRecord &rec) override
    {
        return bht.visit(rec.pc).history;
    }
    void recordOutcome(const BranchRecord &rec) override
    {
        bht.recordOutcome(rec.pc, rec.taken);
    }
    bool patternAllOnes(const BranchRecord &rec,
                        unsigned row_bits) const override
    {
        const auto hist = bht.peek(rec.pc);
        return hist && row_bits != 0 &&
               bits(*hist, row_bits) == mask(row_bits);
    }
    std::string schemeName() const override { return "PAs(bht)"; }
    void reset() override { bht.reset(); }

  private:
    SetAssocBht bht;
};

/**
 * A synthetic trace; odd seeds move each conditional branch to a
 * pseudo-random byte of its instruction word, as in a variable-length
 * ISA's trace, so distinct pcs share a word (and a BHT entry).
 */
MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "alias-batch-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 60 + seed % 90;
    p.functionCount = 8;
    p.targetConditionals = conditionals;
    MemoryTrace aligned = generateTrace(p);
    if (seed % 2 == 0)
        return aligned;
    MemoryTrace split(aligned.name());
    for (std::size_t i = 0; i < aligned.size(); ++i) {
        BranchRecord rec = aligned[i];
        if (rec.isConditional())
            rec.pc += ((i * 2654435761u) >> 7) & 3;
        split.append(rec);
    }
    return split;
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
    c.opts.pathBitsPerTarget = 1 + rng.nextBounded(3);
    fuzzBht(c.opts, rng);
    const std::size_t lanes = 1 + rng.nextBounded(40);
    // A PAsFinite group decodes one row width from the BHT stream.
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

/**
 * Tables past 2^15 counters: row-heavy (all rows but one column bit)
 * and column-heavy (one row bit) splits at tiers 16-18.  A PAsFinite
 * group shares one BHT row width, so its row-heavy splits keep 15 row
 * bits and widen the columns instead.
 */
std::vector<Composition>
wideCompositions(SchemeKind kind)
{
    std::vector<Composition> out;
    for (bool row_heavy : {true, false}) {
        Composition c;
        c.kind = kind;
        c.opts.trackAliasing = true;
        c.opts.bhtEntries = 64;
        for (unsigned total = 16; total <= 18; ++total) {
            unsigned r = row_heavy ? total - 1 : 1;
            if (kind == SchemeKind::AddressIndexed)
                r = 0;
            if (kind == SchemeKind::GAg)
                r = total;
            if (kind == SchemeKind::PAsFinite)
                r = row_heavy ? 15 : 1;
            c.jobs.push_back(ConfigJob{kind, total, r, total - r});
        }
        out.push_back(std::move(c));
    }
    return out;
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
    EXPECT_EQ(tel.lanes, c.jobs.size());
    return slots;
}

/** Run @p c through the planner's groups, as sweepScheme would. */
std::vector<ConfigResult>
runPlanned(const PreparedTrace &t, const Composition &c,
           const SweepOptions &opts)
{
    StreamCache cache(t, opts);
    std::vector<ConfigResult> slots(c.jobs.size());
    for (const FusedGroup &group : planFusedGroups(c.jobs, 1)) {
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

        // The spec grammar spells only the default BHT reset policy,
        // so finite-PAs lanes build their online predictor directly.
        std::unique_ptr<BranchPredictor> online =
            c.kind == SchemeKind::PAsFinite
                ? std::make_unique<TwoLevelPredictor>(
                      std::make_unique<PolicyBhtSelector>(c.opts,
                                                          job.rowBits),
                      job.rowBits, job.colBits, true)
                : makePredictor(engineSpec(ref), true);
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
 * The full check of one composition: the one-group replay is the
 * baseline; planner groups must reproduce it bit for bit, and the
 * baseline must match the oracles.
 */
void
checkComposition(const MemoryTrace &trace, const PreparedTrace &prepared,
                 const Composition &c, const std::string &what)
{
    const std::vector<ConfigResult> exact =
        runOneGroup(prepared, c, c.opts);
    expectSlotsIdentical(exact, runPlanned(prepared, c, c.opts),
                         what + " planned");
    expectMatchesOracles(trace, c, exact, what);

    // Untracked: the same misprediction, the aliasing fields zeroed.
    SweepOptions untracked = c.opts;
    untracked.trackAliasing = false;
    std::vector<ConfigResult> filtered = exact;
    for (ConfigResult &slot : filtered) {
        slot.aliasRate = 0.0;
        slot.harmlessFraction = 0.0;
    }
    expectSlotsIdentical(filtered, runOneGroup(prepared, c, untracked),
                         what + " untracked");
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
        checkComposition(trace, prepared, c,
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

/** Run @p jobs through planFusedGroups/runFusedGroup. */
std::vector<ConfigResult>
runFused(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
         const SweepOptions &opts, unsigned threads)
{
    StreamCache cache(t, opts);
    cache.prepare(jobs, 1);
    std::vector<ConfigResult> slots(jobs.size());
    for (const FusedGroup &group : planFusedGroups(jobs, threads))
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

TEST(AliasBatchKernel, DispatchIsOccupancyAware)
{
    for (unsigned lanes = 1; lanes <= AliasBatch::kMaxLanes; ++lanes)
        EXPECT_EQ(aliasBatchKernel(SimdTarget::Scalar, lanes),
                  SimdTarget::Scalar);
    if (!simdTargetSupported(SimdTarget::AVX512))
        GTEST_SKIP() << "host has no AVX-512 kernel";
    // The break-even of EXPERIMENTS "2-bit lane batches: the kernel":
    // the 16-wide kernel runs from 3 live lanes (the micro ledger's
    // 2-lane lead does not show in an end-to-end sweep).
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
                    replayAliasBatchOn(
                        dispatched ? aliasBatchKernel(target, got.lanes)
                                   : target,
                        records.view(from), 1000, got);
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
    // held to the oracles and replayed as one group and as planner
    // groups (different batch occupancies, so different kernels on a
    // vector host).
    runCampaign(0xA1A5BA7CULL, 105, 1200, 2000);

    // Tables past 2^15 counters on a short trace.
    const MemoryTrace trace = fuzzTrace(16, 1500);
    const PreparedTrace prepared(trace);
    for (SchemeKind kind : kTwoBitKinds) {
        for (const Composition &c : wideCompositions(kind)) {
            checkComposition(trace, prepared, c,
                             std::string("wide ") +
                                 schemeKindName(kind));
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(AliasBatchDifferential, WholeSweepsMatchOnlinePredictorPerTarget)
{
    // sweepScheme end to end: serial and threaded sweeps give the same
    // three surfaces on the host's kernels, and every point's aliasing
    // and harmless values equal the online predictor's tracker.
    const MemoryTrace trace = fuzzTrace(91, 3000);
    const PreparedTrace prepared(trace);
    for (SchemeKind kind : kTwoBitKinds) {
        SweepOptions opts;
        opts.minTotalBits = 3;
        opts.maxTotalBits = 8;
        opts.bhtEntries = 64;
        const SweepResult base = sweepScheme(prepared, kind, opts);
        EXPECT_EQ(base.kernel.lanes, planSweep(kind, opts).size());

        // Untracked: identical misprediction, no aliasing surfaces.
        SweepOptions untracked = opts;
        untracked.trackAliasing = false;
        const SweepResult filtered = sweepScheme(prepared, kind, untracked);
        EXPECT_TRUE(filtered.aliasing.tiers().empty());
        EXPECT_TRUE(filtered.harmless.tiers().empty());
        EXPECT_EQ(filtered.bhtMissRate, base.bhtMissRate);
        ASSERT_EQ(filtered.misprediction.tiers().size(),
                  base.misprediction.tiers().size());
        for (std::size_t t = 0; t < base.misprediction.tiers().size();
             ++t) {
            const auto &pa = base.misprediction.tiers()[t].points;
            const auto &pb = filtered.misprediction.tiers()[t].points;
            ASSERT_EQ(pa.size(), pb.size());
            for (std::size_t p = 0; p < pa.size(); ++p)
                EXPECT_EQ(pa[p].value, pb[p].value)
                    << schemeKindName(kind) << " untracked";
        }
        SweepOptions threaded = opts;
        threaded.threads = 3;
        const SweepResult r = sweepScheme(prepared, kind, threaded);
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
                        << schemeKindName(kind) << " threads=3";
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

TEST(FusedKernelDifferential, FuzzedGroupsAgreeWithPerConfigKernel)
{
    // Fuzzed mixed-tier untracked job lists for every scheme: planned
    // multi-lane groups must match one-lane groups exactly, field for
    // field, and the reference model and the tracked run on
    // misprediction.
    Pcg32 rng(0xF05ED0BAULL, 11);
    for (int round = 0; round < 10; ++round) {
        const SchemeKind kind = kTwoBitKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(1000 + round, 2000 + rng.nextBounded(3000));
        PreparedTrace prepared(trace);

        SweepOptions opts;
        opts.trackAliasing = false;
        fuzzBht(opts, rng);
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
    // Close the triangle: untracked planned groups vs the naive
    // reference model, exact equality, on a fuzzed split per scheme
    // per tier.
    Pcg32 rng(0xD1FF05EDULL, 3);
    MemoryTrace trace = fuzzTrace(77, 2500);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : kTwoBitKinds) {
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
    // each executed untracked as planned groups of up to 8 lanes (on
    // a vector host, the vector kernel for every group of 3 or more)
    // and as one-lane groups (always the scalar kernel), every job
    // held to exact equality against the naive reference model and
    // the one-lane result.
    Pcg32 rng(0x51D0F05EULL, 17);
    std::size_t configs_checked = 0;
    for (int round = 0; configs_checked < 100; ++round) {
        ASSERT_LT(round, 64) << "fuzzer failed to reach 100 configs";
        const SchemeKind kind = kTwoBitKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(4000 + round, 1500 + rng.nextBounded(2500));
        PreparedTrace prepared(trace);

        SweepOptions opts;
        opts.trackAliasing = false;
        fuzzBht(opts, rng);

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

        const std::vector<ConfigResult> fused =
            runFused(prepared, jobs, opts, 1 + rng.nextBounded(2));
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            EXPECT_EQ(fused[j].mispRate, reference[j])
                << schemeKindName(kind) << " r=" << jobs[j].rowBits
                << " c=" << jobs[j].colBits << " round " << round;
            EXPECT_EQ(expected[j].mispRate, reference[j])
                << "one-lane round " << round;
            EXPECT_EQ(fused[j].bhtMissRate, expected[j].bhtMissRate)
                << "round " << round;
        }
        configs_checked += jobs.size();
    }
    EXPECT_GE(configs_checked, 100u);
}

TEST(FusedKernelDifferential, WholeSweepTriangleOnCoreSchemes)
{
    // sweepScheme end to end, untracked vs tracked, with reference
    // spot checks at the corners of each scheme's surface.
    MemoryTrace trace = fuzzTrace(5, 4000);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : kTwoBitKinds) {
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

TEST(AliasBatchSlow, CompositionCampaign)
{
    if (std::getenv("BPSIM_SLOW_TESTS") == nullptr) {
        GTEST_SKIP() << "set BPSIM_SLOW_TESTS=1 to run the long "
                        "campaign (ctest -L slow)";
    }
    // The long campaign: 1000 compositions with longer traces.
    runCampaign(0x510A11A5ULL, 1000, 2000, 6000);
}
