/**
 * @file
 * Unit tests for the lane-batched SIMD layer: target naming and
 * dispatch resolution, the lane-batch packer (on sizes only), and the
 * 2-bit alias lane kernel on every dispatch target this host
 * supports, held bit for bit to a plain per-lane loop over
 * SatCounter<2> tables and last-writer ids on the boundary outcome
 * patterns (all zeros, all ones, alternating, saturating runs pinning
 * counters at 0b00 and 0b11) and under seeded fuzz across lane counts
 * and table geometries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/simd.hh"

using namespace bpsim;

namespace {

/** A decoded record block for the alias kernel (simd.hh AliasRecords). */
struct RecordBlock
{
    std::vector<std::uint32_t> row, col, tag;
    std::vector<std::uint8_t> flags;

    void
    push(std::uint32_t r, std::uint32_t c, std::uint32_t id, bool taken,
         unsigned ones)
    {
        row.push_back(r);
        col.push_back(c);
        tag.push_back((id + 1) << 2);
        flags.push_back(static_cast<std::uint8_t>(
            (static_cast<unsigned>(taken) << 7) | ones));
    }

    std::size_t size() const { return row.size(); }

    AliasRecords
    view() const
    {
        return AliasRecords{row.data(), col.data(), tag.data(),
                            flags.data()};
    }
};

/** Lane geometry: 2^rowBits x 2^colBits slots. */
struct Geometry
{
    unsigned rowBits;
    unsigned colBits;
};

/** One batch over a private arena, laid out as the sweep engine does. */
struct LaneSetup
{
    std::vector<std::uint32_t> arena;
    AliasBatch batch;

    explicit LaneSetup(const std::vector<Geometry> &lanes)
    {
        std::vector<std::size_t> entries;
        for (const Geometry &g : lanes)
            entries.push_back(std::size_t{1} << (g.rowBits + g.colBits));
        const std::vector<LaneBatchLayout> layouts =
            packLaneBatches(entries, 1, sizeof(std::uint32_t));
        EXPECT_EQ(layouts.size(), 1u);
        batch.lanes = static_cast<unsigned>(lanes.size());
        for (unsigned l = 0; l < batch.lanes; ++l) {
            const Geometry &g = lanes[l];
            batch.offset[l] = layouts[0].at(l, 0);
            batch.rowMask[l] = static_cast<std::uint32_t>(mask(g.rowBits));
            batch.colMask[l] = static_cast<std::uint32_t>(mask(g.colBits));
            batch.colBits[l] = g.colBits;
            batch.harmlessOnes[l] =
                g.rowBits > 0 ? g.rowBits : AliasBatch::kNeverHarmless;
        }
        arena.assign(layouts[0].elements, AliasBatch::kFreshEntry);
        batch.entries = arena.data();
    }

    /** Lane @p l's slot @p s: its 2-bit counter. */
    unsigned
    counter(unsigned l, std::size_t s) const
    {
        return arena[batch.offset[l] + s] & 3u;
    }
};

/**
 * The independent reference the kernels are held to: per lane, a
 * SatCounter<2> table and a last-writer id per slot, stepped one
 * record at a time.
 */
struct Reference
{
    std::vector<std::vector<SatCounter<2>>> counters;
    std::vector<std::vector<std::uint32_t>> writers;
    std::vector<std::uint64_t> misses, conflicts, harmless;

    Reference(const std::vector<Geometry> &lanes,
              const RecordBlock &records)
        : misses(lanes.size()), conflicts(lanes.size()),
          harmless(lanes.size())
    {
        for (std::size_t l = 0; l < lanes.size(); ++l) {
            const Geometry &g = lanes[l];
            const std::size_t size = std::size_t{1}
                                     << (g.rowBits + g.colBits);
            counters.emplace_back(size);
            writers.emplace_back(size, 0u);
            for (std::size_t i = 0; i < records.size(); ++i) {
                const std::size_t s =
                    ((records.row[i] & mask(g.rowBits)) << g.colBits) |
                    (records.col[i] & mask(g.colBits));
                const std::uint32_t id = records.tag[i] >> 2;
                const bool taken = (records.flags[i] >> 7) != 0;
                const unsigned ones = records.flags[i] & 0x7Fu;
                if (writers[l][s] != 0 && writers[l][s] != id) {
                    ++conflicts[l];
                    if (g.rowBits > 0 && ones >= g.rowBits)
                        ++harmless[l];
                }
                misses[l] += counters[l][s].predict() != taken;
                counters[l][s].update(taken);
                writers[l][s] = id;
            }
        }
    }
};

/** Run @p records on @p target and on the reference; compare every
 *  slot and count exactly. */
void
expectBitIdentical(SimdTarget target, const RecordBlock &records,
                   const std::vector<Geometry> &lanes, const char *what)
{
    LaneSetup actual(lanes);
    replayAliasBatchOn(aliasBatchKernel(target, actual.batch.lanes),
                       records.view(), records.size(), actual.batch);
    const Reference expected(lanes, records);

    for (unsigned l = 0; l < actual.batch.lanes; ++l) {
        const std::string where = std::string(what) + ": " +
                                  simdTargetName(target) + " lane " +
                                  std::to_string(l);
        EXPECT_EQ(actual.batch.misses[l], expected.misses[l]) << where;
        EXPECT_EQ(actual.batch.conflicts[l], expected.conflicts[l])
            << where;
        EXPECT_EQ(actual.batch.harmless[l], expected.harmless[l])
            << where;
        for (std::size_t s = 0; s < expected.counters[l].size(); ++s) {
            const std::uint32_t word =
                actual.arena[actual.batch.offset[l] + s];
            ASSERT_EQ(word & 3u, expected.counters[l][s].raw())
                << where << " counter " << s;
            ASSERT_EQ(word >> 2, expected.writers[l][s])
                << where << " writer " << s;
        }
    }
}

/** Mixed lane geometries exercising every batch position. */
const std::vector<Geometry> kMixedLanes = {
    {0, 4}, {2, 4}, {8, 0}, {3, 2}, {5, 5}, {0, 7}, {4, 5}, {6, 6},
    {1, 3}, {7, 2}, {2, 2}, {0, 0}, {9, 1}, {3, 3}, {4, 4}, {1, 10}};

} // namespace

TEST(Simd, TargetNames)
{
    EXPECT_STREQ(simdTargetName(SimdTarget::Auto), "auto");
    EXPECT_STREQ(simdTargetName(SimdTarget::Scalar), "scalar");
    EXPECT_STREQ(simdTargetName(SimdTarget::AVX512), "avx512");
}

TEST(Simd, ScalarAlwaysSupportedAndResolveNeverReturnsAuto)
{
    EXPECT_TRUE(simdTargetSupported(SimdTarget::Scalar));
    EXPECT_TRUE(simdTargetSupported(SimdTarget::Auto));
    EXPECT_NE(resolveSimdTarget(SimdTarget::Auto), SimdTarget::Auto);
    EXPECT_EQ(resolveSimdTarget(SimdTarget::Scalar),
              SimdTarget::Scalar);
    // Auto is the widest target the host supports.
    EXPECT_EQ(resolveSimdTarget(), supportedSimdTargets().back());
}

TEST(Simd, SupportedTargetsResolveToThemselves)
{
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    ASSERT_FALSE(targets.empty());
    EXPECT_EQ(targets.front(), SimdTarget::Scalar);
    for (SimdTarget t : targets) {
        EXPECT_TRUE(simdTargetSupported(t));
        // An explicit supported request is honoured exactly.
        EXPECT_EQ(resolveSimdTarget(t), t);
    }
}

TEST(Simd, UnsupportedRequestsClampDownNotUp)
{
    // On hosts without AVX-512 the request clamps to scalar; on hosts
    // with it, the request is honoured.  Either way the result is
    // supported and never wider than asked.
    const SimdTarget resolved = resolveSimdTarget(SimdTarget::AVX512);
    EXPECT_TRUE(simdTargetSupported(resolved));
    EXPECT_EQ(resolved, simdTargetSupported(SimdTarget::AVX512)
                            ? SimdTarget::AVX512
                            : SimdTarget::Scalar);
}

TEST(Simd, BoundaryPatternsBitIdenticalOnEveryTarget)
{
    // The boundary set.  "Saturating" drives one slot with a constant
    // outcome so counters pin at 0b11 (taken) / 0b00 (not taken) and
    // every extra update exercises the saturation clamp; the branch
    // ids rotate so the last-writer test sees conflicts throughout.
    constexpr std::size_t n = 1024;
    RecordBlock all_zeros, all_ones, alternating, saturate_taken,
        saturate_not_taken;
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<std::uint32_t>(i % 3);
        all_zeros.push(0, 0, id, false, 0);
        all_ones.push(0xFFFFFFFFu, 0xFFFFFFFFu, id, true, 64);
        const std::uint32_t bits = (i & 1) ? 0x55555555u : 0x2AAAAAAAu;
        alternating.push(bits, ~bits, id, (i & 3) < 2,
                         static_cast<unsigned>(i % 11));
        saturate_taken.push(7, 7, id, true, 3);
        saturate_not_taken.push(7, 7, id, false, 3);
    }

    for (SimdTarget target : supportedSimdTargets()) {
        expectBitIdentical(target, all_zeros, kMixedLanes, "all-zeros");
        expectBitIdentical(target, all_ones, kMixedLanes, "all-ones");
        expectBitIdentical(target, alternating, kMixedLanes,
                           "alternating");
        expectBitIdentical(target, saturate_taken, kMixedLanes,
                           "saturating at 0b11");
        expectBitIdentical(target, saturate_not_taken, kMixedLanes,
                           "saturating at 0b00");
    }
}

TEST(Simd, SaturatedCountersLandOnTheRail)
{
    // Beyond agreeing with the reference, the saturating runs must
    // actually end on the rails -- guards against a reference bug
    // cancelling a kernel bug.  Sixteen lanes so the vector kernel is
    // the one dispatched.
    const std::vector<Geometry> lanes(AliasBatch::kMaxLanes,
                                      Geometry{2, 2});
    for (SimdTarget target : supportedSimdTargets()) {
        RecordBlock up, down;
        for (int i = 0; i < 64; ++i) {
            up.push(0, 3, 5, true, 0);
            down.push(0, 3, 5, false, 0);
        }
        LaneSetup taken(lanes);
        LaneSetup not_taken(lanes);
        const SimdTarget kernel =
            aliasBatchKernel(target, AliasBatch::kMaxLanes);
        replayAliasBatchOn(kernel, up.view(), up.size(), taken.batch);
        replayAliasBatchOn(kernel, down.view(), down.size(),
                           not_taken.batch);
        for (unsigned l = 0; l < AliasBatch::kMaxLanes; ++l) {
            EXPECT_EQ(taken.counter(l, 3), 3u) << simdTargetName(target);
            EXPECT_EQ(not_taken.counter(l, 3), 0u)
                << simdTargetName(target);
            EXPECT_EQ(taken.batch.misses[l], 0u);
            // 2 -> 1 -> 0: only the first not-taken update misses.
            EXPECT_EQ(not_taken.batch.misses[l], 1u);
        }
    }
}

TEST(Simd, PartialBatchesLeaveTrailingLanesUntouched)
{
    // Vector kernels pad to their native width internally; the padding
    // must never leak into the caller's unused lane slots.
    RecordBlock records;
    for (std::uint32_t i = 0; i < 500; ++i)
        records.push(i * 37, i * 11, i % 7, (i % 3) == 0, i % 9);

    for (SimdTarget target : supportedSimdTargets()) {
        for (unsigned lanes = 1; lanes <= AliasBatch::kMaxLanes;
             ++lanes) {
            const std::vector<Geometry> geometry(lanes, Geometry{3, 3});
            expectBitIdentical(target, records, geometry,
                               "partial batch");

            LaneSetup setup(geometry);
            replayAliasBatchOn(target, records.view(), records.size(),
                               setup.batch);
            for (unsigned l = lanes; l < AliasBatch::kMaxLanes; ++l) {
                EXPECT_EQ(setup.batch.misses[l], 0u)
                    << simdTargetName(target) << " lanes=" << lanes;
                EXPECT_EQ(setup.batch.conflicts[l], 0u);
                EXPECT_EQ(setup.batch.harmless[l], 0u);
            }
        }
    }
}

TEST(Simd, FuzzedReplayBitIdenticalOnEveryTarget)
{
    Pcg32 rng(0x51D0CAFEULL, 23);
    for (int round = 0; round < 12; ++round) {
        const unsigned lanes =
            1 + static_cast<unsigned>(
                    rng.nextBounded(AliasBatch::kMaxLanes));
        std::vector<Geometry> geometry;
        for (unsigned l = 0; l < lanes; ++l) {
            const unsigned total =
                static_cast<unsigned>(rng.nextBounded(12));
            const unsigned r =
                static_cast<unsigned>(rng.nextBounded(total + 1));
            geometry.push_back(Geometry{r, total - r});
        }

        const std::size_t n = 500 + rng.nextBounded(4000);
        const std::uint32_t ids = 1 + rng.nextBounded(50);
        RecordBlock records;
        for (std::size_t i = 0; i < n; ++i)
            records.push(rng.next(), rng.next(), rng.nextBounded(ids),
                         rng.nextBounded(2) != 0, rng.nextBounded(65));

        for (SimdTarget target : supportedSimdTargets())
            expectBitIdentical(target, records, geometry, "fuzz");
    }
}

TEST(Simd, GatherReachesTheLastTableByte)
{
    // The AVX-512 perceptron kernel gathers a 4-byte window at each
    // weight, so the last weight of the last lane needs the arena's
    // final pad behind it.  Lay lanes of one 16-weight table out with
    // the packer, size the arena exactly to the layout, and address
    // every lane's last weight on every kernel at every occupancy.
    // ASan does not see inside a hardware gather, so the window is
    // checked against the layout: a packer that drops the final pad
    // fails the check.
    constexpr std::size_t kWeights = 16;
    const std::uint8_t taken[1] = {1};
    for (SimdTarget target : supportedSimdTargets()) {
        for (unsigned lanes = 1; lanes <= PerceptronBatch::kMaxLanes;
             ++lanes) {
            const std::vector<LaneBatchLayout> layouts = packLaneBatches(
                std::vector<std::size_t>(lanes, kWeights), 1,
                sizeof(std::int8_t));
            ASSERT_EQ(layouts.size(), 1u);
            const LaneBatchLayout &layout = layouts[0];
            const std::uint32_t last = layout.at(lanes - 1, 0) + kWeights - 1;
            ASSERT_LE(last + sizeof(std::int32_t), layout.elements)
                << "lanes=" << lanes;
            std::vector<std::int8_t> arena(layout.elements, 0);
            std::vector<std::uint32_t> idx(PerceptronBatch::kMaxLanes, 0);
            PerceptronBatch batch;
            batch.weights = arena.data();
            batch.lanes = lanes;
            batch.tables = 1;
            for (unsigned l = 0; l < lanes; ++l) {
                idx[l] = layout.at(l, 0) + kWeights - 1;
                arena[idx[l]] = 5;
                batch.theta[l] = 0;
            }
            replayPerceptronBatchOn(target, idx.data(), taken, 1, batch);
            for (unsigned l = 0; l < lanes; ++l) {
                // Sum 5 >= 0 predicts taken: a hit above theta, no train.
                EXPECT_EQ(batch.misses[l], 0u)
                    << simdTargetName(target) << " lanes=" << lanes;
                EXPECT_EQ(arena[idx[l]], 5)
                    << simdTargetName(target) << " lanes=" << lanes;
            }
        }
    }
}

TEST(LanePacker, BatchClosesAtSixteenLanes)
{
    // 40 lanes of two 8-entry tables: batches of 16, 16 and 8 in
    // execution order.
    const std::vector<LaneBatchLayout> layouts = packLaneBatches(
        std::vector<std::size_t>(40 * 2, 8), 2, sizeof(std::uint32_t));
    ASSERT_EQ(layouts.size(), 3u);
    const std::size_t first[] = {0, 16, 32};
    const unsigned lanes[] = {16, 16, 8};
    for (std::size_t b = 0; b < 3; ++b) {
        EXPECT_EQ(layouts[b].firstLane, first[b]);
        EXPECT_EQ(layouts[b].lanes, lanes[b]);
        EXPECT_EQ(layouts[b].tables, 2u);
        EXPECT_EQ(layouts[b].offset.size(), lanes[b] * 2u);
    }
}

TEST(LanePacker, EveryTableIsFollowedByTheSixtyFourBytePad)
{
    // Tables lie back to back in execution order, each followed by
    // 64 bytes: 16 uint32 slots, or 64 int8 weights.
    const std::vector<std::size_t> entries = {4, 1, 8, 0, 2, 32};
    for (const auto &[bytes, pad] :
         {std::pair{sizeof(std::uint32_t), std::size_t{16}},
          {sizeof(std::int8_t), std::size_t{64}}}) {
        const std::vector<LaneBatchLayout> layouts =
            packLaneBatches(entries, 2, bytes);
        ASSERT_EQ(layouts.size(), 1u);
        const LaneBatchLayout &layout = layouts[0];
        EXPECT_EQ(layout.lanes, 3u);
        std::size_t next = 0;
        for (unsigned l = 0; l < 3; ++l) {
            for (unsigned t = 0; t < 2; ++t) {
                EXPECT_EQ(layout.at(l, t), next) << "lane " << l;
                next += entries[l * 2 + t] + pad;
            }
        }
        EXPECT_EQ(layout.elements, next) << bytes << "-byte elements";
    }
}

TEST(LanePacker, BatchClosesEarlyAtTheElementCap)
{
    // Lanes of 2^29 uint32 slots (plus the 16-slot pad): the fourth
    // would take the arena past 2^31 - 1, so it opens a second batch.
    const std::vector<LaneBatchLayout> big = packLaneBatches(
        std::vector<std::size_t>(5, std::size_t{1} << 29), 1,
        sizeof(std::uint32_t));
    ASSERT_EQ(big.size(), 2u);
    EXPECT_EQ(big[0].lanes, 3u);
    EXPECT_EQ(big[0].elements, 3 * ((std::size_t{1} << 29) + 16));
    EXPECT_EQ(big[1].firstLane, 3u);
    EXPECT_EQ(big[1].lanes, 2u);

    // An arena of exactly 2^31 - 1 elements is allowed; one more
    // element is not.
    const std::size_t pad = LaneBatchLayout::kPadBytes;
    const std::size_t half = std::size_t{1} << 30;
    const std::vector<LaneBatchLayout> exact = packLaneBatches(
        {half - pad, half - 1 - pad, 0}, 1, sizeof(std::int8_t));
    ASSERT_EQ(exact.size(), 2u);
    EXPECT_EQ(exact[0].lanes, 2u);
    EXPECT_EQ(exact[0].elements, LaneBatchLayout::kMaxElements);
    EXPECT_EQ(exact[1].firstLane, 2u);
    EXPECT_EQ(exact[1].elements, pad);
}

TEST(LanePackerDeathTest, LaneLargerThanTheCapIsRejected)
{
    // A lane whose own tables and pads pass 2^31 - 1 elements fits no
    // arena.
    EXPECT_DEATH(packLaneBatches({LaneBatchLayout::kMaxElements}, 1,
                                 sizeof(std::int8_t)),
                 "2\\^31 - 1 cap");
    EXPECT_DEATH(packLaneBatches({std::size_t{1} << 30, std::size_t{1} << 30},
                                 2, sizeof(std::int8_t)),
                 "2\\^31 - 1 cap");
}
