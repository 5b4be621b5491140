/**
 * @file
 * Unit tests for the hashed perceptron predictor: the integer training
 * threshold, weight saturation at the clamp boundaries, the
 * train-on-low-confidence rule, online/sweep equivalence, and the
 * interference partition.  Suite names start with "PerceptronZoo" so
 * the tsan preset can select them by name.
 */

#include <gtest/gtest.h>

#include <utility>

#include "predictor/perceptron.hh"
#include "sim/engine.hh"
#include "sim/interference.hh"
#include "sim/sweep.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

MemoryTrace &
sharedWorkload()
{
    static MemoryTrace trace = [] {
        WorkloadParams p;
        p.name = "perceptron-unit";
        p.seed = 193;
        p.staticBranches = 150;
        p.functionCount = 15;
        p.targetConditionals = 30'000;
        return generateTrace(p);
    }();
    return trace;
}

PerceptronParams
params(unsigned h, unsigned entry, unsigned tables)
{
    PerceptronParams p;
    p.historyBits = h;
    p.entryBits = entry;
    p.tables = tables;
    return p;
}

} // namespace

TEST(PerceptronZoo, ThresholdIsIntegerJimenezFormula)
{
    // theta = floor(1.93 h) + 14, computed as (193 * h) / 100 + 14 in
    // integer arithmetic so no float rounding can diverge between the
    // engine and the naive reference model.
    // The model and the batched sweep engine both read it from
    // PerceptronParams::threshold.
    for (const auto &[h, theta] :
         {std::pair{1u, 15}, {16u, 44}, {59u, 127}, {64u, 137}}) {
        EXPECT_EQ(params(h, 4, 2).threshold(), theta) << "h=" << h;
        EXPECT_EQ(PerceptronModel(params(h, 4, 2)).threshold(), theta)
            << "h=" << h;
    }
}

TEST(PerceptronZoo, WeightsSaturateAtClampBounds)
{
    // h=64 gives theta=137 while two tables can sum to at most 126, so
    // |sum| <= theta always holds and EVERY step trains: a constant
    // outcome must drive the touched weights to the clamp boundary and
    // hold them there.
    PerceptronModel up(params(64, 2, 2));
    const Addr pc = 0x40;
    const std::uint64_t ghist = 0x5a5a;
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(up.step(pc, ghist, true).trained);
    EXPECT_EQ(up.updates(), 200u);
    for (unsigned t = 0; t < 2; ++t)
        EXPECT_EQ(up.weightAt(t, up.tableIndex(t, pc, ghist)),
                  PerceptronModel::kWeightMax);

    PerceptronModel down(params(64, 2, 2));
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(down.step(pc, ghist, false).trained);
    for (unsigned t = 0; t < 2; ++t)
        EXPECT_EQ(down.weightAt(t, down.tableIndex(t, pc, ghist)),
                  PerceptronModel::kWeightMin);
}

TEST(PerceptronZoo, TrainsOnLowConfidenceStopsWhenConfident)
{
    // h=1 gives theta=15.  A fixed always-taken context trains both
    // touched weights by +1 per step while |sum| <= 15; at sum 16 the
    // prediction is confident and correct, and training must stop.
    PerceptronModel m(params(1, 4, 2));
    const Addr pc = 0x40;
    const std::uint64_t ghist = 1;
    int trained_steps = 0;
    for (int i = 0; i < 20; ++i)
        if (m.step(pc, ghist, true).trained)
            ++trained_steps;
    // Each trained step bumps both touched weights, raising the next
    // sum by 2: the steps seeing sums 0, 2, ..., 14 train (8 of them);
    // the step that sees sum 16 > theta is confident and does not.
    EXPECT_EQ(trained_steps, 8);
    PerceptronStep last = m.step(pc, ghist, true);
    EXPECT_FALSE(last.trained);
    EXPECT_EQ(last.sum, 16);
    EXPECT_EQ(m.updates(), static_cast<std::uint64_t>(trained_steps));
}

TEST(PerceptronZoo, PredictionIsSignOfSum)
{
    PerceptronModel m(params(8, 4, 3));
    const Addr pc = 0x80;
    PerceptronStep first = m.step(pc, 0, false);
    EXPECT_EQ(first.sum, 0);
    EXPECT_TRUE(first.prediction); // sum >= 0 predicts taken
    PerceptronStep second = m.step(pc, 0, false);
    EXPECT_LT(second.sum, 0);
    EXPECT_FALSE(second.prediction);
}

TEST(PerceptronZoo, BiasTableIgnoresHistory)
{
    PerceptronModel m(params(16, 6, 4));
    EXPECT_EQ(m.tableIndex(0, 0x100, 0),
              m.tableIndex(0, 0x100, ~0ull));
    // History tables see the history: some segment of an all-ones
    // history must hash differently from the all-zeros history.
    bool any_differs = false;
    for (unsigned t = 1; t < 4; ++t)
        if (m.tableIndex(t, 0x100, 0) != m.tableIndex(t, 0x100, ~0ull))
            any_differs = true;
    EXPECT_TRUE(any_differs);
}

TEST(PerceptronZoo, ResetClearsWeightsAndUpdates)
{
    PerceptronModel m(params(8, 4, 3));
    for (int i = 0; i < 50; ++i)
        m.step(0x40 + 4 * (i % 3), static_cast<std::uint64_t>(i),
               i % 2 == 0);
    ASSERT_GT(m.updates(), 0u);
    m.reset();
    EXPECT_EQ(m.updates(), 0u);
    EXPECT_EQ(m.step(0x40, 0, true).sum, 0);
}

TEST(PerceptronZooSweep, ModelReplayMatchesOnlinePredictor)
{
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    ConfigResult fast = simulateConfig(prepared, SchemeKind::Perceptron,
                                       12, 6, o);

    PerceptronPredictor online(perceptronSweepParams(12, 6, o));
    sharedWorkload().reset();
    double online_misp =
        runPredictor(sharedWorkload(), online).mispRate();
    EXPECT_NEAR(fast.mispRate, online_misp, 1e-12);
}

TEST(PerceptronZooSweep, AxisMappingAndOptionsReachTheModel)
{
    SweepOptions o;
    o.perceptronTables = 6;
    PerceptronParams p = perceptronSweepParams(24, 8, o);
    EXPECT_EQ(p.historyBits, 24u); // rows = history length
    EXPECT_EQ(p.entryBits, 8u);    // cols = per-table entries
    EXPECT_EQ(p.tables, 6u);
}

TEST(PerceptronZooInterference, PartitionCoversEverySharedMispredict)
{
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    InterferenceResult r = analyzeInterference(
        prepared, SchemeKind::Perceptron, 12, 4, o);
    EXPECT_EQ(r.instances, prepared.size());
    EXPECT_EQ(r.sharedMispredicts,
              r.aliasingMispredicts() + r.coldMispredicts +
                  r.capacityMispredicts);
    EXPECT_EQ(r.sharedMispredicts,
              r.privateMispredicts + r.destructive - r.constructive);
}

TEST(PerceptronZooInterference, SharedRateMatchesSweepPoint)
{
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    ConfigResult sweep = simulateConfig(
        prepared, SchemeKind::Perceptron, 12, 6, o);
    InterferenceResult r = analyzeInterference(
        prepared, SchemeKind::Perceptron, 12, 6, o);
    EXPECT_NEAR(r.sharedMispRate(), sweep.mispRate, 1e-12);
}
