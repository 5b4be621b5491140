/**
 * @file
 * Tests for the trace-replay engine.
 */

#include <gtest/gtest.h>

#include "predictor/static_pred.hh"
#include "sim/engine.hh"
#include "trace/memory_trace.hh"

using namespace bpsim;

namespace {

MemoryTrace
mixedTrace()
{
    MemoryTrace t("mixed");
    for (int i = 0; i < 20; ++i) {
        BranchRecord c;
        c.pc = 0x400100;
        c.target = 0x400200;
        c.type = BranchType::Conditional;
        c.taken = i % 2 == 0;
        t.append(c);

        BranchRecord call;
        call.pc = 0x400104;
        call.target = 0x400800;
        call.type = BranchType::Call;
        t.append(call);

        BranchRecord ret;
        ret.pc = 0x400900;
        ret.target = 0x400108;
        ret.type = BranchType::Return;
        t.append(ret);
    }
    return t;
}

} // namespace

TEST(Engine, OnlyConditionalsArePredicted)
{
    MemoryTrace t = mixedTrace();
    FixedPredictor p(true);
    PredictionStats stats = runPredictor(t, p);
    EXPECT_EQ(stats.lookups(), 20u);
    EXPECT_EQ(stats.mispredicts(), 10u);
}

TEST(Engine, SiteTrackingPassedThrough)
{
    MemoryTrace t = mixedTrace();
    FixedPredictor p(true);
    PredictionStats stats = runPredictor(t, p, /*track_sites=*/true);
    ASSERT_EQ(stats.sites().size(), 1u);
    EXPECT_EQ(stats.sites().at(0x400100).executed, 20u);
}

TEST(Engine, EmptyTraceYieldsEmptyStats)
{
    MemoryTrace t("empty");
    FixedPredictor p(true);
    PredictionStats stats = runPredictor(t, p);
    EXPECT_EQ(stats.lookups(), 0u);
    EXPECT_DOUBLE_EQ(stats.mispRate(), 0.0);
}

TEST(Engine, EngineDoesNotResetTheSource)
{
    // Callers own the cursor: two consecutive runs without reset see
    // the stream once.
    MemoryTrace t = mixedTrace();
    FixedPredictor p(true);
    PredictionStats first = runPredictor(t, p);
    PredictionStats second = runPredictor(t, p);
    EXPECT_EQ(first.lookups(), 20u);
    EXPECT_EQ(second.lookups(), 0u);
}
