/**
 * @file
 * Tests for the user/kernel trace filters.
 */

#include <gtest/gtest.h>

#include "trace/memory_trace.hh"
#include "trace/trace_filter.hh"
#include "trace/trace_stats.hh"

using namespace bpsim;

namespace {

MemoryTrace
mixedTrace()
{
    MemoryTrace t("mixed");
    for (int i = 0; i < 10; ++i) {
        BranchRecord user;
        user.pc = 0x400100 + 4 * i;
        user.target = 0x400200;
        user.type = BranchType::Conditional;
        user.taken = i % 2 == 0;
        user.instGap = 3;
        user.kernel = false;
        t.append(user);

        BranchRecord kern;
        kern.pc = 0x80400100 + 4 * i;
        kern.target = 0x80400200;
        kern.type = i % 3 == 0 ? BranchType::Call
                               : BranchType::Conditional;
        kern.taken = true;
        kern.instGap = 2;
        kern.kernel = true;
        t.append(kern);
    }
    return t;
}

} // namespace

TEST(FilteredTrace, UserOnlyStripsKernelRecords)
{
    MemoryTrace t = mixedTrace();
    FilteredTrace f = userOnly(t);
    BranchRecord rec;
    int n = 0;
    while (f.next(rec)) {
        EXPECT_FALSE(rec.kernel);
        ++n;
    }
    EXPECT_EQ(n, 10);
    EXPECT_EQ(f.dropped(), 10u);
    EXPECT_EQ(f.name(), "mixed.user");
}

TEST(FilteredTrace, KernelOnlyKeepsKernelRecords)
{
    MemoryTrace t = mixedTrace();
    FilteredTrace f = kernelOnly(t);
    BranchRecord rec;
    int n = 0;
    while (f.next(rec)) {
        EXPECT_TRUE(rec.kernel);
        ++n;
    }
    EXPECT_EQ(n, 10);
}

TEST(FilteredTrace, DroppedInstructionsFoldIntoGaps)
{
    // Total dynamic instructions must be preserved by filtering (the
    // dropped records' instGap + 1 lands on the next survivor).  A
    // trailing survivor is appended because instructions after the
    // last surviving record have no carrier and are legitimately lost.
    MemoryTrace t = mixedTrace();
    BranchRecord last;
    last.pc = 0x400f00;
    last.target = 0x400f80;
    last.type = BranchType::Conditional;
    last.taken = true;
    last.kernel = false;
    t.append(last);
    auto full = TraceCharacterization::measure(t);

    t.reset();
    FilteredTrace f = userOnly(t);
    auto filtered = TraceCharacterization::measure(f);

    EXPECT_EQ(filtered.dynamicInstructions(),
              full.dynamicInstructions());
    EXPECT_LT(filtered.dynamicConditionals(),
              full.dynamicConditionals());
}

TEST(FilteredTrace, ResetRestartsAndClearsDropCount)
{
    MemoryTrace t = mixedTrace();
    FilteredTrace f = userOnly(t);
    BranchRecord rec;
    while (f.next(rec)) {
    }
    f.reset();
    EXPECT_EQ(f.dropped(), 0u);
    ASSERT_TRUE(f.next(rec));
    EXPECT_EQ(rec.pc, 0x400100u);
}

TEST(FilteredTrace, TrailingDroppedRecordsEndTheStream)
{
    MemoryTrace t("tail");
    BranchRecord rec;
    rec.pc = 0x100;
    rec.type = BranchType::Conditional;
    rec.kernel = true;
    t.append(rec);
    FilteredTrace f = userOnly(t);
    BranchRecord out;
    EXPECT_FALSE(f.next(out));
    EXPECT_EQ(f.dropped(), 1u);
}
