/**
 * @file
 * Tests for the synthetic program builder: structural invariants over
 * many seeds, determinism, and parameter effects.
 */

#include <gtest/gtest.h>

#include "workload/builder.hh"

using namespace bpsim;

namespace {

WorkloadParams
smallParams(std::uint64_t seed = 1)
{
    WorkloadParams p;
    p.name = "unit";
    p.seed = seed;
    p.staticBranches = 120;
    p.functionCount = 12;
    p.targetConditionals = 10'000;
    return p;
}

} // namespace

TEST(ProgramBuilder, VerifyPassesOnBuiltProgram)
{
    SyntheticProgram prog = ProgramBuilder(smallParams()).build();
    prog.verify(); // would panic on inconsistency
    SUCCEED();
}

TEST(ProgramBuilder, FunctionCountHonoured)
{
    SyntheticProgram prog = ProgramBuilder(smallParams()).build();
    EXPECT_EQ(prog.functions.size(), 12u);
}

TEST(ProgramBuilder, StaticBranchCountNearTarget)
{
    SyntheticProgram prog = ProgramBuilder(smallParams()).build();
    EXPECT_GE(prog.staticBranchCount(), 60u);
    EXPECT_LE(prog.staticBranchCount(), 240u);
}

TEST(ProgramBuilder, DeterministicForSameSeed)
{
    SyntheticProgram a = ProgramBuilder(smallParams(7)).build();
    SyntheticProgram b = ProgramBuilder(smallParams(7)).build();
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i) {
        EXPECT_EQ(a.code[i].op, b.code[i].op) << "slot " << i;
        EXPECT_EQ(a.code[i].target, b.code[i].target) << "slot " << i;
        EXPECT_EQ(a.code[i].site, b.code[i].site) << "slot " << i;
    }
    ASSERT_EQ(a.sites.size(), b.sites.size());
}

TEST(ProgramBuilder, DifferentSeedsDiffer)
{
    SyntheticProgram a = ProgramBuilder(smallParams(1)).build();
    SyntheticProgram b = ProgramBuilder(smallParams(2)).build();
    bool differs = a.code.size() != b.code.size();
    if (!differs) {
        for (std::size_t i = 0; i < a.code.size(); ++i) {
            if (a.code[i].op != b.code[i].op ||
                a.code[i].target != b.code[i].target) {
                differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differs);
}

TEST(ProgramBuilder, EveryFunctionEndsWithRet)
{
    SyntheticProgram prog = ProgramBuilder(smallParams()).build();
    for (const auto &fn : prog.functions) {
        ASSERT_GT(fn.end, fn.entry);
        EXPECT_EQ(prog.code[fn.end - 1].op, Op::Ret) << fn.name;
    }
}

TEST(ProgramBuilder, FunctionsTileTheImage)
{
    SyntheticProgram prog = ProgramBuilder(smallParams()).build();
    std::uint32_t expected_start = 0;
    for (const auto &fn : prog.functions) {
        EXPECT_EQ(fn.entry, expected_start) << fn.name;
        expected_start = fn.end;
    }
    EXPECT_EQ(expected_start, prog.code.size());
}

TEST(ProgramBuilder, CallsOnlyTargetEarlierFunctions)
{
    // The call graph must be a DAG (no recursion): a call in function f
    // may only target a function with a smaller id.
    SyntheticProgram prog = ProgramBuilder(smallParams(3)).build();
    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        const auto &fn = prog.functions[f];
        for (std::uint32_t i = fn.entry; i < fn.end; ++i) {
            if (prog.code[i].op == Op::Call) {
                EXPECT_LT(prog.code[i].target, f) << "slot " << i;
            }
        }
    }
}

TEST(ProgramBuilder, BranchTargetsStayInsideOwnFunction)
{
    SyntheticProgram prog = ProgramBuilder(smallParams(5)).build();
    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        const auto &fn = prog.functions[f];
        for (std::uint32_t i = fn.entry; i < fn.end; ++i) {
            const Insn &insn = prog.code[i];
            if (insn.op == Op::Cond || insn.op == Op::Jump) {
                EXPECT_GE(insn.target, fn.entry) << "slot " << i;
                EXPECT_LT(insn.target, fn.end) << "slot " << i;
            }
        }
    }
}

TEST(ProgramBuilder, EverySiteHasAPredicate)
{
    SyntheticProgram prog = ProgramBuilder(smallParams()).build();
    for (const auto &site : prog.sites)
        EXPECT_NE(site.predicate, nullptr);
}

TEST(ProgramBuilder, KernelFractionZeroMeansNoKernelCode)
{
    WorkloadParams p = smallParams();
    p.kernelFraction = 0.0;
    SyntheticProgram prog = ProgramBuilder(p).build();
    for (const auto &fn : prog.functions)
        EXPECT_FALSE(fn.kernel);
}

TEST(ProgramBuilder, KernelFractionOneMeansAllKernel)
{
    WorkloadParams p = smallParams();
    p.kernelFraction = 1.0;
    SyntheticProgram prog = ProgramBuilder(p).build();
    for (const auto &fn : prog.functions)
        EXPECT_TRUE(fn.kernel);
}

TEST(ProgramBuilder, HotnessIsPositiveAndZipfShaped)
{
    SyntheticProgram prog = ProgramBuilder(smallParams()).build();
    double total = 0;
    double max_h = 0;
    for (const auto &fn : prog.functions) {
        EXPECT_GT(fn.hotness, 0.0);
        total += fn.hotness;
        max_h = std::max(max_h, fn.hotness);
    }
    // Exactly one function holds the rank-0 weight of 1.0.
    EXPECT_DOUBLE_EQ(max_h, 1.0);
    EXPECT_GT(total, 1.0);
}

TEST(ProgramBuilder, ZeroBlockLenStillBuildsValidProgram)
{
    WorkloadParams p = smallParams();
    p.meanBlockLen = 0.0;
    SyntheticProgram prog = ProgramBuilder(p).build();
    prog.verify();
    EXPECT_GT(prog.staticBranchCount(), 0u);
}

TEST(ProgramBuilder, SingleFunctionProgram)
{
    WorkloadParams p = smallParams();
    p.functionCount = 1;
    p.staticBranches = 10;
    SyntheticProgram prog = ProgramBuilder(p).build();
    prog.verify();
    EXPECT_EQ(prog.functions.size(), 1u);
    // Function 0 can call nothing.
    for (const auto &insn : prog.code)
        EXPECT_NE(insn.op, Op::Call);
}

TEST(ProgramBuilder, AddressesAreWordAlignedAndSegmented)
{
    WorkloadParams p = smallParams();
    p.kernelFraction = 0.5;
    SyntheticProgram prog = ProgramBuilder(p).build();
    EXPECT_EQ(prog.addressOf(0, false), SyntheticProgram::userBase);
    EXPECT_EQ(prog.addressOf(0, true),
              SyntheticProgram::kernelBase + SyntheticProgram::userBase);
    EXPECT_EQ(prog.addressOf(3, false) % 4, 0u);
}

TEST(WorkloadParamsDeathTest, InvalidMixRejected)
{
    WorkloadParams p;
    p.fracPattern = 0.9;
    p.fracCorrelated = 0.9;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "behaviour-mix fractions exceed 1");
}

TEST(WorkloadParamsDeathTest, ZeroStaticsRejected)
{
    WorkloadParams p;
    p.staticBranches = 0;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "staticBranches");
}

TEST(WorkloadParamsDeathTest, BadProbabilityRejected)
{
    WorkloadParams p;
    p.loopFraction = 1.5;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "probability parameter");
}

TEST(WorkloadParamsDeathTest, ReversedBiasRangeRejected)
{
    WorkloadParams p;
    p.highBiasMin = 0.99;
    p.highBiasMax = 0.95;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "bias ranges reversed");
}

/** Structural invariants over a spread of seeds. */
class BuilderSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BuilderSeedSweep, VerifiesAndCoversConstructs)
{
    WorkloadParams p = smallParams(GetParam());
    p.staticBranches = 200;
    p.functionCount = 20;
    SyntheticProgram prog = ProgramBuilder(p).build();
    prog.verify();

    // Expect all structural opcode kinds to appear in a 200-site
    // program.
    bool saw_cond = false, saw_jump = false, saw_ret = false;
    for (const auto &insn : prog.code) {
        saw_cond |= insn.op == Op::Cond;
        saw_jump |= insn.op == Op::Jump;
        saw_ret |= insn.op == Op::Ret;
    }
    EXPECT_TRUE(saw_cond);
    EXPECT_TRUE(saw_jump);
    EXPECT_TRUE(saw_ret);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));
