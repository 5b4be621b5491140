/**
 * @file
 * Tests for the destructive/neutral/constructive interference
 * decomposition.
 */

#include <gtest/gtest.h>

#include "sim/interference.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

PreparedTrace &
workload()
{
    static MemoryTrace raw = [] {
        WorkloadParams p;
        p.name = "interference-unit";
        p.seed = 2024;
        p.staticBranches = 400;
        p.functionCount = 40;
        p.targetConditionals = 60'000;
        return generateTrace(p);
    }();
    static PreparedTrace t{raw};
    return t;
}

} // namespace

TEST(Interference, CountsAreConsistent)
{
    InterferenceResult r = analyzeInterference(
        workload(), SchemeKind::Gshare, 8, 0);
    EXPECT_EQ(r.instances, workload().size());
    EXPECT_LE(r.destructive, r.sharedMispredicts);
    EXPECT_LE(r.constructive, r.privateMispredicts);
    // Misprediction identities: shared = private + destr - constr.
    EXPECT_EQ(r.sharedMispredicts,
              r.privateMispredicts + r.destructive - r.constructive);
}

TEST(Interference, SharedMispRateMatchesSweep)
{
    // The shared table is the sweep's table: every 2-bit scheme's rows
    // must come out as the sweep derives them.
    const auto expect_match = [](SchemeKind kind, unsigned rows,
                                 unsigned cols, SweepOptions o) {
        o.trackAliasing = false;
        ConfigResult sweep =
            simulateConfig(workload(), kind, rows, cols, o);
        InterferenceResult r =
            analyzeInterference(workload(), kind, rows, cols, o);
        EXPECT_NEAR(r.sharedMispRate(), sweep.mispRate, 1e-12)
            << schemeKindName(kind) << " " << rows << "x" << cols
            << " reset " << bhtResetPolicyName(o.bhtResetPolicy);
    };
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        const unsigned rows = kind == SchemeKind::AddressIndexed ? 0 : 6;
        const unsigned cols = kind == SchemeKind::GAg ? 0 : 4;
        expect_match(kind, rows, cols, {});
    }
    // A small BHT misses often, so each reset pattern reaches the rows.
    SweepOptions o;
    o.bhtEntries = 64;
    o.bhtAssoc = 2;
    for (BhtResetPolicy policy :
         {BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Zeros,
          BhtResetPolicy::Ones, BhtResetPolicy::Hold}) {
        o.bhtResetPolicy = policy;
        expect_match(SchemeKind::PAsFinite, 6, 4, o);
        expect_match(SchemeKind::PAsFinite, 11, 1, o);
    }
}

TEST(Interference, VanishesForPrivateEnoughTables)
{
    // With a huge address-indexed table nearly every branch has its own
    // counter, so sharing changes (almost) nothing.
    InterferenceResult r = analyzeInterference(
        workload(), SchemeKind::AddressIndexed, 0, 16);
    EXPECT_LT(r.destructiveRate(), 0.002);
    EXPECT_LT(r.constructiveRate(), 0.002);
}

TEST(Interference, SmallSharedTablesAreNetDestructive)
{
    // A 16-counter GAg shares wildly: the net damage must be clearly
    // positive and the private reference clearly better.
    InterferenceResult r =
        analyzeInterference(workload(), SchemeKind::GAg, 4, 0);
    EXPECT_GT(r.destructiveRate(), r.constructiveRate());
    EXPECT_GT(r.netDamage(), 0.01);
    EXPECT_LT(r.privateMispRate(), r.sharedMispRate());
}

TEST(Interference, DamageShrinksWithTableSize)
{
    InterferenceResult small =
        analyzeInterference(workload(), SchemeKind::Gshare, 6, 0);
    InterferenceResult big =
        analyzeInterference(workload(), SchemeKind::Gshare, 12, 0);
    EXPECT_LT(big.netDamage(), small.netDamage() + 1e-9);
}

TEST(Interference, ConstructiveInterferenceExists)
{
    // The paper's point that not all aliasing is destructive: on a real
    // workload some sharing helps (branches training each other's
    // counters toward the common direction).
    InterferenceResult r =
        analyzeInterference(workload(), SchemeKind::GAs, 5, 3);
    EXPECT_GT(r.constructive, 0u);
}

TEST(Interference, WorksForEveryScheme)
{
    SweepOptions o;
    o.bhtEntries = 64;
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        unsigned rows = kind == SchemeKind::AddressIndexed ? 0 : 6;
        unsigned cols = kind == SchemeKind::GAg ? 0 : 3;
        InterferenceResult r =
            analyzeInterference(workload(), kind, rows, cols, o);
        EXPECT_EQ(r.instances, workload().size())
            << schemeKindName(kind);
        EXPECT_EQ(r.sharedMispredicts, r.privateMispredicts +
                                           r.destructive -
                                           r.constructive)
            << schemeKindName(kind);
    }
}
