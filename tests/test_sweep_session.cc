/**
 * @file
 * Tests for the SweepSession facade: cached results are bit-identical
 * to recomputed ones (the differential contract that makes the result
 * cache safe to use at all), disk-warm sessions serve without replay,
 * bestConfigs matches direct per-scheme sweeps, and the cache
 * key discipline separates what must be separated -- and nothing else.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <utility>

#include "sim/experiment.hh"
#include "sim/sweep_session.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

constexpr const char *kProfile = "espresso";
constexpr std::uint64_t kBranches = 20000;

SweepOptions
smallSweep()
{
    SweepOptions opts;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 8;
    opts.trackAliasing = true;
    return opts;
}

void
expectSurfaceIdentical(const Surface &a, const Surface &b)
{
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.tiers().size(), b.tiers().size());
    for (std::size_t t = 0; t < a.tiers().size(); ++t) {
        const SurfaceTier &ta = a.tiers()[t];
        const SurfaceTier &tb = b.tiers()[t];
        EXPECT_EQ(ta.totalBits, tb.totalBits);
        ASSERT_EQ(ta.points.size(), tb.points.size());
        for (std::size_t p = 0; p < ta.points.size(); ++p) {
            EXPECT_EQ(ta.points[p].rowBits, tb.points[p].rowBits);
            EXPECT_EQ(ta.points[p].colBits, tb.points[p].colBits);
            EXPECT_EQ(std::memcmp(&ta.points[p].value,
                                  &tb.points[p].value,
                                  sizeof(double)),
                      0)
                << a.name() << " tier " << ta.totalBits << " point "
                << p;
        }
    }
}

void
expectResultIdentical(const SweepResult &a, const SweepResult &b)
{
    expectSurfaceIdentical(a.misprediction, b.misprediction);
    expectSurfaceIdentical(a.aliasing, b.aliasing);
    expectSurfaceIdentical(a.harmless, b.harmless);
    EXPECT_EQ(
        std::memcmp(&a.bhtMissRate, &b.bhtMissRate, sizeof(double)),
        0);
}

/** Converts to any member type, so it can stand for any field. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

/** How many members the aggregate @p T brace-initialises from. */
template <typename T, typename... Fields>
constexpr std::size_t
aggregateFieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return aggregateFieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

std::string
tempCacheDir(const char *leaf)
{
    std::string dir = ::testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(SweepSession, SweepMatchesDirectSweepScheme)
{
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    auto resp = session.sweep(SweepRequest{
        handle.value().hash, SchemeKind::Gshare, smallSweep()});
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp.value().cacheHit);

    PreparedTrace direct(
        generateProfileTrace(kProfile, kBranches));
    SweepResult expected =
        sweepScheme(direct, SchemeKind::Gshare, smallSweep());
    expectResultIdentical(resp.value().result, expected);
}

TEST(SweepSession, CacheHitIsBitIdenticalToBypass)
{
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    const SweepRequest request{handle.value().hash,
                               SchemeKind::PAsFinite, smallSweep()};

    auto cold = session.sweep(request);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.value().cacheHit);

    auto warm = session.sweep(request);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.value().cacheHit);
    EXPECT_FALSE(warm.value().diskHit);

    SweepRequest bypass = request;
    bypass.bypassCache = true;
    auto recomputed = session.sweep(bypass);
    ASSERT_TRUE(recomputed.ok());
    EXPECT_FALSE(recomputed.value().cacheHit);

    // The differential contract: hit == recompute, bit for bit.
    expectResultIdentical(warm.value().result,
                          recomputed.value().result);
    expectResultIdentical(cold.value().result,
                          warm.value().result);
    // A hit reports no kernel execution.
    EXPECT_EQ(warm.value().result.kernel.fusedGroups, 0u);
    EXPECT_EQ(warm.value().result.kernel.modelGroups, 0u);
}

TEST(SweepSession, DiskWarmSessionServesWithoutTracePreparation)
{
    const std::string dir = tempCacheDir("bpsim_session_disk");
    const SweepOptions opts = smallSweep();
    SweepResult expected("", "");
    TraceHash key;
    {
        SweepSession cold(dir);
        auto handle = cold.internProfile(kProfile, kBranches);
        ASSERT_TRUE(handle.ok());
        key = handle.value().hash;
        auto resp = cold.sweep(
            SweepRequest{key, SchemeKind::GAs, opts});
        ASSERT_TRUE(resp.ok());
        expected = resp.value().result;
    }

    // New process simulation: nothing interned, same cache dir.  The
    // sweep must be served purely from disk -- no trace generation,
    // no preparation (an unknown trace key would otherwise error).
    SweepSession warm(dir);
    auto resp =
        warm.sweep(SweepRequest{key, SchemeKind::GAs, opts});
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp.value().cacheHit);
    EXPECT_TRUE(resp.value().diskHit);
    expectResultIdentical(resp.value().result, expected);
    EXPECT_EQ(warm.registry().size(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(SweepSession, UnknownTraceKeyIsAnError)
{
    SweepSession session;
    auto resp = session.sweep(
        SweepRequest{TraceHash{1, 2}, SchemeKind::GAs, smallSweep()});
    ASSERT_FALSE(resp.ok());
    EXPECT_NE(resp.error().message().find("not interned"),
              std::string::npos);
    EXPECT_FALSE(
        session.point(TraceHash{1, 2}, SchemeKind::GAs, 2, 2).ok());
    EXPECT_FALSE(session.bestConfigs(TraceHash{1, 2}).ok());
}

TEST(SweepSession, ConfigKeyExcludesExecutionKnobs)
{
    SweepOptions a = smallSweep();
    SweepOptions b = smallSweep();
    b.threads = 8;
    // The execution knob is bit-identical: same key, cache may serve.
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, b));

    // Result-affecting knobs split the key.
    SweepOptions c = smallSweep();
    c.maxTotalBits = 9;
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, c));
    SweepOptions d = smallSweep();
    d.trackAliasing = false;
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, d));

    // Per-scheme parameters only key the schemes that read them: a
    // BHT knob must not split a gshare key, but must split PAs(BHT).
    SweepOptions e = smallSweep();
    e.bhtEntries = 128;
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, e));
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::PAsFinite, a),
              SweepSession::cacheConfigKey(SchemeKind::PAsFinite, e));
    SweepOptions f = smallSweep();
    f.pathBitsPerTarget = 4;
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::GAs, a),
              SweepSession::cacheConfigKey(SchemeKind::GAs, f));
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::Path, a),
              SweepSession::cacheConfigKey(SchemeKind::Path, f));
}

TEST(SweepSession, ExactCacheKeysArePinned)
{
    // The literal default-option config key of every scheme.  Each
    // feeds the digest that names a .bpc file and is stored in its
    // body, so a change here orphans every entry an earlier build
    // wrote: it must come with a kEngineVersion bump, never by
    // accident.
    const std::pair<SchemeKind, const char *> pinned[] = {
        {SchemeKind::AddressIndexed, "alias=1;max=15;min=4"},
        {SchemeKind::GAg, "alias=1;max=15;min=4"},
        {SchemeKind::GAs, "alias=1;max=15;min=4"},
        {SchemeKind::Gshare, "alias=1;max=15;min=4"},
        {SchemeKind::Path, "alias=1;max=15;min=4;pathbits=2"},
        {SchemeKind::PAsPerfect, "alias=1;max=15;min=4"},
        {SchemeKind::PAsFinite,
         "alias=1;assoc=4;bht=1024;max=15;min=4;reset=0"},
        {SchemeKind::Tage,
         "alias=1;histories=4,8,16,32;max=15;min=4;tagbits=8"},
        {SchemeKind::Perceptron, "alias=1;max=15;min=4;ptables=4"},
    };
    for (const auto &[kind, key] : pinned)
        EXPECT_EQ(SweepSession::cacheConfigKey(kind, SweepOptions{}), key)
            << schemeKindName(kind);
}

TEST(SweepSession, PointMatchesSimulateConfig)
{
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    auto point = session.point(handle.value().hash,
                               SchemeKind::Gshare, 3, 3);
    ASSERT_TRUE(point.ok());

    PreparedTrace direct(
        generateProfileTrace(kProfile, kBranches));
    ConfigResult expected =
        simulateConfig(direct, SchemeKind::Gshare, 3, 3);
    EXPECT_EQ(point.value().mispRate, expected.mispRate);
    EXPECT_EQ(point.value().aliasRate, expected.aliasRate);
    EXPECT_EQ(point.value().harmlessFraction,
              expected.harmlessFraction);
}

TEST(SweepSession, BestConfigsMatchesBestConfigTable)
{
    Table3Options opts;
    opts.budgetBits = {6, 8};
    opts.bhtSizes = {256};

    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    auto rows = session.bestConfigs(handle.value().hash, opts);
    ASSERT_TRUE(rows.ok());

    // Independent reference: each Table 3 sweep run directly.
    PreparedTrace direct(
        generateProfileTrace(kProfile, kBranches));
    std::vector<BestConfigRow> expected;
    for (const Table3SchemeSpec &spec : table3Plan(opts))
        expected.push_back(bestConfigRowFromSweep(
            spec, sweepScheme(direct, spec.kind, spec.options),
            opts.budgetBits));

    ASSERT_EQ(rows.value().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const BestConfigRow &got = rows.value()[i];
        const BestConfigRow &want = expected[i];
        EXPECT_EQ(got.scheme, want.scheme);
        EXPECT_EQ(got.bhtMissRate, want.bhtMissRate);
        ASSERT_EQ(got.best.size(), want.best.size());
        for (std::size_t b = 0; b < want.best.size(); ++b) {
            ASSERT_EQ(got.best[b].has_value(),
                      want.best[b].has_value());
            if (!want.best[b])
                continue;
            EXPECT_EQ(got.best[b]->rowBits, want.best[b]->rowBits);
            EXPECT_EQ(got.best[b]->colBits, want.best[b]->colBits);
            EXPECT_EQ(got.best[b]->mispRate,
                      want.best[b]->mispRate);
        }
    }

    // Second call: every underlying scheme sweep is a cache hit.
    auto before = session.cache().stats();
    auto again = session.bestConfigs(handle.value().hash, opts);
    ASSERT_TRUE(again.ok());
    auto after = session.cache().stats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GE(after.memoryHits, before.memoryHits + 4);
}

TEST(SweepSession, RegistrySharesOneTraceAcrossRequests)
{
    SweepSession session;
    auto a = session.internProfile(kProfile, kBranches);
    auto b = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().trace.get(), b.value().trace.get());
    EXPECT_EQ(session.registry().size(), 1u);

    // point() and sweep() share one PreparedTrace.
    ASSERT_TRUE(session
                    .point(a.value().hash, SchemeKind::Gshare, 2, 2)
                    .ok());
    auto prep1 = session.prepared(a.value().hash);
    auto prep2 = session.prepared(b.value().hash);
    ASSERT_TRUE(prep1.ok());
    ASSERT_TRUE(prep2.ok());
    EXPECT_EQ(prep1.value().get(), prep2.value().get());
}

TEST(SweepSession, StaleEngineVersionEntriesNeverServe)
{
    // Regression for the replay-semantics bumps: an entry stored under
    // an older engineVersion must never answer a current request, even
    // when trace, scheme and config key all match.  The case is a zoo
    // sweep (v2 -> v3 batched the zoo).
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    const SweepRequest request{handle.value().hash, SchemeKind::Tage,
                               smallSweep()};
    const char *scheme = schemeKindName(request.kind);
    CacheKey stale = SweepSession::cacheKey(request);
    ASSERT_EQ(stale.engineVersion, kEngineVersion);
    stale.engineVersion = kEngineVersion - 1;
    // Poison pill: a recognizably wrong payload under the stale
    // key.
    CachedSweep poison;
    poison.bhtMissRate = 0.75;
    poison.misprediction = Surface("poison");
    ASSERT_TRUE(session.cache().store(stale, poison).ok());

    auto resp = session.sweep(request);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp.value().cacheHit)
        << scheme << ": a stale-version entry served a current "
        << "request";
    EXPECT_NE(resp.value().result.misprediction.name(), "poison");

    // Sanity: the same request under the CURRENT key does hit.
    auto again = session.sweep(request);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.value().cacheHit) << scheme;
}

TEST(SweepSession, ZooConfigKeysCoverSchemeParameters)
{
    // TAGE keys must separate on tag width and history set -- and
    // nothing else about how the histories were spelled or ordered.
    SweepOptions a = smallSweep();
    a.tageHistories = {4, 8, 16, 32};
    SweepOptions b = smallSweep();
    b.tageHistories = {32, 16, 8, 4};
    SweepOptions c = smallSweep();
    c.tageHistories = {4, 8, 16, 48};
    const std::string ka =
        SweepSession::cacheConfigKey(SchemeKind::Tage, a);
    EXPECT_NE(ka.find("tagbits="), std::string::npos);
    EXPECT_NE(ka.find("histories="), std::string::npos);
    EXPECT_EQ(ka, SweepSession::cacheConfigKey(SchemeKind::Tage, b))
        << "history orderings must canonicalize identically";
    EXPECT_NE(ka, SweepSession::cacheConfigKey(SchemeKind::Tage, c));

    SweepOptions tag = smallSweep();
    tag.tageTagBits = 12;
    EXPECT_NE(ka, SweepSession::cacheConfigKey(SchemeKind::Tage, tag));

    // Perceptron keys separate on table count.
    SweepOptions p1 = smallSweep();
    SweepOptions p2 = smallSweep();
    p2.perceptronTables = 8;
    const std::string kp =
        SweepSession::cacheConfigKey(SchemeKind::Perceptron, p1);
    EXPECT_NE(kp.find("ptables="), std::string::npos);
    EXPECT_NE(kp,
              SweepSession::cacheConfigKey(SchemeKind::Perceptron, p2));

    // Classic schemes ignore the zoo knobs: no false key splits.
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, tag));
}

TEST(SweepSession, PointRejectsDegenerateZooGeometry)
{
    // A daemon must answer a bad point request with an error, not an
    // assert: the zoo schemes require non-degenerate axes.
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    const TraceHash trace = handle.value().hash;
    EXPECT_FALSE(session.point(trace, SchemeKind::Tage, 0, 5).ok());
    EXPECT_FALSE(session.point(trace, SchemeKind::Tage, 5, 0).ok());
    EXPECT_FALSE(session.point(trace, SchemeKind::Tage, 29, 5).ok());
    EXPECT_FALSE(
        session.point(trace, SchemeKind::Perceptron, 0, 5).ok());
    EXPECT_FALSE(
        session.point(trace, SchemeKind::Perceptron, 65, 5).ok());
    EXPECT_TRUE(
        session.point(trace, SchemeKind::Tage, 5, 5).ok());
    EXPECT_TRUE(
        session.point(trace, SchemeKind::Perceptron, 8, 5).ok());
}

TEST(SweepSession, TablesAboveTheEngineCeilingAreErrors)
{
    // A 16-lane 2-bit batch past 2^26 counters per lane overflows the
    // engine's slot arena: sweep, batched sweep and point answer with
    // a structured error instead of replaying into an abort.
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    const TraceHash trace = handle.value().hash;
    const unsigned over = SweepOptions::kMaxTotalBits + 1;

    SweepOptions big;
    big.minTotalBits = over;
    big.maxTotalBits = over;
    big.trackAliasing = false;
    for (bool bypass : {false, true}) {
        Result<SweepResponse> r =
            session.sweep(SweepRequest{trace, SchemeKind::GAs, big, bypass});
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.error().message().find("engine ceiling"),
                  std::string::npos)
            << r.error().message();
    }

    SweepOptions small;
    small.minTotalBits = 4;
    small.maxTotalBits = 5;
    const std::vector<Result<SweepResponse>> batch = session.sweepBatch(
        {SweepRequest{trace, SchemeKind::Gshare, small},
         SweepRequest{trace, SchemeKind::Gshare, big}});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0].ok());
    EXPECT_FALSE(batch[1].ok());

    EXPECT_FALSE(
        session.point(trace, SchemeKind::GAs, over - 1, 1).ok());
    EXPECT_FALSE(session.point(trace, SchemeKind::Gshare, 0, over).ok());
    // A zoo point has only floors of its own: the ceiling caps it.
    Result<ConfigResult> tage =
        session.point(trace, SchemeKind::Tage, 25, 2);
    ASSERT_FALSE(tage.ok());
    EXPECT_NE(tage.error().message().find("engine ceiling"),
              std::string::npos)
        << tage.error().message();
    EXPECT_TRUE(session.point(trace, SchemeKind::GAs, 4, 4).ok());
}

TEST(SweepSession, InvalidOptionsAreErrorsNotAborts)
{
    // Options outside a field's range, or valid field by field but not
    // together, would abort in the planner, the trace, the BHT or a
    // zoo model; sweep, batched sweep and point answer them with a
    // Status before any replay.  One case per range the protocol
    // checks, each at the first value past an end of the range.
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    const TraceHash trace = handle.value().hash;

    SweepOptions reversed = smallSweep();
    reversed.minTotalBits = 8;
    reversed.maxTotalBits = 6;
    SweepOptions odd_assoc = smallSweep();
    odd_assoc.bhtAssoc = 3;
    SweepOptions wide_assoc = smallSweep();
    wide_assoc.bhtEntries = 2;
    wide_assoc.bhtAssoc = 4;
    SweepOptions odd_entries = smallSweep();
    odd_entries.bhtEntries = 100;
    const auto with = [](void (*change)(SweepOptions &)) {
        SweepOptions o = smallSweep();
        change(o);
        return o;
    };
    struct Case
    {
        SweepOptions opts;
        SchemeKind kind; ///< the scheme the bad field feeds
        const char *message;
    };
    const SchemeKind bht = SchemeKind::PAsFinite;
    const Case cases[] = {
        {reversed, bht, "exceeds max_bits"},
        {odd_assoc, bht, "must divide"},
        {wide_assoc, bht, "must divide"},
        {odd_entries, bht, "power of two"},
        {with([](SweepOptions &o) { o.pathBitsPerTarget = 0; }),
         SchemeKind::Path, "path_bits must be in [1, 16], got 0"},
        {with([](SweepOptions &o) { o.pathBitsPerTarget = 17; }),
         SchemeKind::Path, "path_bits must be in [1, 16], got 17"},
        {with([](SweepOptions &o) { o.bhtEntries = 1u << 25; }),
         bht, "bht_entries must be in [1, 16777216]"},
        {with([](SweepOptions &o) { o.bhtAssoc = 0; }),
         bht, "bht_assoc must be in [1, 64], got 0"},
        {with([](SweepOptions &o) {
             o.bhtEntries = 1024;
             o.bhtAssoc = 128;
         }),
         bht, "bht_assoc must be in [1, 64], got 128"},
        {with([](SweepOptions &o) { o.tageTagBits = 1; }),
         SchemeKind::Tage, "tage_tag_bits must be in [2, 16], got 1"},
        {with([](SweepOptions &o) { o.tageTagBits = 17; }),
         SchemeKind::Tage, "tage_tag_bits must be in [2, 16], got 17"},
        {with([](SweepOptions &o) { o.tageHistories = {}; }),
         SchemeKind::Tage,
         "tage_histories count must be in [1, 8], got 0"},
        {with([](SweepOptions &o) {
             o.tageHistories = {1, 2, 3, 4, 5, 6, 7, 8, 9};
         }),
         SchemeKind::Tage,
         "tage_histories count must be in [1, 8], got 9"},
        {with([](SweepOptions &o) { o.tageHistories = {0, 4}; }),
         SchemeKind::Tage, "tage_histories[] must be in [1, 64], got 0"},
        {with([](SweepOptions &o) { o.tageHistories = {4, 65}; }),
         SchemeKind::Tage,
         "tage_histories[] must be in [1, 64], got 65"},
        {with([](SweepOptions &o) { o.tageHistories = {8, 4}; }),
         SchemeKind::Tage, "strictly ascending"},
        {with([](SweepOptions &o) { o.tageHistories = {4, 4}; }),
         SchemeKind::Tage, "strictly ascending"},
        {with([](SweepOptions &o) { o.perceptronTables = 1; }),
         SchemeKind::Perceptron,
         "perceptron_tables must be in [2, 16], got 1"},
        {with([](SweepOptions &o) { o.perceptronTables = 17; }),
         SchemeKind::Perceptron,
         "perceptron_tables must be in [2, 16], got 17"},
    };
    for (const auto &[opts, kind, message] : cases) {
        EXPECT_FALSE(SweepSession::validateOptions(opts).ok()) << message;
        Result<SweepResponse> r =
            session.sweep(SweepRequest{trace, kind, opts});
        ASSERT_FALSE(r.ok()) << message;
        EXPECT_NE(r.error().message().find(message), std::string::npos)
            << r.error().message();
        const std::vector<Result<SweepResponse>> batch =
            session.sweepBatch(
                {SweepRequest{trace, kind, opts},
                 SweepRequest{trace, kind, smallSweep()}});
        ASSERT_EQ(batch.size(), 2u);
        EXPECT_FALSE(batch[0].ok()) << message;
        EXPECT_TRUE(batch[1].ok()) << message;
        EXPECT_FALSE(session.point(trace, kind, 3, 3, opts).ok())
            << message;
    }
    EXPECT_TRUE(SweepSession::validateOptions(smallSweep()).ok());
}

TEST(SweepSession, EveryOptionIsClassified)
{
    // Every SweepOptions field is either result-affecting -- changing
    // it changes cacheConfigKey for some scheme -- or execution-only
    // -- changing it leaves the key and every surface bit-identical.
    // A field added to SweepOptions but to neither list fails the
    // static_assert below.
    struct Field
    {
        const char *name;
        void (*change)(SweepOptions &);
    };
    const Field result_affecting[] = {
        {"minTotalBits", [](SweepOptions &o) { o.minTotalBits = 5; }},
        {"maxTotalBits", [](SweepOptions &o) { o.maxTotalBits = 7; }},
        {"trackAliasing",
         [](SweepOptions &o) { o.trackAliasing = false; }},
        {"pathBitsPerTarget",
         [](SweepOptions &o) { o.pathBitsPerTarget = 3; }},
        {"bhtEntries", [](SweepOptions &o) { o.bhtEntries = 256; }},
        {"bhtAssoc", [](SweepOptions &o) { o.bhtAssoc = 2; }},
        {"bhtResetPolicy",
         [](SweepOptions &o) { o.bhtResetPolicy = BhtResetPolicy::Zeros; }},
        {"tageTagBits", [](SweepOptions &o) { o.tageTagBits = 10; }},
        {"tageHistories",
         [](SweepOptions &o) { o.tageHistories = {3, 9, 27}; }},
        {"perceptronTables",
         [](SweepOptions &o) { o.perceptronTables = 3; }},
    };
    const Field execution_only[] = {
        {"threads", [](SweepOptions &o) { o.threads = 4; }},
    };
    static_assert(aggregateFieldCount<SweepOptions>() ==
                      sizeof(result_affecting) / sizeof(Field) +
                          sizeof(execution_only) / sizeof(Field),
                  "classify every SweepOptions field as result-affecting "
                  "or execution-only");

    const SchemeKind kinds[] = {
        SchemeKind::AddressIndexed, SchemeKind::GAg,
        SchemeKind::GAs,            SchemeKind::Gshare,
        SchemeKind::Path,           SchemeKind::PAsPerfect,
        SchemeKind::PAsFinite,      SchemeKind::Tage,
        SchemeKind::Perceptron,
    };
    const SweepOptions defaults = smallSweep();
    for (const Field &field : result_affecting) {
        SweepOptions changed = defaults;
        field.change(changed);
        bool splits = false;
        for (SchemeKind kind : kinds)
            splits |= SweepSession::cacheConfigKey(kind, defaults) !=
                      SweepSession::cacheConfigKey(kind, changed);
        EXPECT_TRUE(splits) << field.name
                            << " is result-affecting but no cache key "
                               "sees it";
    }

    PreparedTrace trace(generateProfileTrace(kProfile, kBranches));
    SweepOptions untracked = smallSweep();
    untracked.trackAliasing = false;
    for (const SweepOptions &base : {smallSweep(), untracked}) {
        for (SchemeKind kind :
             {SchemeKind::GAs, SchemeKind::PAsFinite, SchemeKind::Tage}) {
            const SweepResult expected = sweepScheme(trace, kind, base);
            for (const Field &field : execution_only) {
                SCOPED_TRACE(std::string(field.name) + " " +
                             schemeKindName(kind));
                SweepOptions changed = base;
                field.change(changed);
                EXPECT_EQ(SweepSession::cacheConfigKey(kind, base),
                          SweepSession::cacheConfigKey(kind, changed));
                expectResultIdentical(sweepScheme(trace, kind, changed),
                                      expected);
            }
        }
    }
}
