/**
 * @file
 * In-process tests of the sweep daemon: every protocol verb through
 * SweepServer::handleLine, the central bit-identity contract (a sweep
 * served over the wire decodes to exactly the surfaces a direct
 * SweepSession computes), error classification, and the exact
 * scheme and workload names the catalog lists.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "common/simd.hh"
#include "service/server.hh"
#include "sim/sweep_session.hh"
#include "trace/trace_io.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace {

constexpr const char *kProfile = "compress";
constexpr std::uint64_t kBranches = 20000;

SweepOptions
smallSweep()
{
    SweepOptions opts;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 7;
    return opts;
}

JsonValue
handle(SweepServer &server, const std::string &line)
{
    Result<JsonValue> parsed = parseJson(server.handleLine(line));
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

bool
isOk(const JsonValue &response)
{
    const JsonValue *ok = response.find("ok");
    return ok && ok->isBool() && ok->asBool();
}

std::string
errorCode(const JsonValue &response)
{
    const JsonValue *error = response.find("error");
    if (!error)
        return "";
    const JsonValue *code = error->find("code");
    return code && code->isString() ? code->asString() : "";
}

/** Decode a wire surface and compare bit-exactly against @p expect. */
void
expectWireSurfaceIdentical(const JsonValue &wire,
                           const Surface &expect)
{
    ASSERT_TRUE(wire.isArray());
    ASSERT_EQ(wire.array().size(), expect.tiers().size());
    for (std::size_t t = 0; t < expect.tiers().size(); ++t) {
        const SurfaceTier &tier = expect.tiers()[t];
        const JsonValue &wt = wire.array()[t];
        EXPECT_EQ(wt.find("total_bits")->asInt(),
                  static_cast<std::int64_t>(tier.totalBits));
        const JsonValue *points = wt.find("points");
        ASSERT_TRUE(points && points->isArray());
        ASSERT_EQ(points->array().size(), tier.points.size());
        for (std::size_t p = 0; p < tier.points.size(); ++p) {
            const JsonValue &wp = points->array()[p];
            EXPECT_EQ(wp.find("row_bits")->asInt(),
                      static_cast<std::int64_t>(
                          tier.points[p].rowBits));
            EXPECT_EQ(wp.find("col_bits")->asInt(),
                      static_cast<std::int64_t>(
                          tier.points[p].colBits));
            const double wire_value =
                wp.find("value")->asDouble();
            EXPECT_EQ(std::memcmp(&wire_value,
                                  &tier.points[p].value,
                                  sizeof(double)),
                      0)
                << expect.name() << " tier " << tier.totalBits
                << " point " << p;
        }
    }
}

std::string
sweepLine(const std::string &scheme, unsigned min_bits,
          unsigned max_bits)
{
    return std::string("{\"op\":\"sweep\",\"id\":\"s\",\"trace\":"
                       "{\"profile\":\"") +
           kProfile + "\",\"branches\":" +
           std::to_string(kBranches) + "},\"scheme\":\"" + scheme +
           "\",\"options\":{\"min_bits\":" +
           std::to_string(min_bits) +
           ",\"max_bits\":" + std::to_string(max_bits) + "}}";
}

TEST(Service, PingEchoesId)
{
    SweepServer server;
    JsonValue response =
        handle(server, "{\"op\":\"ping\",\"id\":\"hello\"}");
    EXPECT_TRUE(isOk(response));
    EXPECT_EQ(response.find("id")->asString(), "hello");
    EXPECT_EQ(response.find("op")->asString(), "ping");
}

TEST(Service, SweepMatchesDirectSessionBitForBit)
{
    SweepServer server;
    JsonValue response = handle(server, sweepLine("gshare", 4, 7));
    ASSERT_TRUE(isOk(response)) << server.handleLine(sweepLine(
        "gshare", 4, 7));

    // The reference: a direct in-process session with same options.
    SweepSession session;
    TraceHandle trace = session.internProfile(kProfile, kBranches)
                            .value();
    SweepResponse direct =
        session
            .sweep(SweepRequest{trace.hash, SchemeKind::Gshare,
                                smallSweep()})
            .value();

    EXPECT_EQ(response.find("trace")->asString(), trace.hash.hex());
    EXPECT_EQ(response.find("scheme")->asString(), "gshare");
    const JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    expectWireSurfaceIdentical(*result->find("misprediction"),
                               direct.result.misprediction);
    expectWireSurfaceIdentical(*result->find("aliasing"),
                               direct.result.aliasing);
    expectWireSurfaceIdentical(*result->find("harmless"),
                               direct.result.harmless);
    const double wire_miss =
        result->find("bht_miss_rate")->asDouble();
    EXPECT_EQ(std::memcmp(&wire_miss, &direct.result.bhtMissRate,
                          sizeof(double)),
              0);
}

TEST(Service, RepeatedSweepHitsTheCache)
{
    SweepServer server;
    JsonValue first = handle(server, sweepLine("GAs", 4, 6));
    ASSERT_TRUE(isOk(first));
    EXPECT_FALSE(first.find("cache_hit")->asBool());
    JsonValue second = handle(server, sweepLine("GAs", 4, 6));
    ASSERT_TRUE(isOk(second));
    EXPECT_TRUE(second.find("cache_hit")->asBool());
    ASSERT_TRUE(first.find("result"));
    ASSERT_TRUE(second.find("result"));
    // Cached responses are byte-identical on the wire too.
    EXPECT_EQ(first.find("result")->render(),
              second.find("result")->render());
}

TEST(Service, InternThenSweepByHash)
{
    SweepServer server;
    JsonValue interned = handle(
        server, std::string("{\"op\":\"intern\",\"trace\":"
                            "{\"profile\":\"") +
                    kProfile + "\",\"branches\":" +
                    std::to_string(kBranches) + "}}");
    ASSERT_TRUE(isOk(interned));
    const std::string hash = interned.find("trace")->asString();
    EXPECT_GT(interned.find("records")->asInt(), 0);

    JsonValue swept = handle(
        server,
        "{\"op\":\"sweep\",\"trace\":{\"hash\":\"" + hash +
            "\"},\"scheme\":\"GAg\",\"options\":{\"min_bits\":4,"
            "\"max_bits\":6}}");
    EXPECT_TRUE(isOk(swept));
    EXPECT_EQ(swept.find("trace")->asString(), hash);
}

TEST(Service, SweepByFileAndPoint)
{
    const std::string path =
        ::testing::TempDir() + "service_trace.bpt";
    MemoryTrace trace =
        generateTrace(profileParams(kProfile, kBranches));
    ASSERT_TRUE(saveTrace(trace, path).ok());

    SweepServer server;
    JsonValue swept = handle(
        server, "{\"op\":\"sweep\",\"trace\":{\"file\":\"" + path +
                    "\"},\"scheme\":\"addr\",\"options\":"
                    "{\"min_bits\":4,\"max_bits\":6,"
                    "\"aliasing\":false}}");
    EXPECT_TRUE(isOk(swept));

    JsonValue point = handle(
        server, "{\"op\":\"point\",\"trace\":{\"file\":\"" + path +
                    "\"},\"scheme\":\"GAs\",\"row_bits\":3,"
                    "\"col_bits\":3}");
    ASSERT_TRUE(isOk(point));
    EXPECT_GE(point.find("misp_rate")->asDouble(), 0.0);
    EXPECT_LE(point.find("misp_rate")->asDouble(), 1.0);

    std::filesystem::remove(path);
}

TEST(Service, PointMatchesDirectSimulateConfig)
{
    SweepServer server;
    JsonValue point = handle(
        server, std::string("{\"op\":\"point\",\"trace\":"
                            "{\"profile\":\"") +
                    kProfile + "\",\"branches\":" +
                    std::to_string(kBranches) +
                    "},\"scheme\":\"gshare\",\"row_bits\":4,"
                    "\"col_bits\":3}");
    ASSERT_TRUE(isOk(point));

    SweepSession session;
    TraceHandle trace =
        session.internProfile(kProfile, kBranches).value();
    ConfigResult direct =
        session.point(trace.hash, SchemeKind::Gshare, 4, 3).value();
    const double wire = point.find("misp_rate")->asDouble();
    EXPECT_EQ(std::memcmp(&wire, &direct.mispRate, sizeof(double)),
              0);
}

TEST(Service, ErrorClassification)
{
    SweepServer server;
    EXPECT_EQ(errorCode(handle(server, "not json at all")),
              "bad_json");
    EXPECT_EQ(errorCode(handle(server, "{\"op\":\"warp\"}")),
              "bad_request");
    EXPECT_EQ(errorCode(handle(
                  server,
                  "{\"op\":\"sweep\",\"trace\":{\"profile\":"
                  "\"compress\",\"branches\":20000},\"scheme\":"
                  "\"yags\"}")),
              "unknown_scheme");
    JsonValue no_profile = handle(
        server, "{\"op\":\"sweep\",\"trace\":{\"profile\":"
                "\"no_such_profile\"},\"scheme\":\"GAs\"}");
    EXPECT_EQ(errorCode(no_profile), "unknown_profile");
    // The message names the valid profiles.
    EXPECT_NE(no_profile.find("error")->find("message")->asString().find(
                  "real_gcc"),
              std::string::npos);
    EXPECT_EQ(
        errorCode(handle(
            server,
            "{\"op\":\"sweep\",\"trace\":{\"hash\":"
            "\"0000000000000001000000000000beef\"},\"scheme\":"
            "\"GAs\",\"options\":{\"min_bits\":4,\"max_bits\":5}}")),
        "failed");
    EXPECT_EQ(errorCode(handle(
                  server,
                  std::string(server.options().limits.maxLineBytes +
                                  1,
                              ' '))),
              "oversized_line");
    // Options invalid only together, and the retired lane-shard key,
    // are bad requests -- never an abort.
    for (const char *options :
         {"{\"bht_assoc\":3}", "{\"bht_entries\":2,\"bht_assoc\":4}",
          "{\"fused_" "threads\":8}"}) {
        EXPECT_EQ(errorCode(handle(
                      server,
                      std::string("{\"op\":\"sweep\",\"trace\":{"
                                  "\"profile\":\"compress\",\"branches\":"
                                  "20000},\"scheme\":\"PAs(bht)\","
                                  "\"options\":") +
                          options + "}")),
                  "bad_request")
            << options;
    }

    // The id is echoed even on malformed requests, and the server
    // keeps serving after every error.
    JsonValue err =
        handle(server, "{\"op\":\"nope\",\"id\":\"keepme\"}");
    EXPECT_EQ(err.find("id")->asString(), "keepme");
    EXPECT_TRUE(
        isOk(handle(server, "{\"op\":\"ping\",\"id\":\"alive\"}")));
}

TEST(Service, StatsAndCatalogReportState)
{
    SweepServer server;
    handle(server, sweepLine("gshare", 4, 5));
    handle(server, sweepLine("gshare", 4, 5));
    // A fused replay (aliasing off) so the kernel telemetry below has
    // an envelope execution to describe.
    handle(server,
           std::string("{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
               kProfile + "\",\"branches\":" +
               std::to_string(kBranches) +
               "},\"scheme\":\"gshare\",\"options\":{\"min_bits\":4,"
               "\"max_bits\":5,\"aliasing\":false}}");
    handle(server, "definitely not json");

    JsonValue stats = handle(server, "{\"op\":\"stats\"}");
    ASSERT_TRUE(isOk(stats));
    EXPECT_GE(stats.find("requests")->asInt(), 4);
    EXPECT_GE(stats.find("errors")->asInt(), 1);
    const JsonValue *queue = stats.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_GE(queue->find("submissions")->asInt(), 2);
    EXPECT_GE(queue->find("cache_hits")->asInt(), 1);
    EXPECT_EQ(stats.find("traces_interned")->asInt(), 1);

    // Kernel telemetry from the envelope replay the first sweep ran
    // (the repeat was a cache hit and contributes nothing).
    const JsonValue *kernel = stats.find("kernel");
    ASSERT_NE(kernel, nullptr);
    EXPECT_FALSE(kernel->find("target")->asString().empty());
    EXPECT_GE(kernel->find("fused_groups")->asInt(), 1);
    EXPECT_GE(kernel->find("lanes")->asInt(), 1);
    // Every group replays exactly once: no speculative-segment shape.
    for (const char *retired : {"segments", "segments_per_group",
                                "warmup_branches", "worker_utilization"})
        EXPECT_EQ(kernel->find(retired), nullptr) << retired;

    JsonValue catalog = handle(server, "{\"op\":\"catalog\"}");
    ASSERT_TRUE(isOk(catalog));
    const JsonValue *schemes = catalog.find("schemes");
    const JsonValue *workloads = catalog.find("workloads");
    ASSERT_TRUE(schemes && schemes->isArray());
    ASSERT_TRUE(workloads && workloads->isArray());
    auto names = [](const JsonValue &array) {
        std::vector<std::string> out;
        for (const JsonValue &name : array.array())
            out.push_back(name.asString());
        return out;
    };
    EXPECT_EQ(names(*schemes),
              (std::vector<std::string>{
                  "GAg", "GAs", "PAs(bht)", "PAs(inf)", "addr", "gag",
                  "gas", "gshare", "pas", "pas(bht)", "pas(inf)",
                  "pas_bht", "path", "perceptron", "tage"}));
    EXPECT_EQ(names(*workloads),
              (std::vector<std::string>{
                  "compress", "eqntott", "espresso", "gcc", "groff",
                  "gs", "mpeg_play", "nroff", "real_gcc", "sc", "sdet",
                  "verilog", "video_play", "xlisp"}));
}

TEST(Service, ShutdownSetsTheFlag)
{
    SweepServer server;
    EXPECT_FALSE(server.shutdownRequested());
    JsonValue response =
        handle(server, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
    EXPECT_TRUE(isOk(response));
    EXPECT_TRUE(server.shutdownRequested());
}

TEST(Service, BatchQueueCountsSubmissions)
{
    SweepServer server;
    SweepSession session;
    TraceHandle trace =
        session.internProfile(kProfile, kBranches).value();
    // Same trace interned through the server's own session.
    handle(server, sweepLine("gshare", 4, 5));

    Result<SweepResponse> direct = server.submitSweep(SweepRequest{
        session.internProfile(kProfile, kBranches).value().hash,
        SchemeKind::Gshare, smallSweep()});
    ASSERT_TRUE(direct.ok());
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.queue.submissions, 2u);
    EXPECT_GE(stats.queue.drains, 2u);
    static_cast<void>(trace);
}

TEST(Service, ZooSchemesServeWithStructuredOptions)
{
    SweepServer server;

    // Both zoo schemes are first-class catalog citizens.
    JsonValue catalog = handle(server, "{\"op\":\"catalog\"}");
    ASSERT_TRUE(isOk(catalog));
    bool has_tage = false;
    bool has_perceptron = false;
    for (const JsonValue &name : catalog.find("schemes")->array()) {
        has_tage = has_tage || name.asString() == "tage";
        has_perceptron =
            has_perceptron || name.asString() == "perceptron";
    }
    EXPECT_TRUE(has_tage);
    EXPECT_TRUE(has_perceptron);

    // A TAGE sweep with the full option set matches a direct session
    // bit for bit.
    JsonValue resp = handle(
        server,
        std::string("{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
            kProfile + "\",\"branches\":" +
            std::to_string(kBranches) +
            "},\"scheme\":\"tage\",\"options\":{\"min_bits\":4,"
            "\"max_bits\":6,\"tage_tag_bits\":6,"
            "\"tage_histories\":[2,5,11]}}");
    ASSERT_TRUE(isOk(resp)) << errorCode(resp);
    EXPECT_EQ(resp.find("scheme")->asString(), "tage");

    SweepSession direct;
    TraceHandle trace =
        direct.internProfile(kProfile, kBranches).value();
    SweepOptions opts = smallSweep();
    opts.maxTotalBits = 6;
    opts.tageTagBits = 6;
    opts.tageHistories = {2, 5, 11};
    SweepResponse expect =
        direct.sweep(SweepRequest{trace.hash, SchemeKind::Tage, opts})
            .value();
    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    expectWireSurfaceIdentical(*result->find("misprediction"),
                               expect.result.misprediction);

    // Perceptron serves too, and a point probe round-trips.
    EXPECT_TRUE(isOk(handle(
        server,
        std::string("{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
            kProfile + "\",\"branches\":" +
            std::to_string(kBranches) +
            "},\"scheme\":\"perceptron\",\"options\":{\"min_bits\":4,"
            "\"max_bits\":6,\"perceptron_tables\":3}}")));
    EXPECT_TRUE(isOk(handle(
        server,
        std::string("{\"op\":\"point\",\"trace\":{\"profile\":\"") +
            kProfile + "\",\"branches\":" +
            std::to_string(kBranches) +
            "},\"scheme\":\"tage\",\"row_bits\":5,\"col_bits\":5}")));
}

TEST(Service, ZooOptionValidationRejectsBadGeometry)
{
    SweepServer server;
    auto sweep_with = [&](const std::string &options) {
        return errorCode(handle(
            server,
            std::string(
                "{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
                kProfile + "\",\"branches\":" +
                std::to_string(kBranches) +
                "},\"scheme\":\"tage\",\"options\":{\"min_bits\":4,"
                "\"max_bits\":6," +
                options + "}}"));
    };
    // tage_histories must be a non-empty, <= 8 entry, strictly
    // ascending array of 1..64 -- each violation is a structured
    // bad_request, never a crash.
    EXPECT_EQ(sweep_with("\"tage_histories\":7"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[]"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[8,4]"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[4,4]"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[4,8,65]"),
              "bad_request");
    EXPECT_EQ(sweep_with(
                  "\"tage_histories\":[1,2,3,4,5,6,7,8,9]"),
              "bad_request");
    EXPECT_EQ(sweep_with("\"tage_tag_bits\":1"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_tag_bits\":17"), "bad_request");
    EXPECT_EQ(sweep_with("\"perceptron_tables\":1"), "bad_request");

    // A degenerate zoo point is a structured error, not an assert.
    EXPECT_EQ(
        errorCode(handle(
            server,
            std::string(
                "{\"op\":\"point\",\"trace\":{\"profile\":\"") +
                kProfile + "\",\"branches\":" +
                std::to_string(kBranches) +
                "},\"scheme\":\"tage\",\"row_bits\":0,"
                "\"col_bits\":5}")),
        "failed");

    // The server keeps serving.
    EXPECT_TRUE(isOk(handle(server, "{\"op\":\"ping\"}")));
}

TEST(Service, SpecStringSchemeNamesGetAHint)
{
    // A client pasting a factory spec string ("tage:12:10:8:4,8,16,32")
    // into the scheme field gets unknown_scheme plus a pointer at the
    // structured options, for every spec-ish shape.
    SweepServer server;
    for (const char *name :
         {"tage:12:10", "tage:12:10:8:4,8,16,32", "perceptron:16:10",
          "tournament(gshare:8,GAs:4:4)", "4,8,16,32"}) {
        JsonValue resp = handle(
            server,
            std::string(
                "{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
                kProfile + "\",\"branches\":" +
                std::to_string(kBranches) + "},\"scheme\":\"" + name +
                "\",\"options\":{\"min_bits\":4,\"max_bits\":5}}");
        EXPECT_EQ(errorCode(resp), "unknown_scheme") << name;
        const JsonValue *error = resp.find("error");
        ASSERT_NE(error, nullptr) << name;
        const std::string message =
            error->find("message")->asString();
        EXPECT_NE(message.find("options"), std::string::npos)
            << "hint missing for " << name << ": " << message;
    }
}

TEST(Service, KernelTargetIsTheHostsBeforeAnySweep)
{
    // The dispatch target is host state, not telemetry: a daemon that
    // has replayed nothing yet (or only ever serves cache hits)
    // reports the kernel its host runs.
    SweepServer server;
    JsonValue stats = handle(server, "{\"op\":\"stats\"}");
    ASSERT_TRUE(isOk(stats));
    const JsonValue *kernel = stats.find("kernel");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->find("target")->asString(),
              simdTargetName(resolveSimdTarget()));
    EXPECT_EQ(kernel->find("fused_groups")->asInt(), 0);
}

TEST(Service, KernelTargetSurvivesCacheHitDrains)
{
    // A cold sweep replays; the warm repeat is a drain of cache hits
    // only, which replays nothing and so must not change the reported
    // target or lose the cold sweep's groups.
    SweepServer server;
    const std::string line = sweepLine("GAs", 4, 6);
    ASSERT_TRUE(isOk(handle(server, line)));
    ASSERT_TRUE(isOk(handle(server, line)));

    JsonValue stats = handle(server, "{\"op\":\"stats\"}");
    ASSERT_TRUE(isOk(stats));
    EXPECT_GE(stats.find("queue")->find("cache_hits")->asInt(), 1);
    const JsonValue *kernel = stats.find("kernel");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->find("target")->asString(),
              simdTargetName(resolveSimdTarget()));
    EXPECT_GE(kernel->find("fused_groups")->asInt(), 1);
}

} // namespace
