/**
 * @file
 * End-to-end test of the real sweep_server binary: spawn it on a
 * pipe (exactly what bpsim_client does), drive the protocol, and
 * require the sweep responses to be bit-identical to a direct
 * SweepSession -- cold, warm (in-memory cache), and disk-warm (a
 * second server process over the same cache directory, which must
 * answer without replaying, from the .bpc files alone).
 *
 * The binary path arrives via the BPSIM_SERVER_BINARY compile
 * definition; when it is missing the suite skips rather than fails,
 * so the test library still works in unusual build setups.
 *
 * Also covers the unix-socket transport: one daemon, two concurrent
 * socket clients, both answered, shutdown via the protocol; and an
 * in-process SweepServer whose shutdown must reach idle connections
 * however connection churn has reused their descriptor numbers.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/json.hh"
#include "service/server.hh"
#include "sim/sweep_session.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace {

constexpr const char *kProfile = "eqntott";
constexpr std::uint64_t kBranches = 20000;
constexpr const char *kSweepLine =
    "{\"op\":\"sweep\",\"id\":\"e2e\",\"trace\":"
    "{\"profile\":\"eqntott\",\"branches\":20000},"
    "\"scheme\":\"gshare\","
    "\"options\":{\"min_bits\":4,\"max_bits\":7}}";

std::string
serverBinary()
{
#ifdef BPSIM_SERVER_BINARY
    return BPSIM_SERVER_BINARY;
#else
    return "";
#endif
}

JsonValue
ask(LineChannel &channel, const std::string &request)
{
    Result<std::string> line = roundTrip(channel, request);
    EXPECT_TRUE(line.ok())
        << (line.ok() ? "" : line.error().message());
    if (!line.ok())
        return JsonValue();
    Result<JsonValue> parsed = parseJson(line.value());
    EXPECT_TRUE(parsed.ok()) << line.value();
    return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

bool
isOk(const JsonValue &response)
{
    const JsonValue *ok = response.find("ok");
    return ok && ok->isBool() && ok->asBool();
}

/** Compare a wire surface bit-exactly against the reference. */
void
expectWireSurfaceIdentical(const JsonValue *wire,
                           const Surface &expect)
{
    ASSERT_NE(wire, nullptr);
    ASSERT_TRUE(wire->isArray());
    ASSERT_EQ(wire->array().size(), expect.tiers().size());
    for (std::size_t t = 0; t < expect.tiers().size(); ++t) {
        const SurfaceTier &tier = expect.tiers()[t];
        const JsonValue &wt = wire->array()[t];
        ASSERT_EQ(wt.find("total_bits")->asInt(),
                  static_cast<std::int64_t>(tier.totalBits));
        const JsonValue *points = wt.find("points");
        ASSERT_TRUE(points && points->isArray());
        ASSERT_EQ(points->array().size(), tier.points.size());
        for (std::size_t p = 0; p < tier.points.size(); ++p) {
            const double wire_value =
                points->array()[p].find("value")->asDouble();
            ASSERT_EQ(std::memcmp(&wire_value,
                                  &tier.points[p].value,
                                  sizeof(double)),
                      0)
                << expect.name() << " tier " << tier.totalBits
                << " point " << p;
        }
    }
}

void
expectSweepMatchesReference(const JsonValue &response,
                            const SweepResult &expect)
{
    const JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    expectWireSurfaceIdentical(result->find("misprediction"),
                               expect.misprediction);
    expectWireSurfaceIdentical(result->find("aliasing"),
                               expect.aliasing);
    expectWireSurfaceIdentical(result->find("harmless"),
                               expect.harmless);
    const double miss = result->find("bht_miss_rate")->asDouble();
    ASSERT_EQ(
        std::memcmp(&miss, &expect.bhtMissRate, sizeof(double)), 0);
}

SweepResult
referenceResult()
{
    SweepSession session;
    TraceHandle trace =
        session.internProfile(kProfile, kBranches).value();
    SweepOptions opts;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 7;
    return session
        .sweep(SweepRequest{trace.hash, SchemeKind::Gshare, opts})
        .value()
        .result;
}

TEST(ServiceE2e, PipeServerSweepsColdWarmAndDiskWarm)
{
    const std::string binary = serverBinary();
    if (binary.empty() || !std::filesystem::exists(binary))
        GTEST_SKIP() << "sweep_server binary not available";

    const std::string cacheDir =
        ::testing::TempDir() + "service_e2e_cache";
    std::filesystem::remove_all(cacheDir);
    const SweepResult expect = referenceResult();

    {
        ServerProcess server = ServerProcess::spawn(
                                   binary, {"cache=" + cacheDir})
                                   .value();
        JsonValue ping = ask(server.channel(),
                             "{\"op\":\"ping\",\"id\":\"up\"}");
        ASSERT_TRUE(isOk(ping));
        EXPECT_EQ(ping.find("id")->asString(), "up");

        // Cold: a real replay in the child.
        JsonValue cold = ask(server.channel(), kSweepLine);
        ASSERT_TRUE(isOk(cold));
        EXPECT_FALSE(cold.find("cache_hit")->asBool());
        expectSweepMatchesReference(cold, expect);

        // Warm: the child's in-memory cache answers, bit-identical.
        JsonValue warm = ask(server.channel(), kSweepLine);
        ASSERT_TRUE(isOk(warm));
        EXPECT_TRUE(warm.find("cache_hit")->asBool());
        EXPECT_FALSE(warm.find("disk_hit")->asBool());
        expectSweepMatchesReference(warm, expect);

        EXPECT_EQ(server.wait(), 0);
    }

    // Disk-warm: a NEW process over the same cache directory serves
    // from .bpc files -- no trace generation, no replay.
    {
        ServerProcess server = ServerProcess::spawn(
                                   binary, {"cache=" + cacheDir})
                                   .value();
        JsonValue disk = ask(server.channel(), kSweepLine);
        ASSERT_TRUE(isOk(disk));
        EXPECT_TRUE(disk.find("cache_hit")->asBool());
        EXPECT_TRUE(disk.find("disk_hit")->asBool());
        expectSweepMatchesReference(disk, expect);
        EXPECT_EQ(server.wait(), 0);
    }

    std::filesystem::remove_all(cacheDir);
}

TEST(ServiceE2e, PipeServerSurvivesGarbageBetweenRequests)
{
    const std::string binary = serverBinary();
    if (binary.empty() || !std::filesystem::exists(binary))
        GTEST_SKIP() << "sweep_server binary not available";

    ServerProcess server =
        ServerProcess::spawn(binary).value();
    JsonValue bad = ask(server.channel(), "this is not json {{{");
    EXPECT_FALSE(isOk(bad));
    const JsonValue *error = bad.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("code")->asString(), "bad_json");

    JsonValue still = ask(server.channel(),
                          "{\"op\":\"ping\",\"id\":\"alive\"}");
    EXPECT_TRUE(isOk(still));
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServiceE2e, SocketServerServesConcurrentClientsAndShutsDown)
{
    const std::string binary = serverBinary();
    if (binary.empty() || !std::filesystem::exists(binary))
        GTEST_SKIP() << "sweep_server binary not available";

    const std::string socketPath =
        ::testing::TempDir() + "service_e2e.sock";
    std::filesystem::remove(socketPath);
    ServerProcess server =
        ServerProcess::spawn(binary, {"socket=" + socketPath})
            .value();

    // The daemon binds asynchronously; poll for the socket file.
    Result<LineChannel> first =
        BPSIM_ERROR("socket never appeared");
    for (int i = 0; i < 200 && !first.ok(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        if (std::filesystem::exists(socketPath))
            first = connectUnixSocket(socketPath);
    }
    ASSERT_TRUE(first.ok())
        << (first.ok() ? "" : first.error().message());
    LineChannel clientA = std::move(first).value();
    LineChannel clientB = connectUnixSocket(socketPath).value();

    // Two clients, interleaved requests on one daemon.
    std::thread other([&] {
        JsonValue response = ask(clientB, kSweepLine);
        EXPECT_TRUE(isOk(response));
    });
    JsonValue pong =
        ask(clientA, "{\"op\":\"ping\",\"id\":\"sock\"}");
    EXPECT_TRUE(isOk(pong));
    JsonValue swept = ask(clientA, kSweepLine);
    EXPECT_TRUE(isOk(swept));
    other.join();

    // Protocol shutdown: the response arrives, then the daemon
    // exits and removes its socket file.
    JsonValue bye =
        ask(clientA, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
    EXPECT_TRUE(isOk(bye));
    clientA.close();
    clientB.close();
    EXPECT_EQ(server.wait(), 0);
    EXPECT_FALSE(std::filesystem::exists(socketPath));
}

TEST(ServiceE2e, ShutdownReachesIdleConnectionsAfterFdReuse)
{
    // A finished connection must forget its descriptor before closing
    // it: once closed, accept may hand the same number to a new
    // connection, whose entry must survive for shutdown to wake it.
    // Churn short-lived connections, opening an idle one a few
    // microseconds after each closes (so some accepts land while a
    // worker is between its close and its bookkeeping), then shut
    // down on another connection: serveSocket must return while every
    // idle client is still connected.  The race is narrow, so several
    // daemons each take a few hundred closes.
    const std::string socketPath =
        ::testing::TempDir() + "service_e2e_churn.sock";
    const std::string ping = "{\"op\":\"ping\",\"id\":\"p\"}";
    for (int cycle = 0; cycle < 8; ++cycle) {
        std::filesystem::remove(socketPath);
        SweepServer server;
        std::promise<Status> served;
        std::future<Status> done = served.get_future();
        std::thread daemon(
            [&] { served.set_value(server.serveSocket(socketPath)); });
        for (int i = 0; i < 2000 && !std::filesystem::exists(socketPath);
             ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (!std::filesystem::exists(socketPath)) {
            daemon.join(); // serveSocket returned its bind error
            FAIL() << done.get().error().message();
        }

        std::vector<LineChannel> idle;
        for (int i = 0; i < 256; ++i) {
            connectUnixSocket(socketPath).value().close();
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(i * 37 % 80);
            while (std::chrono::steady_clock::now() < until) {
            }
            idle.push_back(connectUnixSocket(socketPath).value());
        }
        // Every idle connection is accepted and blocked reading.
        for (LineChannel &client : idle)
            EXPECT_TRUE(isOk(ask(client, ping)));

        LineChannel closer = connectUnixSocket(socketPath).value();
        EXPECT_TRUE(isOk(
            ask(closer, "{\"op\":\"shutdown\",\"id\":\"x\"}")));
        EXPECT_EQ(done.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "serveSocket is still waiting on an idle connection, "
               "cycle "
            << cycle;

        // Closing the clients releases any worker shutdown missed.
        idle.clear();
        closer.close();
        daemon.join();
        EXPECT_TRUE(done.get().ok());
        EXPECT_FALSE(std::filesystem::exists(socketPath));
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace
