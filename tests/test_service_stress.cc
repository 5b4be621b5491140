/**
 * @file
 * Concurrency stress for the sweep daemon's BatchQueue: many client
 * threads hammer submitSweep() with overlapping tier ranges on one
 * trace, and every response must be bit-identical to a direct
 * SweepSession::sweep of the same request.  Correctness under
 * combining is the whole point of the queue -- a coalesced slice that
 * differs from a standalone sweep would silently corrupt results for
 * whichever client happened to share a drain.
 *
 * Run under the tsan preset (test name filter "ServiceStress") to pin
 * the queue's locking discipline.
 *
 * Also checks that the unix-socket transport joins the threads of
 * closed connections instead of keeping them until shutdown.
 */

#include <gtest/gtest.h>

#include <pthread.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/server.hh"
#include "sim/sweep_session.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace {

constexpr const char *kProfile = "xlisp";
constexpr std::uint64_t kBranches = 20000;

void
expectSurfaceIdentical(const Surface &a, const Surface &b)
{
    ASSERT_EQ(a.tiers().size(), b.tiers().size());
    for (std::size_t t = 0; t < a.tiers().size(); ++t) {
        const SurfaceTier &ta = a.tiers()[t];
        const SurfaceTier &tb = b.tiers()[t];
        ASSERT_EQ(ta.totalBits, tb.totalBits);
        ASSERT_EQ(ta.points.size(), tb.points.size());
        for (std::size_t p = 0; p < ta.points.size(); ++p)
            ASSERT_EQ(std::memcmp(&ta.points[p].value,
                                  &tb.points[p].value,
                                  sizeof(double)),
                      0)
                << a.name() << " tier " << ta.totalBits << " point "
                << p;
    }
}

void
expectResultIdentical(const SweepResult &a, const SweepResult &b)
{
    expectSurfaceIdentical(a.misprediction, b.misprediction);
    expectSurfaceIdentical(a.aliasing, b.aliasing);
    expectSurfaceIdentical(a.harmless, b.harmless);
    ASSERT_EQ(
        std::memcmp(&a.bhtMissRate, &b.bhtMissRate, sizeof(double)),
        0);
}

SweepRequest
makeRequest(const TraceHash &trace, unsigned min_bits,
            unsigned max_bits, bool bypass)
{
    SweepOptions opts;
    opts.minTotalBits = min_bits;
    opts.maxTotalBits = max_bits;
    SweepRequest req{trace, SchemeKind::Gshare, opts};
    req.bypassCache = bypass;
    return req;
}

TEST(ServiceStress, ConcurrentSubmitsAreBitIdenticalToDirectSweeps)
{
    SweepServer server;
    const TraceHash trace =
        server.session().internProfile(kProfile, kBranches)
            .value()
            .hash;

    // Reference results from a plain single-threaded session; one
    // per distinct tier range the stress threads will request.
    SweepSession reference;
    const TraceHash refTrace =
        reference.internProfile(kProfile, kBranches).value().hash;
    ASSERT_EQ(refTrace, trace);
    std::map<unsigned, SweepResult> expected;
    const std::vector<std::pair<unsigned, unsigned>> ranges = {
        {4, 8}, {5, 9}, {6, 10}, {4, 10}};
    for (const auto &[lo, hi] : ranges)
        expected.emplace(
            lo * 100 + hi,
            reference.sweep(makeRequest(refTrace, lo, hi, false))
                .value()
                .result);

    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 3;
    std::barrier gate(kThreads);
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (unsigned round = 0; round < kRounds; ++round) {
                const auto &[lo, hi] = ranges[(t + round)
                                              % ranges.size()];
                // Alternate bypass so every round mixes cache hits
                // with forced replays -- replays are what pile up in
                // the queue and get coalesced.
                const bool bypass = (t + round) % 2 == 0;
                gate.arrive_and_wait();
                Result<SweepResponse> response = server.submitSweep(
                    makeRequest(trace, lo, hi, bypass));
                if (!response.ok()) {
                    failures[t] = response.error().message();
                    return;
                }
                expectResultIdentical(response.value().result,
                                      expected.at(lo * 100 + hi));
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    for (const std::string &failure : failures)
        EXPECT_TRUE(failure.empty()) << failure;

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.queue.submissions, kThreads * kRounds);
    EXPECT_GE(stats.queue.drains, 1u);
    EXPECT_LE(stats.queue.drains, stats.queue.submissions);
}

TEST(ServiceStress, ContendedQueueFormsFusedGroups)
{
    SweepServer server;
    const TraceHash trace =
        server.session().internProfile(kProfile, kBranches)
            .value()
            .hash;

    // Coalescing is load-dependent: a drain only fuses requests that
    // were pending at the same time.  Slam batches of bypass sweeps
    // (bypass => always a replay => always coalescable) until a
    // multi-request drain forms a fused group; the barrier makes one
    // nearly certain on the first attempt.
    constexpr unsigned kThreads = 8;
    for (int attempt = 0; attempt < 32; ++attempt) {
        std::barrier gate(kThreads);
        std::vector<std::thread> clients;
        for (unsigned t = 0; t < kThreads; ++t) {
            clients.emplace_back([&] {
                gate.arrive_and_wait();
                Result<SweepResponse> response = server.submitSweep(
                    makeRequest(trace, 4, 7, true));
                EXPECT_TRUE(response.ok());
            });
        }
        for (std::thread &client : clients)
            client.join();
        if (server.stats().queue.batch.fusedGroupsFormed >= 1)
            break;
    }

    const ServerStats stats = server.stats();
    EXPECT_GE(stats.queue.batch.fusedGroupsFormed, 1u)
        << "no drain ever combined two requests; submissions="
        << stats.queue.submissions
        << " drains=" << stats.queue.drains;
    EXPECT_GE(stats.queue.multiRequestDrains, 1u);
    EXPECT_GE(stats.queue.batch.coalescedRequests, 2u);

    // Coalesced responses advertise themselves: at least one response
    // of a fused group must have carried the flag.  Verify via one
    // more deliberately contended round observing the flag directly.
    std::atomic<unsigned> coalesced{0};
    for (int attempt = 0;
         attempt < 32 && coalesced.load() == 0; ++attempt) {
        std::barrier gate(kThreads);
        std::vector<std::thread> clients;
        for (unsigned t = 0; t < kThreads; ++t) {
            clients.emplace_back([&] {
                gate.arrive_and_wait();
                Result<SweepResponse> response = server.submitSweep(
                    makeRequest(trace, 4, 7, true));
                if (response.ok() && response.value().coalesced)
                    coalesced.fetch_add(1);
            });
        }
        for (std::thread &client : clients)
            client.join();
    }
    EXPECT_GE(coalesced.load(), 1u);
}

/** This process's live threads: the entries of /proc/self/task. */
std::size_t
liveThreads()
{
    std::size_t n = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/task");
         it != std::filesystem::directory_iterator(); ++it)
        ++n;
    return n;
}

/**
 * Thread stacks this process has mapped: a std::thread's stack is one
 * read-write mapping of exactly @p stack bytes behind a guard page,
 * and it stays mapped until the thread is joined (glibc then caches a
 * few for reuse).
 */
std::size_t
mappedStacks(std::size_t stack)
{
    std::ifstream maps("/proc/self/maps");
    std::string line;
    std::size_t n = 0;
    while (std::getline(maps, line)) {
        unsigned long lo = 0;
        unsigned long hi = 0;
        char perms[5] = {};
        if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) == 3 &&
            std::strcmp(perms, "rw-p") == 0 && hi - lo == stack)
            ++n;
    }
    return n;
}

TEST(ServiceStress, FinishedConnectionsAreReaped)
{
    // A long-lived daemon serves many short connections.  Each closed
    // connection's thread must be joined, not parked until shutdown:
    // an exited thread leaves /proc/self/task at once, but until it is
    // joined its stack stays mapped.  After 256 connect/ping/close
    // cycles and one more accept, both the thread count and the mapped stacks
    // must be back near where they started.
    if (!std::filesystem::exists("/proc/self/maps"))
        GTEST_SKIP() << "no /proc on this host";
    const std::string socketPath =
        ::testing::TempDir() + "service_stress_reap.sock";
    std::filesystem::remove(socketPath);
    SweepServer server;
    std::promise<Status> served;
    std::future<Status> done = served.get_future();
    std::thread daemon(
        [&] { served.set_value(server.serveSocket(socketPath)); });
    for (int i = 0; i < 2000 && !std::filesystem::exists(socketPath); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!std::filesystem::exists(socketPath)) {
        daemon.join(); // serveSocket returned its bind error
        FAIL() << done.get().error().message();
    }
    const auto settle = [](std::size_t bound) {
        for (int i = 0; i < 500 && liveThreads() > bound; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    };
    const std::string ping = "{\"op\":\"ping\",\"id\":\"p\"}";

    // The stack a std::thread -- so a connection worker -- maps.
    std::size_t stack = 0;
    std::thread([&stack] {
        pthread_attr_t attr;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
            pthread_attr_getstacksize(&attr, &stack);
            pthread_attr_destroy(&attr);
        }
    }).join();
    ASSERT_GT(stack, 0u);

    // One served connection first, so one-time costs of the first
    // worker are in the baseline.
    const std::size_t idle = liveThreads();
    LineChannel first = connectUnixSocket(socketPath).value();
    ASSERT_TRUE(roundTrip(first, ping).ok());
    first.close();
    settle(idle);
    const std::size_t threads0 = liveThreads();
    const std::size_t stacks0 = mappedStacks(stack);

    // Each cycle is served (a ping) before it closes, so every
    // connection has been accepted -- none waits in the listen backlog
    // -- when the worker count settles.
    constexpr int kCycles = 256;
    for (int i = 0; i < kCycles; ++i) {
        LineChannel client = connectUnixSocket(socketPath).value();
        ASSERT_TRUE(roundTrip(client, ping).ok()) << "cycle " << i;
        client.close();
    }
    settle(threads0);
    EXPECT_LE(liveThreads(), threads0);

    // The next accept joins every finished worker.  Parked workers
    // would hold kCycles stacks; joined ones leave at most glibc's
    // small stack cache.
    LineChannel closer = connectUnixSocket(socketPath).value();
    ASSERT_TRUE(roundTrip(closer, ping).ok());
    EXPECT_LE(liveThreads(), threads0 + 1);
    EXPECT_LE(mappedStacks(stack), stacks0 + 16)
        << "closed connections still hold their thread stacks";

    EXPECT_TRUE(
        roundTrip(closer, "{\"op\":\"shutdown\",\"id\":\"x\"}").ok());
    closer.close();
    daemon.join();
    EXPECT_TRUE(done.get().ok());
}

} // namespace
