/**
 * @file
 * Tests for the shared worker pool behind the sweep engine: exact
 * once-per-index execution, deterministic result slots, exception
 * propagation and nested-batch liveness.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"

using namespace bpsim;

TEST(ThreadPool, HardwareThreadsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, ResolveThreadsMapsZeroToHardware)
{
    EXPECT_EQ(ThreadPool::resolveThreads(0),
              ThreadPool::hardwareThreads());
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7u);
}

TEST(ThreadPool, SharedPoolIsASingleton)
{
    EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
    EXPECT_GE(ThreadPool::shared().workerCount(), 1u);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10'000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallelFor(n, 4,
                     [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForZeroJobsReturnsImmediately)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, 2, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ResultSlotsMatchSerialForAnyThreadCount)
{
    constexpr std::size_t n = 513;
    auto job = [](std::size_t i) {
        // Arbitrary but deterministic per-index arithmetic.
        double v = 0.0;
        for (std::size_t k = 0; k <= i % 97; ++k)
            v += static_cast<double>(i * 31 + k) / 7.0;
        return v;
    };

    std::vector<double> serial(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = job(i);

    for (unsigned threads : {1u, 2u, 4u, 16u}) {
        ThreadPool pool(threads);
        std::vector<double> slots(n);
        pool.parallelFor(n, threads,
                         [&](std::size_t i) { slots[i] = job(i); });
        EXPECT_EQ(slots, serial) << threads << " threads";
    }
}

TEST(ThreadPool, MaxThreadsOneIsAPlainSerialLoop)
{
    ThreadPool pool(4);
    std::vector<std::size_t> order;
    pool.parallelFor(64, 1,
                     [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 64u);
    // Serial degenerate case preserves index order exactly.
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionPropagatesAndCancelsRemainingJobs)
{
    ThreadPool pool(2);
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.parallelFor(10'000, 2,
                         [&](std::size_t i) {
                             executed.fetch_add(1);
                             if (i == 3)
                                 throw std::runtime_error("job 3");
                         }),
        std::runtime_error);
    // Cancellation keeps the batch from draining the full range.
    EXPECT_LT(executed.load(), 10'000);

    // The pool survives a failed batch.
    std::atomic<int> after{0};
    pool.parallelFor(100, 2,
                     [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPool, SerialPathPropagatesExceptionsToo)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     8, 1,
                     [](std::size_t i) {
                         if (i == 5)
                             throw std::logic_error("serial");
                     }),
                 std::logic_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // An outer batch whose jobs each run an inner batch on the same
    // pool -- the bestConfigs-over-sweepScheme shape.  The caller
    // always participates in its own batch, so this must complete even
    // when every worker is occupied by outer jobs.
    ThreadPool pool(2);
    constexpr std::size_t outer = 8, inner = 50;
    std::vector<std::atomic<int>> counts(outer);
    pool.parallelFor(outer, 4, [&](std::size_t o) {
        pool.parallelFor(inner, 4, [&](std::size_t) {
            counts[o].fetch_add(1);
        });
    });
    for (std::size_t o = 0; o < outer; ++o)
        EXPECT_EQ(counts[o].load(), static_cast<int>(inner));
}

TEST(ThreadPool, InWorkerThreadDistinguishesPoolWorkers)
{
    // The initiator of a batch is not a worker; threads serving the
    // pool are.  (Sticky per thread: once a thread has been a worker
    // it stays marked, which is exactly the property nested dispatch
    // decisions need.)
    EXPECT_FALSE(ThreadPool::inWorkerThread());
    ThreadPool pool(2);
    std::atomic<int> worker_hits{0}, initiator_hits{0};
    pool.parallelFor(64, 3, [&](std::size_t) {
        if (ThreadPool::inWorkerThread())
            worker_hits.fetch_add(1);
        else
            initiator_hits.fetch_add(1);
    });
    // The initiator participates in its own batch, so both kinds of
    // thread ran jobs; their counts add up to the whole batch.
    EXPECT_EQ(worker_hits.load() + initiator_hits.load(), 64);
    EXPECT_FALSE(ThreadPool::inWorkerThread());
}

TEST(ThreadPool, NestedGroupsTimesShardsShapeDrains)
{
    // The nested sweep shape: SweepSession::bestConfigs distributes
    // Table 3's scheme sweeps on the shared pool (outer), and every
    // sweep's sweepScheme distributes its groups on the same pool
    // (inner).
    // Both levels go through ThreadPool::shared() -- exactly what the
    // tsan preset replays -- and must drain with every task run once.
    constexpr std::size_t groups = 6, tasks = 8;
    std::vector<std::array<std::atomic<int>, tasks>> runs(groups);
    ThreadPool::shared().parallelFor(groups, 4, [&](std::size_t g) {
        ThreadPool::shared().parallelFor(tasks, 4, [&](std::size_t t) {
            runs[g][t].fetch_add(1);
        });
    });
    for (std::size_t g = 0; g < groups; ++g)
        for (std::size_t t = 0; t < tasks; ++t)
            ASSERT_EQ(runs[g][t].load(), 1)
                << "group " << g << " task " << t;
}

TEST(ThreadPool, StressManySmallRandomizedBatches)
{
    // The sweep engine's real usage pattern: a long sequence of small
    // batches with wildly varying job counts, occasionally aborted by a
    // throwing job, always followed by more work on the same pool.
    ThreadPool pool(4);
    std::minstd_rand rng(0xB5EED);

    std::uint64_t jobs_expected = 0;
    std::atomic<std::uint64_t> jobs_run{0};
    unsigned throws_seen = 0, throws_expected = 0;

    for (int batch = 0; batch < 400; ++batch) {
        std::size_t n = 1 + rng() % 37;
        unsigned threads = 1 + rng() % 6;
        bool poison = batch % 9 == 4; // every ninth batch throws
        std::size_t poison_at = rng() % n;

        if (poison)
            ++throws_expected;
        else
            jobs_expected += n;
        try {
            pool.parallelFor(n, threads, [&](std::size_t i) {
                if (poison && i == poison_at)
                    throw std::runtime_error("poisoned batch");
                if (!poison)
                    jobs_run.fetch_add(1, std::memory_order_relaxed);
            });
            EXPECT_FALSE(poison) << "batch " << batch
                                 << " should have thrown";
        } catch (const std::runtime_error &) {
            EXPECT_TRUE(poison) << "batch " << batch
                                << " threw unexpectedly";
            ++throws_seen;
        }
    }

    // Every clean batch ran to completion and every poisoned batch
    // surfaced its exception; the pool never wedged.
    EXPECT_EQ(jobs_run.load(), jobs_expected);
    EXPECT_EQ(throws_seen, throws_expected);

    // Final sanity: the pool is still fully usable for a larger batch.
    std::atomic<int> final_count{0};
    pool.parallelFor(1000, 4,
                     [&](std::size_t) { final_count.fetch_add(1); });
    EXPECT_EQ(final_count.load(), 1000);
}

TEST(ThreadPool, ManyMoreJobsThanWorkersDrain)
{
    ThreadPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    constexpr std::size_t n = 100'000;
    pool.parallelFor(n, 8, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}
