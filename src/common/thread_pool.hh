/**
 * @file
 * A fixed-size worker pool shared by the sweep engine and the
 * experiment drivers.
 *
 * The design centre is parallelFor(): run a batch of independent,
 * index-addressed jobs with deterministic result placement.  Callers
 * write job i's output into their own slot i, so the merged result is
 * bit-identical to a serial loop regardless of scheduling.  The calling
 * thread always participates in its own batch, which makes nested
 * parallelFor() calls (a parallel experiment driver issuing parallel
 * sweeps) deadlock-free even when every worker is busy: the initiator
 * drains its batch itself and queued helpers become no-ops.
 *
 * The first exception thrown by a job cancels the remaining unclaimed
 * jobs and is rethrown in the caller once in-flight jobs drain.
 */

#ifndef BPSIM_COMMON_THREAD_POOL_HH
#define BPSIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bpsim {

class ThreadPool
{
  public:
    /** Spawn @p workers threads; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads owned by this pool. */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** std::thread::hardware_concurrency(), never less than 1. */
    static unsigned hardwareThreads();

    /**
     * Resolve a user-facing threads knob: 0 selects all hardware
     * threads, anything else is taken literally.
     */
    static unsigned resolveThreads(unsigned requested);

    /** The process-wide pool (hardwareThreads() workers, lazily built). */
    static ThreadPool &shared();

    /**
     * Whether the calling thread is a pool worker (of any ThreadPool).
     * Observability for tests of nested parallelFor(): an inner batch
     * issued from a worker must execute on workers or the initiator,
     * never by spawning ad-hoc threads.
     */
    static bool inWorkerThread();

    /**
     * Run fn(0) .. fn(n-1) with at most @p max_threads concurrent
     * executors (the calling thread plus up to max_threads-1 workers).
     * max_threads <= 1 degenerates to a plain serial loop.  Blocks
     * until every claimed job has finished; rethrows the first job
     * exception.  Each index is executed exactly once.
     */
    void parallelFor(std::size_t n, unsigned max_threads,
                     const std::function<void(std::size_t)> &fn);

  private:
    struct Batch;

    void enqueue(std::function<void()> task);
    void workerLoop();
    /** Claim-and-run loop every batch participant executes. */
    static void runBatch(Batch &batch);

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable available_;
    bool stopping_ = false;
};

} // namespace bpsim

#endif // BPSIM_COMMON_THREAD_POOL_HH
