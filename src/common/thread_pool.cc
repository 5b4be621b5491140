#include "common/thread_pool.hh"

#include <algorithm>
#include <exception>
#include <memory>

#include "common/logging.hh"

namespace bpsim {

/**
 * Shared state of one parallelFor() call.  Jobs are claimed under the
 * batch mutex; completion is "everything claimable has been claimed and
 * every claimed job has finished", so the initiator never waits on a
 * helper that has not been scheduled yet (queued helpers that arrive
 * late find nothing to claim and exit immediately).
 */
struct ThreadPool::Batch
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *fn = nullptr;

    std::mutex m;
    std::condition_variable done;
    std::size_t nextIndex = 0; ///< under m
    std::size_t claimed = 0;   ///< under m
    std::size_t finished = 0;  ///< under m
    bool cancelled = false;    ///< under m; set on first exception
    std::exception_ptr error;  ///< under m; first exception only

    bool
    complete() const
    {
        return finished == claimed && (cancelled || nextIndex >= n);
    }
};

ThreadPool::ThreadPool(unsigned workers)
{
    unsigned count = workers ? workers : hardwareThreads();
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    available_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
ThreadPool::resolveThreads(unsigned requested)
{
    return requested ? requested : hardwareThreads();
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool(hardwareThreads());
    return pool;
}

namespace {
thread_local bool t_in_worker = false;
} // namespace

bool
ThreadPool::inWorkerThread()
{
    return t_in_worker;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bpsim_assert(!stopping_, "task submitted to a stopping pool");
        queue_.push_back(std::move(task));
    }
    available_.notify_one();
}

void
ThreadPool::workerLoop()
{
    t_in_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            available_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::runBatch(Batch &batch)
{
    for (;;) {
        std::size_t index;
        {
            std::lock_guard<std::mutex> lock(batch.m);
            if (batch.cancelled || batch.nextIndex >= batch.n)
                return;
            index = batch.nextIndex++;
            ++batch.claimed;
        }

        std::exception_ptr error;
        try {
            (*batch.fn)(index);
        } catch (...) {
            error = std::current_exception();
        }

        {
            std::lock_guard<std::mutex> lock(batch.m);
            ++batch.finished;
            if (error) {
                batch.cancelled = true;
                if (!batch.error)
                    batch.error = error;
            }
            if (batch.complete())
                batch.done.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n, unsigned max_threads,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    unsigned helpers = 0;
    if (max_threads > 1) {
        helpers = max_threads - 1;
        helpers = std::min<unsigned>(helpers, workerCount());
        helpers = std::min<std::size_t>(helpers, n - 1);
    }
    if (helpers == 0) {
        // Serial degenerate case: plain loop, direct propagation.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;
    for (unsigned i = 0; i < helpers; ++i)
        enqueue([batch] { runBatch(*batch); });

    runBatch(*batch);

    std::unique_lock<std::mutex> lock(batch->m);
    batch->done.wait(lock, [&] { return batch->complete(); });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace bpsim
