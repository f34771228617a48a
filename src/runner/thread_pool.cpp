#include "runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace codecrunch::runner {

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
    }
    threads_.reserve(threads);
    try {
        for (std::size_t i = 0; i < threads; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // A worker that failed to start must not leave the ones
        // already running unjoined.
        stopAndJoin();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    stopAndJoin();
}

void
ThreadPool::stopAndJoin()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& thread : threads_)
        thread.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    // Sub-problem parallelism (e.g. SRE) fans out on this same pool
    // while a job runs on this thread, so --threads bounds the whole
    // process (common/parallel.hpp).
    ScopedParallelExecutor executorGuard(this);
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            // Shutdown drains the queue: only exit once no task remains.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)>& body)
{
    if (count == 0)
        return;
    if (count == 1 || threadCount() == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    /** Shared batch state; helpers may outlive the call (a late
     *  helper that claims nothing), so it lives on the heap. */
    struct Batch {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t count = 0;
        const std::function<void(std::size_t)>* body = nullptr;
        std::mutex mutex;
        std::condition_variable cv;
        std::exception_ptr error;
    };
    auto batch = std::make_shared<Batch>();
    batch->count = count;
    // The caller blocks below until every item completed, so the
    // pointer stays valid for exactly as long as items dereference it.
    batch->body = &body;

    const auto runSome = [batch] {
        for (;;) {
            const std::size_t i =
                batch->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= batch->count)
                return;
            try {
                (*batch->body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(batch->mutex);
                if (!batch->error)
                    batch->error = std::current_exception();
            }
            if (batch->done.fetch_add(
                    1, std::memory_order_acq_rel) +
                    1 ==
                batch->count) {
                std::lock_guard<std::mutex> lock(batch->mutex);
                batch->cv.notify_all();
            }
        }
    };

    // One helper per item beyond the caller's share, capped at the
    // pool width; idle workers pick them up, and in a busy pool the
    // caller runs everything itself (late helpers find nothing left).
    const std::size_t helpers =
        std::min<std::size_t>(count - 1, threadCount());
    for (std::size_t h = 0; h < helpers; ++h)
        submit(runSome);
    runSome();

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) ==
               batch->count;
    });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace codecrunch::runner
