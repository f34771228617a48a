/**
 * @file
 * FIFO thread pool for coarse-grained experiment jobs.
 *
 * One queue guarded by one mutex and one condition variable: submit()
 * pushes to the back and wakes one worker, workers pop from the
 * front, so tasks start in submission order (a plan's jobs start in
 * plan order). Destruction is shutdown-safe: remaining queued tasks
 * are drained before the workers are joined, so no submitted task is
 * silently dropped.
 *
 * Tasks are run-to-completion std::function<void()> thunks. Exceptions
 * must not escape a task; RunEngine (engine.hpp) captures them per job
 * and rethrows on the caller's thread.
 *
 * The pool also implements ParallelExecutor (common/parallel.hpp) and
 * installs itself on its worker threads, so lower layers (the SRE
 * optimizer) fan their sub-problems out on the same pool — `--threads`
 * then bounds total process concurrency. parallelFor() lets the
 * calling thread claim and run batch items itself, so invoking it from
 * inside a pool task cannot deadlock even when every other worker is
 * busy.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace codecrunch::runner {

/**
 * Fixed-size FIFO pool.
 */
class ThreadPool : public ParallelExecutor
{
  public:
    /**
     * Start `threads` workers.
     * @param threads worker count; 0 means hardware concurrency.
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Drains all queued tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    std::size_t threadCount() const { return threads_.size(); }

    /**
     * Enqueue a task behind every task already queued. Safe from any
     * thread, including from inside a running task. Must not be
     * called after destruction has begun.
     */
    void submit(std::function<void()> task);

    /**
     * Run body(0..count-1) across the pool and the calling thread;
     * returns when all have completed. The caller claims items from
     * the same shared counter as the pool workers, so progress is
     * guaranteed even when called from a pool task while every other
     * worker is busy (no inline-wait deadlock). Exceptions from the
     * body propagate to the caller (first-thrown wins); the batch
     * still runs to completion first.
     */
    void
    parallelFor(std::size_t count,
                const std::function<void(std::size_t)>& body) override;

  private:
    void workerLoop();

    /** Lets the workers drain the queue and exit, then joins them. */
    void stopAndJoin();

    std::mutex mutex_;
    /** Pending tasks, oldest first; guarded by mutex_. */
    std::deque<std::function<void()>> queue_;
    /** Set once by stopAndJoin(); guarded by mutex_. */
    bool stopping_ = false;
    std::condition_variable cv_;
    /** Declared last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace codecrunch::runner
