/**
 * @file
 * Thread-local parallel-executor hook: lets low-level subsystems (the
 * SRE optimizer in opt/) run their sub-problems on whatever worker
 * pool is driving the current thread, without depending on the runner
 * layer. The runner's ThreadPool implements ParallelExecutor and
 * installs itself on its worker threads; it is the only way the
 * simulator runs work in parallel, so `--threads N` bounds total
 * process concurrency.
 *
 * Code running outside any pool (serial Harness::run, dist workers,
 * unit tests) sees no executor and runs its work in order on the
 * calling thread.
 */
#pragma once

#include <cstddef>
#include <functional>

namespace codecrunch {

/**
 * Executes `body(0..count-1)` with the calling thread participating;
 * returns only when every index has completed. Implementations must be
 * deadlock-free when invoked from one of their own worker threads
 * (the caller helps instead of merely blocking).
 */
class ParallelExecutor
{
  public:
    virtual ~ParallelExecutor() = default;

    virtual void
    parallelFor(std::size_t count,
                const std::function<void(std::size_t)>& body) = 0;
};

namespace detail {
inline thread_local ParallelExecutor* tlsParallelExecutor = nullptr;
} // namespace detail

/** The executor driving the current thread, or null. */
inline ParallelExecutor*
currentParallelExecutor()
{
    return detail::tlsParallelExecutor;
}

/**
 * RAII installer, used by pool worker threads (for their lifetime) and
 * by tests (scoped).
 */
class ScopedParallelExecutor
{
  public:
    explicit ScopedParallelExecutor(ParallelExecutor* executor)
        : previous_(detail::tlsParallelExecutor)
    {
        detail::tlsParallelExecutor = executor;
    }

    ~ScopedParallelExecutor()
    {
        detail::tlsParallelExecutor = previous_;
    }

    ScopedParallelExecutor(const ScopedParallelExecutor&) = delete;
    ScopedParallelExecutor&
    operator=(const ScopedParallelExecutor&) = delete;

  private:
    ParallelExecutor* previous_;
};

} // namespace codecrunch
