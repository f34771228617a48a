/**
 * @file
 * Discrete-event queue with stable ordering and cancellation: a 4-ary
 * min-heap of small keys (DESIGN.md "Simulation core at scale").
 *
 * Each pending event is one 24-byte key {when, seq, state} in the
 * heap. The callback lives in the pooled, refcounted state slot the
 * event's handles share, so sifts move plain keys, never a
 * std::function. Ordering is the total order (when, seq) with seq a
 * monotone insertion counter: events at equal timestamps fire in
 * insertion order (FIFO), which keeps simulations bit-reproducible.
 * Any correct priority queue over that order fires the same sequence,
 * so every golden artifact is independent of the structure; the
 * differential suite in tests/sim_core_test.cpp pits this queue
 * against the original binary heap (tests/legacy_heap_queue.hpp) over
 * randomized op streams to prove it.
 *
 * The heap is 4-ary rather than binary: half the levels per sift, and
 * a node's four children share one or two cache lines.
 *
 * Cancellation is lazy: a cancelled event's key stays in the heap and
 * is discarded when it reaches the root, keeping cancel() O(1). When
 * cancelled keys outnumber live ones, they are swept out and the heap
 * is rebuilt, bounding memory at ~2x the live count under keep-alive
 * retargeting churn.
 *
 * Handle state is pooled: EventHandle and the heap key share a
 * refcounted slot from a deque-backed pool instead of a per-event
 * shared_ptr control block, so scheduling allocates nothing on the
 * steady state. Handles may outlive the queue (the pool is kept alive
 * by the handles' shared ownership); cancel() after queue destruction
 * is a no-op.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace codecrunch::sim {

/** Callback invoked when an event fires. */
using EventCallback = std::function<void()>;

class EventQueue;

namespace detail {

/** Lifecycle of one scheduled event. */
enum class EventStatus : std::uint8_t { Pending, Fired, Cancelled };

/**
 * Refcounted per-event state shared by handles and the heap key, and
 * the home of the event's callback until it fires or its key is
 * dropped. Lives in StatePool's deque; recycled through a LIFO free
 * list when the last reference drops.
 */
struct EventState {
    EventCallback callback;
    EventStatus status = EventStatus::Pending;
    std::uint32_t refs = 0;
    EventState* nextFree = nullptr;
};

/**
 * Pool of EventState slots. Shared (via shared_ptr) between the queue
 * and every handle so handle destructors stay safe after the queue is
 * gone; `queue` is nulled by ~EventQueue.
 */
struct StatePool {
    EventQueue* queue = nullptr;
    /** Every state ever made; emplace_back never moves the others. */
    std::deque<EventState> states;
    EventState* freeList = nullptr;

    EventState*
    acquire(EventCallback callback)
    {
        EventState* state;
        if (freeList) {
            state = freeList;
            freeList = state->nextFree;
        } else {
            state = &states.emplace_back();
        }
        state->callback = std::move(callback);
        state->status = EventStatus::Pending;
        state->refs = 1; // the heap key's reference
        state->nextFree = nullptr;
        return state;
    }

    void
    recycle(EventState* state)
    {
        state->nextFree = freeList;
        freeList = state;
    }
};

} // namespace detail

/**
 * Handle for cancelling a scheduled event.
 *
 * Copyable; all copies refer to the same scheduled event. A default
 * constructed handle refers to nothing and cancel() is a no-op.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    EventHandle(const EventHandle& other)
        : pool_(other.pool_), state_(other.state_)
    {
        if (state_)
            ++state_->refs;
    }

    EventHandle(EventHandle&& other) noexcept
        : pool_(std::move(other.pool_)), state_(other.state_)
    {
        other.state_ = nullptr;
    }

    EventHandle&
    operator=(const EventHandle& other)
    {
        if (this != &other) {
            release();
            pool_ = other.pool_;
            state_ = other.state_;
            if (state_)
                ++state_->refs;
        }
        return *this;
    }

    EventHandle&
    operator=(EventHandle&& other) noexcept
    {
        if (this != &other) {
            release();
            pool_ = std::move(other.pool_);
            state_ = other.state_;
            other.state_ = nullptr;
        }
        return *this;
    }

    ~EventHandle() { release(); }

    /** Cancel the event if it has not fired yet. */
    void cancel();

    /** True if this handle refers to a scheduled (possibly fired) event. */
    bool valid() const { return state_ != nullptr; }

    /** True if the event will never fire because it was cancelled. */
    bool
    cancelled() const
    {
        return state_ &&
               state_->status == detail::EventStatus::Cancelled;
    }

    /** True if the event already fired. */
    bool
    fired() const
    {
        return state_ && state_->status == detail::EventStatus::Fired;
    }

    /** True if the event is still scheduled to fire. */
    bool
    pending() const
    {
        return state_ && state_->status == detail::EventStatus::Pending;
    }

  private:
    friend class EventQueue;

    EventHandle(std::shared_ptr<detail::StatePool> pool,
                detail::EventState* state)
        : pool_(std::move(pool)), state_(state)
    {
        ++state_->refs;
    }

    void
    release()
    {
        if (state_ && --state_->refs == 0)
            pool_->recycle(state_);
        state_ = nullptr;
    }

    std::shared_ptr<detail::StatePool> pool_;
    detail::EventState* state_ = nullptr;
};

/**
 * Min-heap priority queue of timestamped callbacks.
 */
class EventQueue
{
  public:
    EventQueue()
        : pool_(std::make_shared<detail::StatePool>())
    {
        pool_->queue = this;
    }

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Pending callbacks are destroyed here; handles stay valid. */
    ~EventQueue()
    {
        pool_->queue = nullptr;
        for (const Key& key : heap_)
            drop(key);
    }

    /**
     * Schedule a callback at an absolute time.
     * @param when absolute simulated time; must be finite and
     *        >= now().
     * @return handle usable for cancellation.
     */
    EventHandle
    schedule(Seconds when, EventCallback callback)
    {
        // A NaN would break earlier()'s strict weak order; an
        // infinite time would leave no later time to schedule at.
        if (!std::isfinite(when))
            panic("EventQueue: non-finite event time ", when);
        if (when < now_)
            panic("EventQueue: scheduling into the past (", when,
                  " < ", now_, ")");
        detail::EventState* state = pool_->acquire(std::move(callback));
        heap_.push_back(Key{when, nextSeq_++, state});
        siftUp(heap_.size() - 1);
        ++live_;
        return EventHandle(pool_, state);
    }

    /** Schedule a callback after a relative delay. */
    EventHandle
    scheduleAfter(Seconds delay, EventCallback callback)
    {
        return schedule(now_ + delay, std::move(callback));
    }

    /** Current simulated time. */
    Seconds now() const { return now_; }

    /** Number of scheduled, not-yet-fired, not-cancelled events. */
    std::size_t pending() const { return live_; }

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /**
     * Keys currently in the heap, including lazily-cancelled ones
     * (compaction keeps this bounded by ~2x pending()). For tests.
     */
    std::size_t storedEntries() const { return heap_.size(); }

    /**
     * Fire the earliest live event.
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        if (!liveRoot())
            return false;
        const Key key = popRoot();
        --live_;
        now_ = key.when;
        key.state->status = detail::EventStatus::Fired;
        // Released before the callback runs, so an event the callback
        // schedules reuses this slot when no handle holds it.
        EventCallback callback = std::move(key.state->callback);
        release(key.state);
        callback();
        return true;
    }

    /** Run until the queue is empty. */
    void
    run()
    {
        while (step()) {
        }
    }

    /**
     * Run until the queue is empty or simulated time would pass `limit`.
     * Events at exactly `limit` still fire; afterwards now() >= limit.
     */
    void
    runUntil(Seconds limit)
    {
        while (liveRoot() && heap_.front().when <= limit)
            step();
        if (now_ < limit)
            now_ = limit;
    }

  private:
    friend class EventHandle;

    /** One heap slot: the sort key and the event it stands for. */
    struct Key {
        Seconds when;
        std::uint64_t seq;
        detail::EventState* state;
    };

    /** (when, seq) ascending: the queue's one total order. */
    static bool
    earlier(const Key& a, const Key& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    // Slot i's children are 4i+1 .. 4i+4 and its parent is (i-1)/4.

    void
    siftUp(std::size_t i)
    {
        const Key key = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!earlier(key, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = key;
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        const Key key = heap_[i];
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            const std::size_t end = first + 4 < n ? first + 4 : n;
            std::size_t least = first;
            for (std::size_t c = first + 1; c < end; ++c)
                if (earlier(heap_[c], heap_[least]))
                    least = c;
            if (!earlier(heap_[least], key))
                break;
            heap_[i] = heap_[least];
            i = least;
        }
        heap_[i] = key;
    }

    /** Remove and return the root key. The heap must be non-empty. */
    Key
    popRoot()
    {
        const Key root = heap_.front();
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
        return root;
    }

    /**
     * Discard cancelled keys at the root.
     * @return true when the root is a live event.
     */
    bool
    liveRoot()
    {
        while (!heap_.empty()) {
            if (heap_.front().state->status ==
                detail::EventStatus::Pending)
                return true;
            drop(popRoot());
        }
        return false;
    }

    /** Drop the heap key's reference on `state`. */
    void
    release(detail::EventState* state)
    {
        if (--state->refs == 0)
            pool_->recycle(state);
    }

    /** Drop an unfired key: its callback goes with it. */
    void
    drop(const Key& key)
    {
        key.state->callback = nullptr;
        release(key.state);
    }

    void
    noteCancelled()
    {
        if (live_ == 0)
            panic("EventQueue: cancellation underflow");
        --live_;
        maybeCompact();
    }

    /**
     * Sweep cancelled keys out once they exceed half of the heap, then
     * rebuild it, bounding memory under schedule/cancel churn. The
     * order is total, so the rebuild cannot change what fires when.
     * The small floor avoids sweep thrash on tiny queues.
     */
    void
    maybeCompact()
    {
        constexpr std::size_t kMinEntriesToCompact = 64;
        if (heap_.size() < kMinEntriesToCompact ||
            heap_.size() - live_ <= heap_.size() / 2)
            return;
        std::size_t out = 0;
        for (const Key& key : heap_) {
            if (key.state->status == detail::EventStatus::Pending)
                heap_[out++] = key;
            else
                drop(key);
        }
        heap_.resize(out);
        // Floyd's build: sift each of the (out + 2) / 4 inner slots
        // down, deepest first.
        for (std::size_t i = (out + 2) / 4; i-- > 0;)
            siftDown(i);
    }

    std::shared_ptr<detail::StatePool> pool_;
    std::vector<Key> heap_;
    Seconds now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0; // pending keys
};

inline void
EventHandle::cancel()
{
    if (state_ && state_->status == detail::EventStatus::Pending) {
        state_->status = detail::EventStatus::Cancelled;
        if (pool_->queue)
            pool_->queue->noteCancelled();
    }
}

} // namespace codecrunch::sim
