/**
 * @file
 * Discrete-event queue with stable ordering and cancellation, built as
 * a hierarchical calendar (ladder) queue instead of a binary heap.
 *
 * Layout (DESIGN.md "Simulation core at scale"):
 *
 *   Top     unsorted pile of far-future events (when >= topStart_).
 *   Rungs   a stack of bucket arrays. Each rung spans a time range cut
 *           into equal-width buckets; an oversized bucket is re-spread
 *           into a deeper rung with finer buckets when it is reached,
 *           and a rung is dropped once its last bucket is taken.
 *   Bottom  a small sorted vector of near-now events, consumed front
 *           to back. A sorted insert that leaves more than 64 live
 *           entries turns them into a new deepest rung; the consumed
 *           prefix is dropped once it outgrows the live tail.
 *
 * Inserts append to Top or a bucket in O(1) and Bottom stays short,
 * so enqueue/dequeue are O(1) amortized at trace densities (vs
 * O(log n) heap sifts). Ordering is
 * the total order (when, seq) with seq a monotone insertion counter,
 * exactly the comparator the old heap used: events at equal timestamps
 * fire in insertion order (FIFO), which keeps simulations
 * bit-reproducible — the fire sequence, and therefore every golden
 * artifact, is unchanged by this rewrite. The differential suite in
 * tests/sim_core_test.cpp pits this queue against the retired heap
 * implementation (tests/legacy_heap_queue.hpp) over randomized op
 * streams to prove it.
 *
 * Cancellation is lazy: a cancelled event stays where it is and is
 * skipped when reached, keeping cancel() O(1). When cancelled entries
 * outnumber live ones all containers are swept in place (stable, so
 * the fire sequence is unchanged), bounding memory at ~2x the live
 * count under keep-alive retargeting churn.
 *
 * Handle state is pooled: EventHandle and the queue entry share a
 * refcounted slot from a deque-backed pool instead of a per-event
 * shared_ptr control block, so scheduling allocates nothing on the
 * steady state. Handles may outlive the queue (the pool is kept alive
 * by the handles' shared ownership); cancel() after queue destruction
 * is a no-op.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
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
 * Refcounted per-event state shared by handles and the queue entry.
 * Lives in StatePool's deque; recycled through a LIFO free list when
 * the last reference drops.
 */
struct EventState {
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
    acquire()
    {
        EventState* state;
        if (freeList) {
            state = freeList;
            freeList = state->nextFree;
        } else {
            state = &states.emplace_back();
        }
        state->status = EventStatus::Pending;
        state->refs = 1; // the queue entry's reference
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
 * Calendar/ladder priority queue of timestamped callbacks.
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

    ~EventQueue() { pool_->queue = nullptr; }

    /**
     * Schedule a callback at an absolute time.
     * @param when absolute simulated time; must be finite and
     *        >= now().
     * @return handle usable for cancellation.
     */
    EventHandle
    schedule(Seconds when, EventCallback callback)
    {
        // A NaN would break earlier()'s strict weak order and, like
        // +inf, make bucketIndex() cast a non-finite position.
        if (!std::isfinite(when))
            panic("EventQueue: non-finite event time ", when);
        if (when < now_)
            panic("EventQueue: scheduling into the past (", when,
                  " < ", now_, ")");
        detail::EventState* state = pool_->acquire();
        insert(Entry{when, nextSeq_++, state, std::move(callback)});
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
     * Entries currently held across Top/rungs/Bottom, including
     * lazily-cancelled ones (compaction keeps this bounded by ~2x
     * pending()). For tests.
     */
    std::size_t storedEntries() const { return entries_; }

    /**
     * Entries currently held in Bottom, including its consumed prefix
     * (bounded by ~2x its live tail). For tests.
     */
    std::size_t bottomEntries() const { return bottom_.size(); }

    /**
     * Fire the earliest live event.
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        Entry* head = peekLive();
        if (!head)
            return false;
        Entry entry = std::move(*head);
        consumeHead();
        --live_;
        now_ = entry.when;
        entry.state->status = detail::EventStatus::Fired;
        releaseEntryState(entry);
        entry.callback();
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
        for (;;) {
            Entry* head = peekLive();
            if (!head || head->when > limit)
                break;
            step();
        }
        if (now_ < limit)
            now_ = limit;
    }

  private:
    friend class EventHandle;

    struct Entry {
        Seconds when;
        std::uint64_t seq;
        detail::EventState* state;
        EventCallback callback;
    };

    /** (when, seq) ascending: the queue's one total order. */
    static bool
    earlier(const Entry& a, const Entry& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** One bucket array spanning [start, start + width * buckets). */
    struct Rung {
        Seconds start = 0.0;
        Seconds width = 1.0;
        std::size_t nextBucket = 0; // buckets below this are spent
        std::size_t count = 0;      // entries currently stored
        std::vector<std::vector<Entry>> buckets;
    };

    // Tuning: buckets re-spread, and Bottom spills into a rung, once
    // they exceed kSortThreshold entries; rungs have at most
    // kMaxBuckets buckets; recursion stops at kMaxDepth (degenerate
    // distributions fall back to sorting).
    static constexpr std::size_t kSortThreshold = 64;
    static constexpr std::size_t kMaxBuckets = 1u << 15;
    static constexpr std::size_t kMaxDepth = 24;

    /**
     * Bucket index for `when` in `rung`: monotone non-decreasing in
     * `when` regardless of floating-point rounding (clamped at both
     * ends), so inter-bucket ordering is always consistent with the
     * (when, seq) order.
     */
    static std::size_t
    bucketIndex(const Rung& rung, Seconds when)
    {
        const double pos = (when - rung.start) / rung.width;
        if (pos <= 0.0)
            return 0;
        const double cap =
            static_cast<double>(rung.buckets.size() - 1);
        return pos >= cap ? rung.buckets.size() - 1
                          : static_cast<std::size_t>(pos);
    }

    /** Route one entry to Top, a rung bucket, or sorted Bottom. */
    void
    insert(Entry entry)
    {
        ++entries_;
        if (!ladderActive_ || entry.when >= topStart_) {
            topMin_ = std::min(topMin_, entry.when);
            topMax_ = std::max(topMax_, entry.when);
            top_.push_back(std::move(entry));
            return;
        }
        for (Rung& rung : rungs_) {
            const std::size_t idx = bucketIndex(rung, entry.when);
            // A bucket at or past the consumption cursor still sorts
            // strictly after everything in deeper rungs and Bottom
            // (all of which came from earlier buckets), so placing
            // the entry there preserves the total order.
            if (idx >= rung.nextBucket) {
                rung.buckets[idx].push_back(std::move(entry));
                ++rung.count;
                return;
            }
        }
        bottomInsert(std::move(entry));
    }

    /**
     * Sorted insert into the live tail of Bottom. A tail grown past
     * bottomLimit_ moves into a new deepest rung: every Bottom entry
     * sorts before all unconsumed rung buckets, so this only
     * reorganizes. When the tail cannot be split (one timestamp, or
     * kMaxDepth) it stays sorted and the limit doubles until the next
     * refill, so a same-timestamp burst is not re-examined on every
     * insert.
     */
    void
    bottomInsert(Entry entry)
    {
        bottom_.insert(std::upper_bound(liveBottom(), bottom_.end(),
                                        entry, earlier),
                       std::move(entry));
        const std::size_t live = bottom_.size() - bottomHead_;
        if (live <= bottomLimit_)
            return;
        if (rungWidth(bottom_[bottomHead_].when, bottom_.back().when,
                      live) == 0.0) {
            bottomLimit_ *= 2;
            return;
        }
        std::vector<Entry> tail(std::make_move_iterator(liveBottom()),
                                std::make_move_iterator(bottom_.end()));
        bottom_.clear();
        bottomHead_ = 0;
        spread(std::move(tail));
    }

    /**
     * Earliest live entry, discarding cancelled ones and pulling work
     * down from rungs/Top as Bottom drains. Returns nullptr when the
     * queue is empty. Pure reorganization: never reorders live events.
     */
    Entry*
    peekLive()
    {
        for (;;) {
            while (bottomHead_ < bottom_.size()) {
                Entry& entry = bottom_[bottomHead_];
                if (entry.state->status ==
                    detail::EventStatus::Pending)
                    return &entry;
                releaseEntryState(entry);
                --entries_;
                ++bottomHead_;
            }
            bottom_.clear();
            bottomHead_ = 0;
            bottomLimit_ = kSortThreshold;
            if (!refillBottom())
                return nullptr;
        }
    }

    /**
     * Drop the entry peekLive() returned. The consumed prefix is
     * erased once it outgrows the live tail, so each erase shifts no
     * more entries than were consumed since the last one: pops stay
     * O(1) amortized and Bottom holds O(live) entries even in an
     * epoch that never drains it.
     */
    void
    consumeHead()
    {
        --entries_;
        ++bottomHead_;
        if (2 * bottomHead_ > bottom_.size()) {
            bottom_.erase(bottom_.begin(), liveBottom());
            bottomHead_ = 0;
        }
    }

    /** First entry of Bottom's live (unconsumed) tail. */
    std::vector<Entry>::iterator
    liveBottom()
    {
        return bottom_.begin() +
               static_cast<std::ptrdiff_t>(bottomHead_);
    }

    /**
     * Pull the next batch of entries toward Bottom: the deepest rung's
     * next non-empty bucket, or — when the ladder is drained — a spill
     * of the entire Top pile into a fresh rung epoch.
     * @return false when no entries remain anywhere.
     */
    bool
    refillBottom()
    {
        while (!rungs_.empty()) {
            Rung& rung = rungs_.back();
            if (rung.count == 0) {
                rungs_.pop_back();
                continue;
            }
            std::size_t idx = rung.nextBucket;
            while (idx < rung.buckets.size() &&
                   rung.buckets[idx].empty())
                ++idx;
            if (idx >= rung.buckets.size())
                panic("EventQueue: rung count ", rung.count,
                      " but no occupied bucket");
            std::vector<Entry> bucket = std::move(rung.buckets[idx]);
            rung.buckets[idx].clear();
            rung.count -= bucket.size();
            rung.nextBucket = idx + 1;
            // A spent rung passes every insert on to deeper rungs, so
            // dropping it changes no order. Kept, it would let its
            // last bucket (which takes everything past the rung's
            // range) deepen the ladder by one rung per re-spread
            // until kMaxDepth forces the sorted fallback.
            if (rung.nextBucket == rung.buckets.size())
                rungs_.pop_back();
            spread(std::move(bucket));
            return true;
        }
        if (top_.empty()) {
            // Fully drained: the next schedule starts a new epoch.
            ladderActive_ = false;
            return false;
        }
        // Spill Top. Future inserts at or past the old maximum go to
        // the new Top; they carry higher seq than anything spilled
        // here, so FIFO across the boundary is preserved.
        std::vector<Entry> pile = std::move(top_);
        top_.clear();
        topStart_ = topMax_;
        ladderActive_ = true;
        topMin_ = std::numeric_limits<double>::infinity();
        topMax_ = -std::numeric_limits<double>::infinity();
        spread(std::move(pile));
        return true;
    }

    /**
     * Bucket width of a new deepest rung for n entries spanning
     * [lo, hi], or 0 when there is none: the ladder is at kMaxDepth,
     * or the range is too narrow to split (e.g. one timestamp).
     */
    Seconds
    rungWidth(Seconds lo, Seconds hi, std::size_t n) const
    {
        if (rungs_.size() >= kMaxDepth)
            return 0.0;
        const Seconds width =
            (hi - lo) / static_cast<double>(std::min(kMaxBuckets, n));
        return width > 0.0 && lo + width > lo ? width : 0.0;
    }

    /**
     * Place a batch either sorted into (empty) Bottom or, when large
     * and spreadable, into a new finer-grained rung. Same-timestamp
     * bursts have zero range and take the sort path, which is what
     * keeps FIFO intact across epoch boundaries.
     */
    void
    spread(std::vector<Entry> entries)
    {
        Seconds lo = std::numeric_limits<double>::infinity();
        Seconds hi = -std::numeric_limits<double>::infinity();
        for (const Entry& entry : entries) {
            lo = std::min(lo, entry.when);
            hi = std::max(hi, entry.when);
        }
        const std::size_t n = entries.size();
        const Seconds width =
            n > kSortThreshold ? rungWidth(lo, hi, n) : 0.0;
        if (width > 0.0) {
            Rung rung;
            rung.start = lo;
            rung.width = width;
            rung.buckets.resize(std::min(kMaxBuckets, n));
            for (Entry& entry : entries) {
                const std::size_t idx = bucketIndex(rung, entry.when);
                rung.buckets[idx].push_back(std::move(entry));
            }
            rung.count = n;
            rungs_.push_back(std::move(rung));
            return;
        }
        std::sort(entries.begin(), entries.end(), earlier);
        bottom_ = std::move(entries);
        bottomHead_ = 0;
    }

    /** Drop the queue-entry reference on `entry`'s state. */
    void
    releaseEntryState(Entry& entry)
    {
        if (--entry.state->refs == 0)
            pool_->recycle(entry.state);
        entry.state = nullptr;
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
     * Sweep cancelled entries out of every container once they exceed
     * half of the stored total, bounding memory under schedule/cancel
     * churn. Sweeps are stable, so live ordering is untouched. The
     * small floor avoids sweep thrash on tiny queues.
     */
    void
    maybeCompact()
    {
        constexpr std::size_t kMinEntriesToCompact = 64;
        if (entries_ < kMinEntriesToCompact ||
            entries_ - live_ <= entries_ / 2)
            return;
        entries_ -= sweepVector(top_, 0);
        for (Rung& rung : rungs_) {
            for (auto& bucket : rung.buckets) {
                const std::size_t removed = sweepVector(bucket, 0);
                rung.count -= removed;
                entries_ -= removed;
            }
        }
        entries_ -= sweepVector(bottom_, bottomHead_);
    }

    /** Stable in-place removal of dead entries from v[from..). */
    std::size_t
    sweepVector(std::vector<Entry>& v, std::size_t from)
    {
        std::size_t out = from;
        std::size_t removed = 0;
        for (std::size_t i = from; i < v.size(); ++i) {
            if (v[i].state->status != detail::EventStatus::Pending) {
                releaseEntryState(v[i]);
                ++removed;
            } else {
                if (out != i)
                    v[out] = std::move(v[i]);
                ++out;
            }
        }
        v.resize(out);
        return removed;
    }

    std::shared_ptr<detail::StatePool> pool_;

    // Bottom: sorted ascending by (when, seq), consumed from
    // bottomHead_ so pops are pointer bumps, not vector erases. A
    // live tail longer than bottomLimit_ spills into a rung.
    std::vector<Entry> bottom_;
    std::size_t bottomHead_ = 0;
    std::size_t bottomLimit_ = kSortThreshold;

    std::vector<Rung> rungs_; // [0] outermost, back() deepest

    // Top: unsorted far-future pile. While the ladder is active,
    // events at or past topStart_ land here; min/max track the range
    // of the next spill.
    std::vector<Entry> top_;
    Seconds topStart_ = 0.0;
    Seconds topMin_ = std::numeric_limits<double>::infinity();
    Seconds topMax_ = -std::numeric_limits<double>::infinity();
    bool ladderActive_ = false;

    Seconds now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;    // pending entries
    std::size_t entries_ = 0; // stored entries incl. cancelled
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
