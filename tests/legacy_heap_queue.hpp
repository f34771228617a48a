/**
 * @file
 * Test-only copy of the simulator's original binary-heap EventQueue.
 *
 * src/sim/event_queue.hpp is proven correct by running this
 * implementation side by side with it over large randomized op streams
 * (sim_core_test.cpp, DifferentialQueue*) and asserting identical pop
 * sequences. The oracle stays a different implementation from the
 * queue it checks: a shared_ptr per event, std::push_heap/pop_heap
 * over a binary heap, and callbacks held in the heap entries. The
 * class is a rename of the old queue, kept verbatim so the oracle's
 * semantics are exactly what every golden artifact was generated
 * against. It lives under tests/ and is not linked into the simulator.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace codecrunch::sim::legacy {

using EventCallback = std::function<void()>;

class LegacyHeapQueue;

namespace detail {

enum class EventStatus : std::uint8_t { Pending, Fired, Cancelled };

struct EventState {
    EventStatus status = EventStatus::Pending;
    LegacyHeapQueue* queue = nullptr;
};

} // namespace detail

/** Handle for cancelling an event scheduled on a LegacyHeapQueue. */
class LegacyEventHandle
{
  public:
    LegacyEventHandle() = default;

    void cancel();

    bool valid() const { return state_ != nullptr; }

    bool
    cancelled() const
    {
        return state_ &&
               state_->status == detail::EventStatus::Cancelled;
    }

    bool
    fired() const
    {
        return state_ && state_->status == detail::EventStatus::Fired;
    }

    bool
    pending() const
    {
        return state_ && state_->status == detail::EventStatus::Pending;
    }

  private:
    friend class LegacyHeapQueue;

    explicit LegacyEventHandle(
        std::shared_ptr<detail::EventState> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<detail::EventState> state_;
};

/**
 * The original binary-heap event queue: std::push_heap/pop_heap over
 * (when, seq) with lazy cancellation and half-dead compaction.
 */
class LegacyHeapQueue
{
  public:
    LegacyEventHandle
    schedule(Seconds when, EventCallback callback)
    {
        if (when < now_)
            panic("LegacyHeapQueue: scheduling into the past (", when,
                  " < ", now_, ")");
        auto state = std::make_shared<detail::EventState>();
        state->queue = this;
        heap_.push_back(
            Entry{when, nextSeq_++, state, std::move(callback)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
        ++live_;
        return LegacyEventHandle(std::move(state));
    }

    LegacyEventHandle
    scheduleAfter(Seconds delay, EventCallback callback)
    {
        return schedule(now_ + delay, std::move(callback));
    }

    Seconds now() const { return now_; }

    std::size_t pending() const { return live_; }

    bool empty() const { return live_ == 0; }

    std::size_t heapEntries() const { return heap_.size(); }

    bool
    step()
    {
        while (!heap_.empty()) {
            Entry entry = popTop();
            if (entry.state->status != detail::EventStatus::Pending)
                continue; // lazily discard cancelled entries
            --live_;
            now_ = entry.when;
            entry.state->status = detail::EventStatus::Fired;
            entry.callback();
            return true;
        }
        return false;
    }

    void
    run()
    {
        while (step()) {
        }
    }

    void
    runUntil(Seconds limit)
    {
        while (!heap_.empty()) {
            while (!heap_.empty() &&
                   heap_.front().state->status !=
                       detail::EventStatus::Pending) {
                popTop();
            }
            if (heap_.empty() || heap_.front().when > limit)
                break;
            step();
        }
        if (now_ < limit)
            now_ = limit;
    }

  private:
    friend class LegacyEventHandle;

    struct Entry {
        Seconds when;
        std::uint64_t seq;
        std::shared_ptr<detail::EventState> state;
        EventCallback callback;
    };

    struct Later {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Entry
    popTop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry entry = std::move(heap_.back());
        heap_.pop_back();
        return entry;
    }

    void
    noteCancelled()
    {
        if (live_ == 0)
            panic("LegacyHeapQueue: cancellation underflow");
        --live_;
        maybeCompact();
    }

    void
    maybeCompact()
    {
        constexpr std::size_t kMinEntriesToCompact = 64;
        if (heap_.size() < kMinEntriesToCompact ||
            heap_.size() - live_ <= heap_.size() / 2)
            return;
        std::erase_if(heap_, [](const Entry& entry) {
            return entry.state->status !=
                   detail::EventStatus::Pending;
        });
        std::make_heap(heap_.begin(), heap_.end(), Later{});
    }

    std::vector<Entry> heap_;
    Seconds now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
};

inline void
LegacyEventHandle::cancel()
{
    if (state_ && state_->status == detail::EventStatus::Pending) {
        state_->status = detail::EventStatus::Cancelled;
        state_->queue->noteCancelled();
    }
}

} // namespace codecrunch::sim::legacy
