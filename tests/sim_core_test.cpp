/**
 * @file
 * Tests for the simulation core's event queue at scale:
 *
 *  - Differential queue suite: the 4-ary-heap EventQueue replayed side
 *    by side with the original binary-heap implementation
 *    (legacy_heap_queue.hpp: a shared_ptr per event, callbacks held in
 *    the heap entries) over a seeded ~10^6-operation stream of
 *    schedules, same-timestamp bursts, cancellations, steps and
 *    bounded runs — the fire sequences must match element for element,
 *    which is the proof that every golden artifact is independent of
 *    the queue's structure.
 *  - Fault-seeded runs: far-future events scheduled first, then a
 *    dense or sparse event chain below them. Fire sequences must match
 *    the legacy heap's.
 *  - Ordering edge cases: FIFO within a timestamp for a large burst,
 *    for events scheduled at the current time from inside the burst,
 *    and after the queue drains and refills. Non-finite event times
 *    panic.
 *  - Pooled handle state: handles outlive the queue, callbacks die
 *    when they fire or with the queue, and every differential run
 *    recycles event states through the pool's LIFO free list.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

#include "legacy_heap_queue.hpp"

using namespace codecrunch;
using namespace codecrunch::sim;

// --- differential queue suite ----------------------------------------------

namespace {

/** One scripted queue operation, pre-generated so both queues replay
 * the exact same decisions. */
struct QueueOp {
    enum Kind { Schedule, Cancel, Step, RunUntil } kind = Schedule;
    double delay = 0.0;      // Schedule / RunUntil (relative to now)
    std::size_t target = 0;  // Cancel: index into scheduled handles
    bool chain = false;      // Schedule: callback schedules a follow-up
    int steps = 0;           // Step: how many
};

/**
 * Seeded op stream. Schedules dominate; delays mix integer-quantized
 * values (forced same-timestamp collisions), short continuous delays
 * and far-future ones that sit deep in the heap while nearer events
 * churn above them.
 */
std::vector<QueueOp>
makeScript(std::uint64_t seed, std::size_t numOps)
{
    Rng rng(seed);
    std::vector<QueueOp> ops;
    ops.reserve(numOps);
    std::size_t scheduled = 0;
    for (std::size_t i = 0; i < numOps; ++i) {
        const double roll = rng.uniform();
        QueueOp op;
        if (roll < 0.55 || scheduled == 0) {
            op.kind = QueueOp::Schedule;
            const double shape = rng.uniform();
            if (shape < 0.25) // collision-prone integer timestamps
                op.delay =
                    static_cast<double>(rng.uniformInt(0, 40));
            else if (shape < 0.85) // near-now continuum
                op.delay = rng.uniform(0.0, 120.0);
            else // far future
                op.delay = rng.uniform(1000.0, 50000.0);
            op.chain = rng.bernoulli(0.15);
            ++scheduled;
        } else if (roll < 0.70) {
            op.kind = QueueOp::Cancel;
            op.target = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(scheduled) - 1));
        } else if (roll < 0.90) {
            op.kind = QueueOp::Step;
            op.steps = static_cast<int>(rng.uniformInt(1, 8));
        } else {
            op.kind = QueueOp::RunUntil;
            op.delay = rng.uniform(0.0, 300.0);
        }
        ops.push_back(op);
    }
    return ops;
}

/** (fire time, event id) trace of one full replay, drained at the
 * end. Works for both queue implementations. */
template <typename Queue, typename Handle>
std::vector<std::pair<double, std::uint64_t>>
replayScript(const std::vector<QueueOp>& ops)
{
    Queue queue;
    std::vector<Handle> handles;
    std::vector<std::pair<double, std::uint64_t>> fired;
    std::uint64_t nextId = 0;
    constexpr std::uint64_t kChainBase = 1u << 30;
    for (const QueueOp& op : ops) {
        switch (op.kind) {
        case QueueOp::Schedule: {
            const std::uint64_t id = nextId++;
            const bool chain = op.chain;
            handles.push_back(queue.scheduleAfter(
                op.delay, [&queue, &fired, id, chain] {
                    fired.emplace_back(queue.now(), id);
                    if (chain) // schedule-from-callback path
                        queue.scheduleAfter(
                            0.5, [&queue, &fired, id] {
                                fired.emplace_back(queue.now(),
                                                   kChainBase + id);
                            });
                }));
            break;
        }
        case QueueOp::Cancel:
            handles[op.target].cancel();
            break;
        case QueueOp::Step:
            for (int s = 0; s < op.steps; ++s)
                queue.step();
            break;
        case QueueOp::RunUntil:
            queue.runUntil(queue.now() + op.delay);
            break;
        }
    }
    queue.run();
    return fired;
}

} // namespace

TEST(DifferentialQueue, MillionOpStreamMatchesLegacyHeap)
{
    // ~10^6 queue operations once fires/cancels are counted in.
    const auto script = makeScript(/*seed=*/2024, /*numOps=*/400'000);
    const auto queue =
        replayScript<EventQueue, EventHandle>(script);
    const auto legacy =
        replayScript<legacy::LegacyHeapQueue,
                     legacy::LegacyEventHandle>(script);
    ASSERT_EQ(queue.size(), legacy.size());
    for (std::size_t i = 0; i < queue.size(); ++i) {
        ASSERT_EQ(queue[i].second, legacy[i].second)
            << "fire sequence diverges at position " << i;
        ASSERT_DOUBLE_EQ(queue[i].first, legacy[i].first)
            << "fire time diverges at position " << i;
    }
}

TEST(DifferentialQueue, MultipleSeedsMatch)
{
    for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
        const auto script = makeScript(seed, 30'000);
        const auto queue =
            replayScript<EventQueue, EventHandle>(script);
        const auto legacy =
            replayScript<legacy::LegacyHeapQueue,
                         legacy::LegacyEventHandle>(script);
        EXPECT_EQ(queue, legacy) << "seed " << seed;
    }
}

// --- fault-seeded runs ------------------------------------------------------

namespace {

/**
 * The queue shape Driver::run produces. A few dozen far-future fault
 * events go in first, and every later event lands below the last of
 * them. On top runs a self-rescheduling arrival chain. Each arrival schedules a short
 * finish and cancels and re-arms its function's long expiry
 * (keep-alive retargeting). Arrival `burstAt` also schedules
 * `burstSize` events at one timestamp, each of which schedules a
 * follow-up at that same timestamp when it fires.
 */
struct FaultSeededShape {
    int faults = 0;
    int arrivals = 0;
    int functions = 1;
    double meanGap = 1.0;   // arrival gaps drawn from [0, 2 * meanGap)
    double finishMax = 1.0; // finish delays drawn from [0, finishMax)
    double keepAlive = 0.0; // expiry delay; 0 schedules no expiries
    int burstAt = -1;
    int burstSize = 0;
};

struct FaultSeededRun {
    std::vector<std::pair<double, std::uint64_t>> fired;
    std::size_t maxPending = 0;
};

template <typename Queue, typename Handle>
FaultSeededRun
replayFaultSeeded(const FaultSeededShape& shape, std::uint64_t seed)
{
    // Every draw is made up front, so both queues replay the same
    // decisions whatever order their events fire in.
    Rng rng(seed);
    std::vector<double> faultTimes;
    for (int f = 0; f < shape.faults; ++f)
        faultTimes.push_back(rng.uniform(1e4, 1e6));
    std::vector<double> gaps, finishes;
    std::vector<std::size_t> functions;
    for (int i = 0; i < shape.arrivals; ++i) {
        gaps.push_back(rng.uniform(0.0, 2.0 * shape.meanGap));
        finishes.push_back(rng.uniform(0.0, shape.finishMax));
        functions.push_back(static_cast<std::size_t>(
            rng.uniformInt(0, shape.functions - 1)));
    }

    Queue queue;
    FaultSeededRun run;
    std::vector<Handle> expiries(
        static_cast<std::size_t>(shape.functions));
    const auto record = [&](std::uint64_t id) {
        run.fired.emplace_back(queue.now(), id);
        run.maxPending = std::max(run.maxPending, queue.pending());
    };
    // Every event gets its own id: faults first, then three per
    // arrival (arrival, finish, expiry), then two per burst event (the
    // event and its follow-up).
    const auto arrivalIds = static_cast<std::uint64_t>(shape.faults);
    const auto burstIds =
        arrivalIds + 3 * static_cast<std::uint64_t>(shape.arrivals);
    const auto id = [&](int arrival, std::uint64_t kind) {
        return arrivalIds + 3 * static_cast<std::uint64_t>(arrival) +
               kind;
    };
    for (int f = 0; f < shape.faults; ++f)
        queue.schedule(faultTimes[static_cast<std::size_t>(f)],
                       [&record, f] {
                           record(static_cast<std::uint64_t>(f));
                       });
    std::function<void(int)> arrive = [&](int i) {
        const auto at = static_cast<std::size_t>(i);
        record(id(i, 0));
        queue.scheduleAfter(finishes[at], [&, i] { record(id(i, 1)); });
        if (shape.keepAlive > 0.0) {
            Handle& expiry = expiries[functions[at]];
            expiry.cancel();
            expiry = queue.scheduleAfter(shape.keepAlive + finishes[at],
                                         [&, i] { record(id(i, 2)); });
        }
        if (i == shape.burstAt) {
            for (int b = 0; b < shape.burstSize; ++b) {
                const std::uint64_t burstId =
                    burstIds + 2 * static_cast<std::uint64_t>(b);
                queue.scheduleAfter(3.0, [&, burstId] {
                    record(burstId);
                    queue.scheduleAfter(0.0, [&, burstId] {
                        record(burstId + 1);
                    });
                });
            }
        }
        if (i + 1 < shape.arrivals)
            queue.scheduleAfter(gaps[at + 1], [&arrive, i] {
                arrive(i + 1);
            });
    };
    if (shape.arrivals > 0)
        queue.schedule(gaps[0], [&arrive] { arrive(0); });
    queue.run();
    return run;
}

void
expectSameFires(const FaultSeededRun& queue, const FaultSeededRun& legacy)
{
    ASSERT_EQ(queue.fired.size(), legacy.fired.size());
    for (std::size_t i = 0; i < queue.fired.size(); ++i) {
        ASSERT_EQ(queue.fired[i].second, legacy.fired[i].second)
            << "fire sequence diverges at position " << i;
        ASSERT_EQ(queue.fired[i].first, legacy.fired[i].first)
            << "fire time diverges at position " << i;
    }
}

} // namespace

TEST(DifferentialQueue, FaultSeededEpochMatchesLegacyHeap)
{
    // ~400 live expiries, a few finishes and one 200-event burst, all
    // below the last fault, over 20,000 simulated seconds.
    FaultSeededShape shape;
    shape.faults = 48;
    shape.arrivals = 200'000;
    shape.functions = 400;
    shape.meanGap = 0.1;
    shape.finishMax = 2.0;
    shape.keepAlive = 600.0;
    shape.burstAt = 30'000;
    shape.burstSize = 200;
    const auto queue =
        replayFaultSeeded<EventQueue, EventHandle>(shape, 11);
    const auto legacy =
        replayFaultSeeded<legacy::LegacyHeapQueue,
                          legacy::LegacyEventHandle>(shape, 11);
    expectSameFires(queue, legacy);
    EXPECT_GT(queue.maxPending, 400u);
}

TEST(EventQueue, SparseFaultSeededEpochMatchesLegacyHeap)
{
    // Fewer than 64 events pending at any time, below the far-future
    // faults.
    FaultSeededShape shape;
    shape.faults = 16;
    shape.arrivals = 200'000;
    shape.meanGap = 1.0;
    shape.finishMax = 2.0;
    const auto queue =
        replayFaultSeeded<EventQueue, EventHandle>(shape, 12);
    const auto legacy =
        replayFaultSeeded<legacy::LegacyHeapQueue,
                          legacy::LegacyEventHandle>(shape, 12);
    expectSameFires(queue, legacy);
    ASSERT_LT(queue.maxPending, 64u);
}

TEST(EventQueue, NanTimePanics)
{
    EventQueue queue;
    EXPECT_DEATH(queue.schedule(std::numeric_limits<double>::quiet_NaN(),
                                [] {}),
                 "non-finite event time");
}

TEST(EventQueue, InfiniteTimePanics)
{
    EventQueue queue;
    EXPECT_DEATH(queue.schedule(std::numeric_limits<double>::infinity(),
                                [] {}),
                 "non-finite event time");
}

// --- ordering edge cases ----------------------------------------------------

TEST(EventQueue, FifoWithinTimestampAcrossLargeBurst)
{
    // 300 same-timestamp events: only seq orders them, and FIFO within
    // the timestamp must hold through every sift. The 100th callback
    // schedules 50 more at the SAME (now current) timestamp — they
    // must fire after every original, again in insertion order.
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 300; ++i) {
        queue.schedule(1000.0, [&queue, &order, i] {
            order.push_back(i);
            if (i == 100) {
                for (int j = 0; j < 50; ++j)
                    queue.schedule(1000.0, [&order, j] {
                        order.push_back(300 + j);
                    });
            }
        });
    }
    queue.run();
    ASSERT_EQ(order.size(), 350u);
    for (int i = 0; i < 350; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, FifoSurvivesDrainAndRefill)
{
    // Drain the queue completely, then run a second burst of two
    // interleaved timestamps into the emptied heap.
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        queue.schedule(10.0, [&order, i] { order.push_back(i); });
    queue.run();
    for (int i = 0; i < 100; ++i)
        queue.schedule(2000.0 + (i % 2 == 0 ? 0.0 : 1.0),
                       [&order, i] { order.push_back(100 + i); });
    queue.run();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
    // Second burst: all even offsets (t=2000) in insertion order,
    // then all odd (t=2001) in insertion order.
    std::vector<int> expected;
    for (int i = 0; i < 100; i += 2)
        expected.push_back(100 + i);
    for (int i = 1; i < 100; i += 2)
        expected.push_back(100 + i);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[100 + i], expected[i]);
}

TEST(EventQueue, CancellationCompactionKeepsStorageBounded)
{
    // Schedule/cancel churn: stored entries (incl. lazily-cancelled)
    // must stay within ~2x the live count instead of growing without
    // bound.
    EventQueue queue;
    std::vector<EventHandle> handles;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 100; ++i)
            handles.push_back(
                queue.schedule(1e6 + round * 100 + i, [] {}));
        for (int i = 0; i < 90; ++i) {
            handles.back().cancel();
            handles.pop_back();
        }
    }
    EXPECT_EQ(queue.pending(), 100u * 10u);
    EXPECT_LE(queue.storedEntries(), 2 * queue.pending() + 64);
    queue.run();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.storedEntries(), 0u);
}

TEST(EventQueue, HandlesOutliveQueue)
{
    // The pooled handle state is shared ownership: cancel() after the
    // queue is destroyed must be a safe no-op.
    EventHandle survivor;
    {
        EventQueue queue;
        survivor = queue.schedule(5.0, [] {});
    }
    EXPECT_TRUE(survivor.pending());
    survivor.cancel(); // no queue left: must not crash
}

TEST(EventQueue, CallbacksDieWhenFiredOrWithTheQueue)
{
    // Callbacks live in the pooled slots that handles share, so
    // neither a fired event's handle nor one that outlives the queue
    // may keep a callback's captures alive.
    auto capture = std::make_shared<int>(0);
    EventHandle fired, pending;
    {
        EventQueue queue;
        fired = queue.schedule(1.0, [capture] {});
        pending = queue.schedule(5.0, [capture] {});
        queue.schedule(6.0, [capture] {}).cancel();
        EXPECT_EQ(capture.use_count(), 4);
        queue.runUntil(2.0);
        EXPECT_TRUE(fired.fired());
        EXPECT_EQ(capture.use_count(), 3);
    }
    EXPECT_EQ(capture.use_count(), 1);
    EXPECT_TRUE(pending.pending());
}
