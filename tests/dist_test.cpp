/**
 * @file
 * Distributed-runner tests: framing (round trip, truncation, garbage,
 * oversize), message codecs, the job-result codec, plan fingerprints,
 * stats-delta shipping, and an in-process master/worker end-to-end run
 * including the version-mismatch handshake rejection. The full
 * kill-a-worker-mid-sweep artifact check lives in ctest as
 * dist_identity_* / dist_kill_* (tools/golden_check.py --mode dist*).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dist/framing.hpp"
#include "dist/master.hpp"
#include "dist/protocol.hpp"
#include "dist/socket.hpp"
#include "dist/worker.hpp"
#include "obs/stats.hpp"
#include "runner/serial.hpp"

using namespace codecrunch;
using namespace codecrunch::dist;
using codecrunch::runner::ExecBackend;
using codecrunch::runner::JobCodec;

// --- Framing ------------------------------------------------------------

TEST(Framing, RoundTripsAcrossPartialFeeds)
{
    const std::string frame = encodeFrame(7, "hello");
    FrameParser parser;
    // Feed byte by byte: no frame until the last byte arrives.
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        parser.feed(std::string_view(&frame[i], 1));
        EXPECT_FALSE(parser.next().has_value());
    }
    parser.feed(std::string_view(&frame.back(), 1));
    const auto out = parser.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, 7);
    EXPECT_EQ(out->payload, "hello");
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_EQ(parser.pendingBytes(), 0u);
}

TEST(Framing, ManyFramesInOneFeed)
{
    std::string wire;
    for (int i = 0; i < 5; ++i)
        wire += encodeFrame(static_cast<std::uint8_t>(i),
                            std::string(i, 'x'));
    FrameParser parser;
    parser.feed(wire);
    for (int i = 0; i < 5; ++i) {
        const auto frame = parser.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, i);
        EXPECT_EQ(frame->payload.size(),
                  static_cast<std::size_t>(i));
    }
    EXPECT_FALSE(parser.next().has_value());
}

TEST(Framing, CursorSurvivesCompactionAcrossManyFrames)
{
    // Push enough consumed bytes through the parser to cross its
    // internal compaction threshold several times, interleaving
    // feeds and pops so frames straddle compaction points.
    FrameParser parser;
    const std::string payload(1031, 'p');
    std::string wire;
    for (int i = 0; i < 400; ++i)
        wire += encodeFrame(static_cast<std::uint8_t>(i % 251),
                            payload);
    std::size_t popped = 0;
    for (std::size_t at = 0; at < wire.size();) {
        const std::size_t chunk =
            std::min<std::size_t>(4096, wire.size() - at);
        parser.feed(std::string_view(wire).substr(at, chunk));
        at += chunk;
        while (auto frame = parser.next()) {
            EXPECT_EQ(frame->type,
                      static_cast<std::uint8_t>(popped % 251));
            EXPECT_EQ(frame->payload, payload);
            ++popped;
        }
    }
    EXPECT_EQ(popped, 400u);
    EXPECT_EQ(parser.pendingBytes(), 0u);
}

TEST(Framing, ZeroLengthFrameIsRejected)
{
    FrameParser parser;
    parser.feed(std::string(5, '\0')); // length 0 + one junk byte
    EXPECT_THROW(parser.next(), FramingError);
}

TEST(Framing, OversizedLengthIsRejectedBeforeAllocation)
{
    ByteWriter writer;
    writer.u32(kMaxFrameBytes + 1);
    FrameParser parser;
    parser.feed(writer.bytes());
    EXPECT_THROW(parser.next(), FramingError);
}

TEST(Framing, OversizedPayloadCannotBeEncoded)
{
    // Encoding checks the bound too, so a huge result fails loudly on
    // the sender instead of poisoning the stream.
    EXPECT_THROW(
        encodeFrame(1, std::string_view(nullptr, kMaxFrameBytes)),
        FramingError);
}

// --- Message codecs -----------------------------------------------------

TEST(Protocol, HelloRoundTrip)
{
    Hello in;
    in.pid = 4242;
    in.connectAttempts = 3;
    const Hello out = decodeHello(encodeHello(in));
    EXPECT_EQ(out.magic, kMagic);
    EXPECT_EQ(out.version, kProtocolVersion);
    EXPECT_EQ(out.pid, 4242u);
    EXPECT_EQ(out.connectAttempts, 3u);
}

TEST(Protocol, TruncatedAndOversizedPayloadsAreRejected)
{
    const std::string hello = encodeHello(Hello{});
    EXPECT_THROW(
        decodeHello(std::string_view(hello).substr(0, 5)),
        DecodeError);
    EXPECT_THROW(decodeHello(hello + "x"), DecodeError);

    PlanBegin begin;
    begin.planName = "p";
    const std::string plan = encodePlanBegin(begin);
    EXPECT_THROW(
        decodePlanBegin(std::string_view(plan).substr(0, 9)),
        DecodeError);
    EXPECT_THROW(decodeJobResult("garbage"), DecodeError);
}

TEST(Protocol, PlanResultsRoundTrip)
{
    PlanResults in;
    in.planSeq = 9;
    in.outcomes.push_back(ExecBackend::JobOutcome{"payload", ""});
    in.outcomes.push_back(ExecBackend::JobOutcome{"", "it broke"});
    const PlanResults out = decodePlanResults(encodePlanResults(in));
    EXPECT_EQ(out.planSeq, 9u);
    ASSERT_EQ(out.outcomes.size(), 2u);
    EXPECT_TRUE(out.outcomes[0].ok());
    EXPECT_EQ(out.outcomes[0].payload, "payload");
    EXPECT_FALSE(out.outcomes[1].ok());
    EXPECT_EQ(out.outcomes[1].error, "it broke");
}

// --- Job-result codec ---------------------------------------------------

namespace {

enum class Kind : std::uint8_t { A = 1, B = 7 };

struct Inner {
    std::string tag;
    std::vector<double> values;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(tag);
        v(values);
    }
};

struct Outer {
    bool flag = false;
    Kind kind = Kind::A;
    std::int32_t count = 0;
    double exact = 0.0;
    std::vector<Inner> inners;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(flag);
        v(kind);
        v(count);
        v(exact);
        v(inners);
    }
};

} // namespace

TEST(JobCodec, NestedAggregateRoundTripsExactly)
{
    Outer in;
    in.flag = true;
    in.kind = Kind::B;
    in.count = -12345;
    in.exact = -0.1 + 0.3; // a value with an untidy bit pattern
    in.inners.push_back(Inner{"x", {1.5, -0.0, 1e-308}});
    in.inners.push_back(Inner{"", {}});
    const Outer out = JobCodec<Outer>::decode(
        JobCodec<Outer>::encode(in));
    EXPECT_EQ(out.flag, true);
    EXPECT_EQ(out.kind, Kind::B);
    EXPECT_EQ(out.count, -12345);
    // Bit-exact, not approximately equal.
    EXPECT_EQ(std::memcmp(&out.exact, &in.exact, sizeof(double)), 0);
    ASSERT_EQ(out.inners.size(), 2u);
    EXPECT_EQ(out.inners[0].tag, "x");
    EXPECT_EQ(out.inners[0].values, in.inners[0].values);
    EXPECT_TRUE(std::signbit(out.inners[0].values[1]));
}

TEST(JobCodec, GarbagePayloadsAreRejected)
{
    const std::string good = JobCodec<Outer>::encode(Outer{});
    EXPECT_THROW(JobCodec<Outer>::decode(
                     std::string_view(good).substr(0, 3)),
                 DecodeError);
    EXPECT_THROW(JobCodec<Outer>::decode(good + "trailing"),
                 DecodeError);
    // An absurd vector length prefix must throw, not allocate.
    ByteWriter writer;
    writer.u8(0);                      // flag
    writer.u64(1);                     // kind
    writer.i64(0);                     // count
    writer.f64(0.0);                   // exact
    writer.u64(0xffffffffffffull);     // inners length: garbage
    EXPECT_THROW(JobCodec<Outer>::decode(writer.bytes()),
                 DecodeError);
}

TEST(JobCodec, AvailabilityTraitSeesThroughVectors)
{
    static_assert(runner::kJobCodecAvailable<Outer>);
    static_assert(runner::kJobCodecAvailable<double>);
    static_assert(
        runner::kJobCodecAvailable<std::vector<std::string>>);
    struct NotSerializable {
        int* pointer = nullptr;
    };
    static_assert(!runner::kJobCodecAvailable<NotSerializable>);
    static_assert(
        !runner::kJobCodecAvailable<std::vector<NotSerializable>>);
    SUCCEED();
}

// --- Plan fingerprint ---------------------------------------------------

namespace {

std::vector<ExecBackend::SerializedJob>
jobsNamed(std::vector<std::pair<std::string, std::uint64_t>> specs)
{
    std::vector<ExecBackend::SerializedJob> jobs;
    for (auto& [label, seed] : specs) {
        ExecBackend::SerializedJob job;
        job.label = label;
        job.seed = seed;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

TEST(Protocol, FingerprintIsSensitiveToPlanIdentity)
{
    const auto base = jobsNamed({{"a", 1}, {"b", 2}});
    const std::uint64_t fp = planFingerprint("plan", base);
    EXPECT_EQ(fp, planFingerprint("plan", base)); // stable
    EXPECT_NE(fp, planFingerprint("nalp", base));
    EXPECT_NE(fp,
              planFingerprint("plan", jobsNamed({{"a", 1}})));
    EXPECT_NE(fp, planFingerprint(
                      "plan", jobsNamed({{"a", 1}, {"b", 3}})));
    EXPECT_NE(fp, planFingerprint(
                      "plan", jobsNamed({{"b", 2}, {"a", 1}})));
}

// --- Stats deltas -------------------------------------------------------

TEST(Protocol, StatsDeltaShipsExactContributions)
{
    obs::Registry workerSide;
    const auto empty = workerSide.snapshot(obs::StatScope::Sim);
    workerSide.counter("sim.test.hits").add(7);
    workerSide.counter("sim.test.zero"); // registered, never fired
    workerSide.gauge("sim.test.peak").observe(2.5);
    workerSide
        .histogram("sim.test.lat", {0.1, 1.0})
        .observe(0.05);
    const auto after = workerSide.snapshot(obs::StatScope::Sim);

    obs::Registry masterSide;
    applyStatsDelta(encodeStatsDelta(empty, after), masterSide);
    // Apply twice from a fresh before-snapshot of the same job to
    // model two jobs with identical contributions: counters add,
    // gauges max-merge.
    applyStatsDelta(encodeStatsDelta(empty, after), masterSide);

    const auto merged = masterSide.snapshot(obs::StatScope::Sim);
    ASSERT_EQ(merged.counters.size(), 2u);
    EXPECT_EQ(merged.counters[0].first, "sim.test.hits");
    EXPECT_EQ(merged.counters[0].second, 14u);
    // The zero-valued instrument still registered (artifact parity).
    EXPECT_EQ(merged.counters[1].first, "sim.test.zero");
    EXPECT_EQ(merged.counters[1].second, 0u);
    ASSERT_EQ(merged.gauges.size(), 1u);
    EXPECT_EQ(merged.gauges[0].second, 2.5);
    ASSERT_EQ(merged.histograms.size(), 1u);
    EXPECT_EQ(merged.histograms[0].second.count, 2u);
    EXPECT_EQ(merged.histograms[0].second.counts[0], 2u);
}

TEST(Protocol, StatsDeltaRejectsGarbage)
{
    obs::Registry registry;
    EXPECT_THROW(applyStatsDelta("junk", registry), DecodeError);
}

// --- End-to-end master/worker ------------------------------------------

namespace {

std::vector<ExecBackend::SerializedJob>
runnableJobs()
{
    std::vector<ExecBackend::SerializedJob> jobs;
    for (int i = 0; i < 6; ++i) {
        ExecBackend::SerializedJob job;
        job.label = "job" + std::to_string(i);
        job.seed = static_cast<std::uint64_t>(100 + i);
        job.run = [i] {
            if (i == 4)
                throw std::runtime_error("deterministic boom");
            return "result" + std::to_string(i);
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

TEST(EndToEnd, MasterAndWorkerExchangeJobsAndRejectBadVersions)
{
    MasterOptions options;
    options.port = 0;
    options.minWorkers = 1;
    options.connectTimeout = 30.0;
    MasterBackend master(options);
    const std::uint16_t port = master.port();

    std::vector<ExecBackend::JobOutcome> masterOutcomes;
    std::thread masterThread([&] {
        masterOutcomes =
            master.executePlan("e2e", runnableJobs(), nullptr);
    });

    // A wrong-version handshake must be answered with HelloReject.
    {
        TcpStream bad = connectTcp("127.0.0.1", port, 15.0);
        Hello hello;
        hello.version = kProtocolVersion + 1000;
        ASSERT_TRUE(bad.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::Hello),
            encodeHello(hello))));
        FrameParser parser;
        std::optional<Frame> reply;
        while (!reply) {
            char buffer[4096];
            const long n = bad.recvSome(buffer, sizeof(buffer));
            ASSERT_GT(n, 0);
            parser.feed(std::string_view(
                buffer, static_cast<std::size_t>(n)));
            reply = parser.next();
        }
        EXPECT_EQ(reply->type,
                  static_cast<std::uint8_t>(MsgType::HelloReject));
        EXPECT_NE(decodeText(reply->payload, "HelloReject")
                      .find("version"),
                  std::string::npos);
    }

    // A real worker joins, executes the same plan, and receives the
    // identical ordered outcome list (lockstep broadcast).
    std::vector<ExecBackend::JobOutcome> workerOutcomes;
    std::thread workerThread([&] {
        WorkerOptions workerOptions;
        workerOptions.host = "127.0.0.1";
        workerOptions.port = port;
        WorkerBackend worker(workerOptions);
        EXPECT_GT(worker.workerId(), 0u);
        workerOutcomes =
            worker.executePlan("e2e", runnableJobs(), nullptr);
    });

    masterThread.join();
    workerThread.join();

    ASSERT_EQ(masterOutcomes.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        if (i == 4) {
            EXPECT_FALSE(masterOutcomes[i].ok());
            EXPECT_NE(masterOutcomes[i].error.find("boom"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(masterOutcomes[i].ok());
            EXPECT_EQ(masterOutcomes[i].payload,
                      "result" + std::to_string(i));
        }
    }
    ASSERT_EQ(workerOutcomes.size(), masterOutcomes.size());
    for (std::size_t i = 0; i < masterOutcomes.size(); ++i) {
        EXPECT_EQ(workerOutcomes[i].payload,
                  masterOutcomes[i].payload);
        EXPECT_EQ(workerOutcomes[i].error,
                  masterOutcomes[i].error);
    }
}

namespace {

/**
 * Blocking read of the next frame off a raw stream; nullopt on EOF.
 * Skips the master's Heartbeat RTT probes: it sends them to every
 * handshaken worker on its own clock, so under load one can arrive
 * before any plan message.
 */
std::optional<Frame>
readOneFrame(TcpStream& stream, FrameParser& parser)
{
    for (;;) {
        if (auto frame = parser.next()) {
            if (frame->type ==
                static_cast<std::uint8_t>(MsgType::Heartbeat))
                continue;
            return frame;
        }
        char buffer[4096];
        const long n = stream.recvSome(buffer, sizeof(buffer));
        if (n <= 0)
            return std::nullopt;
        parser.feed(
            std::string_view(buffer, static_cast<std::size_t>(n)));
    }
}

} // namespace

// Regression for the end-of-plan deadlock: a worker dies holding the
// last outstanding job *after* the pending queue drained, so the
// surviving worker is already parked on an unanswered JobRequest and
// will never ask again. The master must hand the requeued job to the
// parked survivor, or executePlan spins forever. Also checks that a
// worker joining mid-plan is welcomed with the v2 catch-up handshake
// (empty PlanCatchUp + the active PlanBegin) instead of rejected.
TEST(EndToEnd, RequeueAfterLateWorkerLossWakesParkedWorker)
{
    constexpr int kJobs = 6;
    MasterOptions options;
    options.port = 0;
    options.minWorkers = 2;
    options.connectTimeout = 30.0;
    MasterBackend master(options);
    const std::uint16_t port = master.port();

    std::atomic<int> survivorRuns{0};
    auto makeJobs = [&survivorRuns] {
        std::vector<ExecBackend::SerializedJob> jobs;
        for (int i = 0; i < kJobs; ++i) {
            ExecBackend::SerializedJob job;
            job.label = "job" + std::to_string(i);
            job.seed = static_cast<std::uint64_t>(100 + i);
            job.run = [&survivorRuns, i] {
                // Slow enough that the victim's JobRequest wins a
                // job before the survivor drains the whole queue.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                ++survivorRuns;
                return "result" + std::to_string(i);
            };
            jobs.push_back(std::move(job));
        }
        return jobs;
    };

    std::vector<ExecBackend::JobOutcome> masterOutcomes;
    std::thread masterThread([&] {
        masterOutcomes =
            master.executePlan("late-loss", makeJobs(), nullptr);
    });

    // The victim is a hand-rolled worker: it grabs one job, waits for
    // the survivor to drain everything else and park, then vanishes
    // with the job still in flight — the end-of-plan loss shape.
    std::thread victimThread([&] {
        TcpStream victim = connectTcp("127.0.0.1", port, 15.0);
        FrameParser parser;
        Hello hello;
        hello.pid = 1;
        ASSERT_TRUE(victim.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::Hello),
            encodeHello(hello))));
        auto ack = readOneFrame(victim, parser);
        ASSERT_TRUE(ack.has_value());
        ASSERT_EQ(ack->type,
                  static_cast<std::uint8_t>(MsgType::HelloAck));
        auto catchUp = readOneFrame(victim, parser);
        ASSERT_TRUE(catchUp.has_value());
        ASSERT_EQ(catchUp->type,
                  static_cast<std::uint8_t>(MsgType::PlanCatchUp));
        auto begin = readOneFrame(victim, parser);
        ASSERT_TRUE(begin.has_value());
        ASSERT_EQ(begin->type,
                  static_cast<std::uint8_t>(MsgType::PlanBegin));
        const PlanBegin planBegin =
            decodePlanBegin(begin->payload);
        ASSERT_TRUE(victim.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::PlanAck),
            encodeSeqOnly(planBegin.planSeq))));
        ASSERT_TRUE(victim.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::JobRequest),
            encodeSeqOnly(planBegin.planSeq))));
        auto assign = readOneFrame(victim, parser);
        ASSERT_TRUE(assign.has_value());
        ASSERT_EQ(assign->type,
                  static_cast<std::uint8_t>(MsgType::JobAssign));
        while (survivorRuns.load() < kJobs - 1)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        // Let the survivor's final JobRequest reach the master and
        // park before the victim disappears.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));

        // Mid-plan late joiner: catch-up handshake — no completed
        // plans yet, so an empty PlanCatchUp followed by the active
        // plan's PlanBegin so it could start pulling immediately.
        TcpStream late = connectTcp("127.0.0.1", port, 15.0);
        FrameParser lateParser;
        Hello lateHello;
        lateHello.pid = 2;
        ASSERT_TRUE(late.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::Hello),
            encodeHello(lateHello))));
        auto lateAck = readOneFrame(late, lateParser);
        ASSERT_TRUE(lateAck.has_value());
        EXPECT_EQ(lateAck->type,
                  static_cast<std::uint8_t>(MsgType::HelloAck));
        auto lateCatchUp = readOneFrame(late, lateParser);
        ASSERT_TRUE(lateCatchUp.has_value());
        ASSERT_EQ(lateCatchUp->type,
                  static_cast<std::uint8_t>(MsgType::PlanCatchUp));
        const PlanCatchUp cu =
            decodePlanCatchUp(lateCatchUp->payload);
        EXPECT_EQ(cu.fromSeq, 0u);
        EXPECT_TRUE(cu.entries.empty());
        auto lateBegin = readOneFrame(late, lateParser);
        ASSERT_TRUE(lateBegin.has_value());
        EXPECT_EQ(lateBegin->type,
                  static_cast<std::uint8_t>(MsgType::PlanBegin));
        EXPECT_EQ(decodePlanBegin(lateBegin->payload).planSeq,
                  planBegin.planSeq);
        late.close();

        victim.close(); // EOF: the held job must be re-dispatched
    });

    std::vector<ExecBackend::JobOutcome> workerOutcomes;
    std::thread workerThread([&] {
        WorkerOptions workerOptions;
        workerOptions.host = "127.0.0.1";
        workerOptions.port = port;
        WorkerBackend worker(workerOptions);
        workerOutcomes =
            worker.executePlan("late-loss", makeJobs(), nullptr);
    });

    masterThread.join();
    workerThread.join();
    victimThread.join();

    // The survivor ran every job, including the victim's requeue.
    EXPECT_EQ(survivorRuns.load(), kJobs);
    ASSERT_EQ(masterOutcomes.size(),
              static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i) {
        EXPECT_TRUE(masterOutcomes[i].ok());
        EXPECT_EQ(masterOutcomes[i].payload,
                  "result" + std::to_string(i));
    }
    ASSERT_EQ(workerOutcomes.size(), masterOutcomes.size());
    for (std::size_t i = 0; i < masterOutcomes.size(); ++i)
        EXPECT_EQ(workerOutcomes[i].payload,
                  masterOutcomes[i].payload);
}
