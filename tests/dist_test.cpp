/**
 * @file
 * Distributed-runner tests: message and journal-record round trips, the
 * job-result codec, plan fingerprints, stats-delta shipping and
 * checking, and in-process master/worker end-to-end runs including the
 * version-mismatch handshake rejection and a worker dropped for a
 * corrupt stats delta. Framing lives in frame_test.cpp. The full
 * kill-a-worker-mid-sweep artifact check lives in ctest as
 * dist_identity_* / dist_kill_* (tools/golden_check.py --mode dist*).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dist/framing.hpp"
#include "dist/journal.hpp"
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

// --- Message codecs -----------------------------------------------------

namespace {

template <typename M>
M
roundTrip(const M& message)
{
    return JobCodec<M>::decode(JobCodec<M>::encode(message));
}

void
expectSameOutcome(const JobOutcome& a, const JobOutcome& b)
{
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_EQ(a.error, b.error);
}

void
expectSameOutcomes(const std::vector<JobOutcome>& a,
                   const std::vector<JobOutcome>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameOutcome(a[i], b[i]);
}

void
expectSameStats(const StatsDelta& a, const StatsDelta& b)
{
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].name, b.counters[i].name);
        EXPECT_EQ(a.counters[i].value, b.counters[i].value);
    }
    ASSERT_EQ(a.gauges.size(), b.gauges.size());
    for (std::size_t i = 0; i < a.gauges.size(); ++i) {
        EXPECT_EQ(a.gauges[i].name, b.gauges[i].name);
        EXPECT_EQ(a.gauges[i].value, b.gauges[i].value);
    }
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
        const auto& x = a.histograms[i];
        const auto& y = b.histograms[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.value.bounds, y.value.bounds);
        EXPECT_EQ(x.value.counts, y.value.counts);
        EXPECT_EQ(x.value.count, y.value.count);
        EXPECT_EQ(x.value.sum, y.value.sum);
    }
}

/** A delta with every field set (no value equals its default). */
StatsDelta
sampleStats()
{
    StatsDelta stats;
    stats.counters = {{"sim.test.hits", 7}, {"sim.test.miss", 3}};
    stats.gauges = {{"sim.test.peak", 2.5}};
    stats.histograms = {{"sim.test.lat", {{0.1, 1.0}, {4, 5, 6}, 15,
                                          -0.1 + 0.3}}};
    return stats;
}

} // namespace

// Every field of every message and journal record is set to a value
// other than its default, so a field missing from a visitFields comes
// back default and fails its comparison.
TEST(Protocol, EveryMessageAndRecordRoundTripsFieldByField)
{
    const JobOutcome okOutcome{"payload", ""};
    const JobOutcome failed{"", "it broke"};

    const Hello hello{kMagic + 1, kProtocolVersion + 1, 4242, 3, 9,
                      0xf0, 1};
    const Hello h = roundTrip(hello);
    EXPECT_EQ(h.magic, hello.magic);
    EXPECT_EQ(h.version, hello.version);
    EXPECT_EQ(h.pid, hello.pid);
    EXPECT_EQ(h.connectAttempts, hello.connectAttempts);
    EXPECT_EQ(h.nextPlanSeq, hello.nextPlanSeq);
    EXPECT_EQ(h.codecs, hello.codecs);
    EXPECT_EQ(h.reconnect, hello.reconnect);

    const HelloAck ack{kMagic + 2, kProtocolVersion + 2, 17, 1};
    const HelloAck a = roundTrip(ack);
    EXPECT_EQ(a.magic, ack.magic);
    EXPECT_EQ(a.version, ack.version);
    EXPECT_EQ(a.workerId, ack.workerId);
    EXPECT_EQ(a.codec, ack.codec);

    EXPECT_EQ(roundTrip(HelloReject{"too old"}).reason, "too old");
    EXPECT_EQ(roundTrip(Error{"lost plan"}).text, "lost plan");

    const PlanBegin begin{5, "fig07", 12, 0xfeedu};
    const PlanBegin b = roundTrip(begin);
    EXPECT_EQ(b.planSeq, begin.planSeq);
    EXPECT_EQ(b.planName, begin.planName);
    EXPECT_EQ(b.jobCount, begin.jobCount);
    EXPECT_EQ(b.fingerprint, begin.fingerprint);

    EXPECT_EQ(roundTrip(PlanAck{6}).planSeq, 6u);
    EXPECT_EQ(roundTrip(JobRequest{7}).planSeq, 7u);
    EXPECT_EQ(roundTrip(Heartbeat{99}).nonce, 99u);

    const JobAssign assign{8, 3};
    const JobAssign as = roundTrip(assign);
    EXPECT_EQ(as.planSeq, assign.planSeq);
    EXPECT_EQ(as.jobIndex, assign.jobIndex);

    for (const JobOutcome& outcome : {okOutcome, failed}) {
        const JobResult result{9, 4, outcome, sampleStats()};
        const JobResult r = roundTrip(result);
        EXPECT_EQ(r.planSeq, result.planSeq);
        EXPECT_EQ(r.jobIndex, result.jobIndex);
        expectSameOutcome(r.outcome, result.outcome);
        EXPECT_EQ(r.outcome.ok(), outcome.ok());
        expectSameStats(r.stats, result.stats);
    }

    const PlanResults results{10, {okOutcome, failed}};
    const PlanResults pr = roundTrip(results);
    EXPECT_EQ(pr.planSeq, results.planSeq);
    expectSameOutcomes(pr.outcomes, results.outcomes);

    const PlanCatchUp catchUp{
        11, {{0xabcu, {okOutcome}}, {0xdefu, {failed, okOutcome}}},
        sampleStats()};
    const PlanCatchUp cu = roundTrip(catchUp);
    EXPECT_EQ(cu.fromSeq, catchUp.fromSeq);
    ASSERT_EQ(cu.plans.size(), catchUp.plans.size());
    for (std::size_t i = 0; i < cu.plans.size(); ++i) {
        EXPECT_EQ(cu.plans[i].fingerprint,
                  catchUp.plans[i].fingerprint);
        expectSameOutcomes(cu.plans[i].outcomes,
                           catchUp.plans[i].outcomes);
    }
    expectSameStats(cu.statsBaseline, catchUp.statsBaseline);

    const JournalHeader header{kJournalMagic + 1, kJournalVersion + 1};
    const JournalHeader jh = roundTrip(header);
    EXPECT_EQ(jh.magic, header.magic);
    EXPECT_EQ(jh.version, header.version);

    const JournaledJob job{12, 2, "job2", 102, failed, sampleStats()};
    const JournaledJob jj = roundTrip(job);
    EXPECT_EQ(jj.planSeq, job.planSeq);
    EXPECT_EQ(jj.jobIndex, job.jobIndex);
    EXPECT_EQ(jj.label, job.label);
    EXPECT_EQ(jj.seed, job.seed);
    expectSameOutcome(jj.outcome, job.outcome);
    expectSameStats(jj.stats, job.stats);

    EXPECT_EQ(roundTrip(PlanEnd{13}).planSeq, 13u);
}

TEST(Protocol, TruncatedAndOversizedPayloadsAreRejected)
{
    const std::string hello = JobCodec<Hello>::encode({});
    EXPECT_THROW(JobCodec<Hello>::decode(std::string_view(hello).substr(0, 5)),
                 DecodeError);
    EXPECT_THROW(JobCodec<Hello>::decode(hello + "x"), DecodeError);

    PlanBegin begin;
    begin.planName = "p";
    const std::string plan = JobCodec<PlanBegin>::encode(begin);
    EXPECT_THROW(
        JobCodec<PlanBegin>::decode(std::string_view(plan).substr(0, 9)),
        DecodeError);
    EXPECT_THROW(JobCodec<JobResult>::decode("garbage"), DecodeError);

    // Any cut of a nested message is short somewhere.
    const std::string result =
        JobCodec<JobResult>::encode({1, 2, {"payload", ""}, sampleStats()});
    for (std::size_t cut = 0; cut < result.size(); ++cut)
        EXPECT_THROW(JobCodec<JobResult>::decode(
                         std::string_view(result).substr(0, cut)),
                     DecodeError)
            << "cut at " << cut;
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
    const StatsDelta delta = roundTrip(diffStats(empty, after));
    applyStatsDelta(delta, masterSide);
    // Apply twice to model two jobs with identical contributions:
    // counters add, gauges max-merge.
    applyStatsDelta(delta, masterSide);

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
    EXPECT_THROW(JobCodec<StatsDelta>::decode("junk"), DecodeError);
}

// A corrupt delta must be refused before anything is registered:
// Histogram's constructor and Registry's re-registration checks would
// otherwise end the process.
TEST(Protocol, CorruptStatsDeltasAreDecodeErrors)
{
    obs::Registry registry;
    applyStatsDelta(sampleStats(), registry);

    // One bound's sign flipped: the bounds no longer ascend.
    StatsDelta flipped = sampleStats();
    flipped.counters = {{"sim.test.fresh", 1}};
    flipped.histograms[0].name = "sim.test.other";
    auto& bound = flipped.histograms[0].value.bounds[1];
    bound = std::copysign(bound, -1.0);
    EXPECT_THROW(applyStatsDelta(roundTrip(flipped), registry),
                 DecodeError);
    // Checked before registering: the delta's counter is not there.
    EXPECT_FALSE(registry.find("sim.test.fresh").has_value());
    EXPECT_FALSE(registry.find("sim.test.other").has_value());

    // A counter's name re-sent as a histogram.
    StatsDelta renamed;
    renamed.histograms = sampleStats().histograms;
    renamed.histograms[0].name = "sim.test.hits";
    EXPECT_THROW(applyStatsDelta(renamed, registry), DecodeError);

    // The other checks: a non-finite bound, a counts length that does
    // not match, a name sent twice, different bounds, and a name the
    // registry holds in the wall scope.
    registry.counter("wall.test.clock", obs::StatScope::Wall);
    std::vector<StatsDelta> corrupt(5, sampleStats());
    corrupt[0].histograms[0].value.bounds[0] =
        std::numeric_limits<double>::quiet_NaN();
    corrupt[1].histograms[0].value.counts.pop_back();
    corrupt[2].counters = {{"sim.test.dup", 1}, {"sim.test.dup", 1}};
    corrupt[3].histograms[0].value.bounds[1] = 2.0;
    corrupt[4].counters[0].name = "wall.test.clock";
    for (std::size_t i = 0; i < corrupt.size(); ++i)
        EXPECT_THROW(applyStatsDelta(corrupt[i], registry),
                     DecodeError)
            << "case " << i;

    // None of the refused deltas reached the registry.
    const auto snap = registry.snapshot(obs::StatScope::Sim);
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].second, 7u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].second.count, 15u);
}

// --- End-to-end master/worker ------------------------------------------

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

    // A wrong-version handshake must be answered with HelloReject, and
    // so must a Hello in another version's layout, which does not
    // decode at all (v3 sent u32 fields).
    Hello wrongVersion;
    wrongVersion.version = kProtocolVersion + 1000;
    ByteWriter v3Hello;
    v3Hello.u32(kMagic);
    v3Hello.u32(3);
    v3Hello.u64(1);            // pid
    v3Hello.u32(1);            // connectAttempts
    v3Hello.u64(0);            // nextPlanSeq
    v3Hello.u32(kCodecBitLz4); // codecs
    v3Hello.u8(0);             // reconnect
    for (const std::string& hello :
         {JobCodec<Hello>::encode(wrongVersion), v3Hello.take()}) {
        TcpStream bad = connectTcp("127.0.0.1", port, 15.0);
        ASSERT_TRUE(bad.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::Hello), hello)));
        FrameParser parser;
        const auto reply = readOneFrame(bad, parser);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type,
                  static_cast<std::uint8_t>(MsgType::HelloReject));
        EXPECT_NE(JobCodec<HelloReject>::decode(reply->payload).reason.find(
                      "version mismatch"),
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
            JobCodec<Hello>::encode(hello))));
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
        const auto planBegin = JobCodec<PlanBegin>::decode(begin->payload);
        ASSERT_TRUE(victim.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::PlanAck),
            JobCodec<PlanAck>::encode({planBegin.planSeq}))));
        ASSERT_TRUE(victim.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::JobRequest),
            JobCodec<JobRequest>::encode({planBegin.planSeq}))));
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
            JobCodec<Hello>::encode(lateHello))));
        auto lateAck = readOneFrame(late, lateParser);
        ASSERT_TRUE(lateAck.has_value());
        EXPECT_EQ(lateAck->type,
                  static_cast<std::uint8_t>(MsgType::HelloAck));
        auto lateCatchUp = readOneFrame(late, lateParser);
        ASSERT_TRUE(lateCatchUp.has_value());
        ASSERT_EQ(lateCatchUp->type,
                  static_cast<std::uint8_t>(MsgType::PlanCatchUp));
        const auto cu = JobCodec<PlanCatchUp>::decode(lateCatchUp->payload);
        EXPECT_EQ(cu.fromSeq, 0u);
        EXPECT_TRUE(cu.plans.empty());
        auto lateBegin = readOneFrame(late, lateParser);
        ASSERT_TRUE(lateBegin.has_value());
        EXPECT_EQ(lateBegin->type,
                  static_cast<std::uint8_t>(MsgType::PlanBegin));
        EXPECT_EQ(JobCodec<PlanBegin>::decode(lateBegin->payload).planSeq,
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

// A stats delta the registry refuses is an ordinary DecodeError on the
// master: the worker that sent it is dropped like any other protocol
// violation, its job is re-dispatched, and the other workers are still
// served. Neither the corrupt delta nor its forged result is kept.
TEST(EndToEnd, CorruptStatsDeltaDropsOnlyThatWorker)
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
            master.executePlan("corrupt", runnableJobs(), nullptr);
    });

    // A hand-rolled worker takes a job and answers it with a forged
    // result whose histogram bounds descend.
    {
        TcpStream rogue = connectTcp("127.0.0.1", port, 15.0);
        FrameParser parser;
        const auto sendMessage = [&](MsgType type,
                                     const std::string& payload) {
            return rogue.sendAll(encodeFrame(
                static_cast<std::uint8_t>(type), payload));
        };
        const auto expectFrame = [&](MsgType type) {
            auto frame = readOneFrame(rogue, parser);
            EXPECT_TRUE(frame.has_value());
            EXPECT_EQ(frame ? frame->type : 0,
                      static_cast<std::uint8_t>(type));
            return frame ? frame->payload : std::string();
        };
        ASSERT_TRUE(sendMessage(MsgType::Hello, JobCodec<Hello>::encode({})));
        expectFrame(MsgType::HelloAck);
        expectFrame(MsgType::PlanCatchUp);
        const auto begin =
            JobCodec<PlanBegin>::decode(expectFrame(MsgType::PlanBegin));
        ASSERT_TRUE(sendMessage(MsgType::PlanAck,
                                JobCodec<PlanAck>::encode({begin.planSeq})));
        ASSERT_TRUE(
            sendMessage(MsgType::JobRequest,
                        JobCodec<JobRequest>::encode({begin.planSeq})));
        const auto assign =
            JobCodec<JobAssign>::decode(expectFrame(MsgType::JobAssign));
        JobResult forged{assign.planSeq, assign.jobIndex,
                         {"forged", ""}, {}};
        forged.stats.histograms = {
            {"sim.test.rogue", {{1.0, -1.0}, {0, 0, 1}, 1, 0.5}}};
        ASSERT_TRUE(sendMessage(MsgType::JobResult,
                                JobCodec<JobResult>::encode(forged)));
        // Dropped: EOF, no further frame.
        EXPECT_FALSE(readOneFrame(rogue, parser).has_value());
    }

    std::vector<ExecBackend::JobOutcome> workerOutcomes;
    std::thread workerThread([&] {
        WorkerOptions workerOptions;
        workerOptions.host = "127.0.0.1";
        workerOptions.port = port;
        WorkerBackend worker(workerOptions);
        workerOutcomes =
            worker.executePlan("corrupt", runnableJobs(), nullptr);
    });
    masterThread.join();
    workerThread.join();

    ASSERT_EQ(masterOutcomes.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        if (i == 4) {
            EXPECT_FALSE(masterOutcomes[i].ok());
        } else {
            EXPECT_TRUE(masterOutcomes[i].ok());
            EXPECT_EQ(masterOutcomes[i].payload,
                      "result" + std::to_string(i));
        }
    }
    ASSERT_EQ(workerOutcomes.size(), masterOutcomes.size());
    EXPECT_FALSE(
        obs::Registry::global().find("sim.test.rogue").has_value());
}
