/**
 * @file
 * Robustness-layer tests for the distributed runner: deterministic
 * fault injection (chaos schedules, FaultySocket byte integrity), the
 * crash journal (round trip, torn tail, malformed files), handshake
 * rejection reasons, oversized-frame connection drops, and end-to-end
 * reconnect / mid-sweep catch-up with real Master/WorkerBackends. LZ4
 * frame compression is tested in frame_test.cpp. The full-artifact invariants live
 * in ctest as dist_chaos_* / dist_resume_* (tools/golden_check.py).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.hpp"
#include "dist/chaos.hpp"
#include "dist/framing.hpp"
#include "dist/journal.hpp"
#include "dist/master.hpp"
#include "dist/protocol.hpp"
#include "dist/socket.hpp"
#include "dist/worker.hpp"
#include "obs/stats.hpp"

using namespace codecrunch;
using namespace codecrunch::dist;
using codecrunch::runner::ExecBackend;

// --- Chaos schedules ----------------------------------------------------

namespace {

/** Flatten a fixed op sequence into a comparable decision trace. */
std::string
scheduleOf(FaultInjector injector, int ops)
{
    std::string trace;
    for (int i = 0; i < ops; ++i) {
        const auto s = injector.onSend(1000);
        const auto r = injector.onRecv(4096);
        trace += std::to_string(s.firstChunk) + "/" +
                 std::to_string(s.delayMicros) + "/" +
                 (s.disconnect ? "X" : "-") + ";" +
                 std::to_string(r.capBytes) + "/" +
                 std::to_string(r.delayMicros) + "/" +
                 (r.disconnect ? "X" : "-") + ";" +
                 (injector.refuseConnect() ? "R" : "-") + "|";
    }
    return trace;
}

} // namespace

TEST(Chaos, SameSeedProducesIdenticalSchedule)
{
    const ChaosSpec heavy = chaosProfile("heavy");
    const std::string a =
        scheduleOf(FaultInjector(heavy, 42, 1, 0), 200);
    const std::string b =
        scheduleOf(FaultInjector(heavy, 42, 1, 0), 200);
    EXPECT_EQ(a, b);
}

TEST(Chaos, SeedSaltAndConnectionSelectIndependentStreams)
{
    const ChaosSpec heavy = chaosProfile("heavy");
    const std::string base =
        scheduleOf(FaultInjector(heavy, 42, 1, 0), 200);
    EXPECT_NE(base, scheduleOf(FaultInjector(heavy, 43, 1, 0), 200));
    EXPECT_NE(base, scheduleOf(FaultInjector(heavy, 42, 2, 0), 200));
    EXPECT_NE(base, scheduleOf(FaultInjector(heavy, 42, 1, 1), 200));
}

TEST(Chaos, ProfilesAndUnknownNames)
{
    EXPECT_FALSE(chaosProfile("off").enabled());
    EXPECT_FALSE(chaosProfile("").enabled());
    EXPECT_TRUE(chaosProfile("light").enabled());
    EXPECT_TRUE(chaosProfile("heavy").enabled());
    EXPECT_GT(chaosProfile("heavy").disconnectProb,
              chaosProfile("light").disconnectProb);
    EXPECT_EXIT(chaosProfile("bogus"),
                testing::ExitedWithCode(1), "off\\|light\\|heavy");
}

TEST(Chaos, DisabledSpecPassesOperationsThroughUntouched)
{
    FaultInjector off(ChaosSpec{}, 1, 0, 0);
    const auto s = off.onSend(777);
    EXPECT_EQ(s.firstChunk, 777u);
    EXPECT_EQ(s.delayMicros, 0u);
    EXPECT_FALSE(s.disconnect);
    const auto r = off.onRecv(4096);
    EXPECT_EQ(r.capBytes, 4096u);
    EXPECT_FALSE(r.disconnect);
    EXPECT_FALSE(off.refuseConnect());
}

// --- FaultySocket over real loopback ------------------------------------

TEST(Chaos, FaultySocketDeliversEveryByteIntactUnderChaos)
{
    TcpListener listener;
    listener.listen(0);
    TcpStream client =
        connectTcp("127.0.0.1", listener.port(), 15.0);
    TcpStream server = listener.accept();
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(server.valid());

    // Heavy partial I/O but no disconnects: integrity, not loss.
    ChaosSpec spec;
    spec.shortWriteProb = 0.6;
    spec.shortReadProb = 0.6;
    spec.delayProb = 0.2;
    spec.maxDelayMicros = 200;
    FaultySocket chaotic;
    chaotic.adopt(std::move(client), FaultInjector(spec, 9, 0, 0));

    std::string message;
    Rng rng(123);
    for (int i = 0; i < 64 * 1024; ++i)
        message.push_back(static_cast<char>(rng.next() & 0xff));

    std::thread sender(
        [&] { ASSERT_TRUE(chaotic.sendAll(message)); });
    std::string received;
    char buffer[4096];
    while (received.size() < message.size()) {
        const long n = server.recvSome(buffer, sizeof(buffer));
        ASSERT_GT(n, 0);
        received.append(buffer, static_cast<std::size_t>(n));
    }
    sender.join();
    EXPECT_EQ(received, message);

    // And the chaotic receive direction: short reads cap each recv
    // but never drop or reorder a byte.
    std::thread replier(
        [&] { ASSERT_TRUE(server.sendAll(message)); });
    std::string echoed;
    while (echoed.size() < message.size()) {
        const long n = chaotic.recvSome(buffer, sizeof(buffer));
        ASSERT_GT(n, 0);
        echoed.append(buffer, static_cast<std::size_t>(n));
    }
    replier.join();
    EXPECT_EQ(echoed, message);
}

TEST(Chaos, DisconnectEveryNthOpCutsTheLinkDeterministically)
{
    TcpListener listener;
    listener.listen(0);
    TcpStream client =
        connectTcp("127.0.0.1", listener.port(), 15.0);
    TcpStream server = listener.accept();

    ChaosSpec spec;
    spec.disconnectEveryNthOp = 3;
    FaultySocket chaotic;
    chaotic.adopt(std::move(client), FaultInjector(spec, 1, 0, 0));

    EXPECT_TRUE(chaotic.sendAll("one"));
    EXPECT_TRUE(chaotic.sendAll("two"));
    EXPECT_FALSE(chaotic.sendAll("three")); // the 3rd op is cut
    EXPECT_FALSE(chaotic.valid());
    // The peer sees a real EOF after the torn prefix drains.
    std::string drained;
    char buffer[256];
    for (;;) {
        const long n = server.recvSome(buffer, sizeof(buffer));
        if (n <= 0)
            break;
        drained.append(buffer, static_cast<std::size_t>(n));
    }
    EXPECT_LT(drained.size(), std::string("onetwothree").size());
}

// --- Journal ------------------------------------------------------------

namespace {

struct TempPath {
    std::string path;
    explicit TempPath(const std::string& name)
        : path("/tmp/cc_journal_" + name + "_" +
               std::to_string(::getpid()))
    {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
};

std::string
sampleDelta()
{
    obs::Registry registry;
    const auto before = registry.snapshot(obs::StatScope::Sim);
    registry.counter("sim.test.jobs").add(1);
    return encodeStatsDelta(before,
                            registry.snapshot(obs::StatScope::Sim));
}

} // namespace

TEST(Journal, RecordsRoundTripThroughReplay)
{
    TempPath tmp("roundtrip");
    {
        JournalWriter writer;
        writer.open(tmp.path);
        writer.planBegin(0, "plan-a", 2, 0xfeedu);
        writer.job(0, 1, true, "job1", 101, "payload1",
                   sampleDelta());
        writer.job(0, 0, false, "job0", 100, "deterministic boom",
                   sampleDelta());
        writer.planEnd(0);
        writer.planBegin(1, "plan-b", 1, 0xbeefu);
    }
    const JournalReplay replay = readJournal(tmp.path);
    EXPECT_FALSE(replay.truncatedTail);
    EXPECT_EQ(replay.jobRecords, 2u);
    ASSERT_EQ(replay.plans.size(), 2u);
    const JournaledPlan& planA = replay.plans.at(0);
    EXPECT_EQ(planA.name, "plan-a");
    EXPECT_EQ(planA.jobCount, 2u);
    EXPECT_EQ(planA.fingerprint, 0xfeedu);
    EXPECT_TRUE(planA.completed);
    ASSERT_EQ(planA.jobs.size(), 2u);
    EXPECT_TRUE(planA.jobs.at(1).ok);
    EXPECT_EQ(planA.jobs.at(1).label, "job1");
    EXPECT_EQ(planA.jobs.at(1).seed, 101u);
    EXPECT_EQ(planA.jobs.at(1).payloadOrError, "payload1");
    EXPECT_FALSE(planA.jobs.at(0).ok);
    EXPECT_EQ(planA.jobs.at(0).payloadOrError,
              "deterministic boom");
    EXPECT_FALSE(replay.plans.at(1).completed);
}

TEST(Journal, TornTailRecordIsDroppedAndTruncatedOnReopen)
{
    TempPath tmp("torntail");
    {
        JournalWriter writer;
        writer.open(tmp.path);
        writer.planBegin(0, "plan", 2, 1);
        writer.job(0, 0, true, "job0", 100, "p0", sampleDelta());
        writer.job(0, 1, true, "job1", 101, "p1", sampleDelta());
    }
    // Tear the final record the way a crash mid-append would.
    const JournalReplay full = readJournal(tmp.path);
    ASSERT_EQ(full.jobRecords, 2u);
    ASSERT_TRUE(::truncate(tmp.path.c_str(),
                           static_cast<off_t>(full.validBytes - 5)) ==
                0);

    const JournalReplay torn = readJournal(tmp.path);
    EXPECT_TRUE(torn.truncatedTail);
    EXPECT_EQ(torn.jobRecords, 1u); // the torn job 1 is gone
    EXPECT_LT(torn.validBytes, full.validBytes);

    // Reopening at the valid prefix truncates the tail for good and
    // appends continue after the last complete record.
    {
        JournalWriter writer;
        writer.open(tmp.path, torn.validBytes);
        writer.job(0, 1, true, "job1", 101, "p1", sampleDelta());
        writer.planEnd(0);
    }
    const JournalReplay repaired = readJournal(tmp.path);
    EXPECT_FALSE(repaired.truncatedTail);
    EXPECT_EQ(repaired.jobRecords, 2u);
    EXPECT_TRUE(repaired.plans.at(0).completed);
}

TEST(Journal, MissingFileIsAnEmptyReplay)
{
    const JournalReplay replay =
        readJournal("/tmp/cc_journal_does_not_exist_anywhere");
    EXPECT_TRUE(replay.plans.empty());
    EXPECT_EQ(replay.jobRecords, 0u);
    EXPECT_EQ(replay.validBytes, 0u);
}

using JournalDeathTest = ::testing::Test;

TEST(JournalDeathTest, FileWithoutHeaderRecordIsFatal)
{
    TempPath tmp("noheader");
    {
        // A complete, well-framed record — but not a Header.
        std::FILE* f = std::fopen(tmp.path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::string record = encodeFrame(
            static_cast<std::uint8_t>(JournalRecord::Job), "junk");
        std::fwrite(record.data(), 1, record.size(), f);
        std::fclose(f);
    }
    EXPECT_EXIT(readJournal(tmp.path),
                testing::ExitedWithCode(1), "header record");
}

// --- Handshake rejections and framing violations ------------------------

namespace {

std::vector<ExecBackend::SerializedJob>
trivialJobs(int count)
{
    std::vector<ExecBackend::SerializedJob> jobs;
    for (int i = 0; i < count; ++i) {
        ExecBackend::SerializedJob job;
        job.label = "job" + std::to_string(i);
        job.seed = static_cast<std::uint64_t>(100 + i);
        job.run = [i] { return "result" + std::to_string(i); };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Blocking read of one frame off a raw stream; nullopt on EOF. */
std::optional<Frame>
readOneFrame(TcpStream& stream, FrameParser& parser)
{
    for (;;) {
        if (auto frame = parser.next())
            return frame;
        char buffer[4096];
        const long n = stream.recvSome(buffer, sizeof(buffer));
        if (n <= 0)
            return std::nullopt;
        parser.feed(
            std::string_view(buffer, static_cast<std::size_t>(n)));
    }
}

} // namespace

TEST(EndToEnd, WorkerAheadOfMasterIsRejectedWithReason)
{
    MasterOptions options;
    options.port = 0;
    options.minWorkers = 1;
    options.connectTimeout = 30.0;
    MasterBackend master(options);
    const std::uint16_t port = master.port();

    std::vector<ExecBackend::JobOutcome> outcomes;
    std::thread masterThread([&] {
        outcomes = master.executePlan("ahead", trivialJobs(2),
                                      nullptr);
    });

    // A worker claiming to be past plans this master never ran (its
    // master restarted without --resume) must be turned away with the
    // real reason, not welcomed into an inconsistent sweep.
    {
        TcpStream ahead = connectTcp("127.0.0.1", port, 15.0);
        FrameParser parser;
        Hello hello;
        hello.pid = 99;
        hello.nextPlanSeq = 7;
        ASSERT_TRUE(ahead.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::Hello),
            encodeHello(hello))));
        const auto reply = readOneFrame(ahead, parser);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type,
                  static_cast<std::uint8_t>(MsgType::HelloReject));
        const std::string reason =
            decodeText(reply->payload, "HelloReject");
        EXPECT_NE(reason.find("ahead of the master"),
                  std::string::npos);
        EXPECT_NE(reason.find("--resume"), std::string::npos);
    }

    // An oversized length prefix must drop the connection outright —
    // the master closes it before allocating anything.
    {
        TcpStream garbage = connectTcp("127.0.0.1", port, 15.0);
        ByteWriter writer;
        writer.u32(kMaxFrameBytes + 1);
        ASSERT_TRUE(garbage.sendAll(writer.bytes()));
        char buffer[64];
        EXPECT_LE(garbage.recvSome(buffer, sizeof(buffer)), 0L);
    }

    std::thread workerThread([&] {
        WorkerOptions workerOptions;
        workerOptions.host = "127.0.0.1";
        workerOptions.port = port;
        WorkerBackend worker(workerOptions);
        worker.executePlan("ahead", trivialJobs(2), nullptr);
    });
    masterThread.join();
    workerThread.join();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].payload, "result0");
}

// --- Reconnect and catch-up end-to-end ----------------------------------

namespace {

/** Read frames off a scripted-master connection, skipping the worker's
 *  heartbeat/Bye noise; nullopt on EOF. */
std::optional<Frame>
readProtocolFrame(TcpStream& stream, FrameParser& parser)
{
    for (;;) {
        const auto frame = readOneFrame(stream, parser);
        if (!frame)
            return std::nullopt;
        const auto type = static_cast<MsgType>(frame->type);
        if (type == MsgType::Heartbeat || type == MsgType::Bye)
            continue;
        return frame;
    }
}

} // namespace

// Deterministic reconnect: a scripted master hands the WorkerBackend
// one job, then slams the connection shut mid-plan. The worker must
// redial (announcing reconnect=1 at its original nextPlanSeq), accept
// the re-sent active PlanBegin, finish the remaining job, and return
// the full outcome list — without re-running the job it already did.
// (Probabilistic chaos reconnects across real processes are covered by
// the dist_chaos_* ctest targets.)
TEST(EndToEnd, WorkerReconnectsAfterMidPlanCutAndResumes)
{
    TcpListener listener;
    listener.listen(0);

    std::atomic<int> jobRuns{0};
    auto makeJobs = [&jobRuns] {
        std::vector<ExecBackend::SerializedJob> jobs;
        for (int i = 0; i < 2; ++i) {
            ExecBackend::SerializedJob job;
            job.label = "job" + std::to_string(i);
            job.seed = static_cast<std::uint64_t>(100 + i);
            job.run = [&jobRuns, i] {
                ++jobRuns;
                return "result" + std::to_string(i);
            };
            jobs.push_back(std::move(job));
        }
        return jobs;
    };
    const std::uint64_t fingerprint =
        planFingerprint("cut", makeJobs());

    std::vector<ExecBackend::JobOutcome> workerOutcomes;
    std::uint32_t finalWorkerId = 0;
    std::thread workerThread([&] {
        WorkerOptions workerOptions;
        workerOptions.host = "127.0.0.1";
        workerOptions.port = listener.port();
        workerOptions.reconnectBackoffBase = 0.01;
        WorkerBackend worker(workerOptions);
        workerOutcomes =
            worker.executePlan("cut", makeJobs(), nullptr);
        finalWorkerId = worker.workerId();
    });

    auto handshake = [](TcpStream& conn, FrameParser& parser,
                        std::uint32_t workerId) -> Hello {
        const auto helloFrame = readProtocolFrame(conn, parser);
        EXPECT_TRUE(helloFrame.has_value());
        EXPECT_EQ(helloFrame->type,
                  static_cast<std::uint8_t>(MsgType::Hello));
        const Hello hello = decodeHello(helloFrame->payload);
        HelloAck ack;
        ack.workerId = workerId;
        EXPECT_TRUE(conn.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::HelloAck),
            encodeHelloAck(ack))));
        PlanCatchUp catchUp;
        catchUp.fromSeq = hello.nextPlanSeq;
        EXPECT_TRUE(conn.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::PlanCatchUp),
            encodePlanCatchUp(catchUp))));
        return hello;
    };

    PlanBegin begin;
    begin.planSeq = 0;
    begin.planName = "cut";
    begin.jobCount = 2;
    begin.fingerprint = fingerprint;
    const std::string beginFrame = encodeFrame(
        static_cast<std::uint8_t>(MsgType::PlanBegin),
        encodePlanBegin(begin));

    // Connection 1: handshake, start the plan, deal job 0, take its
    // result — then vanish, as a crashed network link would.
    {
        TcpStream conn = listener.accept();
        ASSERT_TRUE(conn.valid());
        FrameParser parser;
        const Hello hello = handshake(conn, parser, 1);
        EXPECT_EQ(hello.reconnect, 0u);
        EXPECT_EQ(hello.nextPlanSeq, 0u);
        ASSERT_TRUE(conn.sendAll(beginFrame));
        auto planAck = readProtocolFrame(conn, parser);
        ASSERT_TRUE(planAck.has_value());
        EXPECT_EQ(planAck->type,
                  static_cast<std::uint8_t>(MsgType::PlanAck));
        auto request = readProtocolFrame(conn, parser);
        ASSERT_TRUE(request.has_value());
        EXPECT_EQ(request->type,
                  static_cast<std::uint8_t>(MsgType::JobRequest));
        JobAssign assign;
        assign.planSeq = 0;
        assign.jobIndex = 0;
        ASSERT_TRUE(conn.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::JobAssign),
            encodeJobAssign(assign))));
        auto result = readProtocolFrame(conn, parser);
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(result->type,
                  static_cast<std::uint8_t>(MsgType::JobResult));
        EXPECT_EQ(decodeJobResult(result->payload).payloadOrError,
                  "result0");
        conn.close(); // mid-plan cut
    }

    // Connection 2: the worker's redial. It must identify itself as a
    // reconnect still expecting plan 0, re-ack the re-sent PlanBegin,
    // and pull only the remaining job.
    {
        TcpStream conn = listener.accept();
        ASSERT_TRUE(conn.valid());
        FrameParser parser;
        const Hello hello = handshake(conn, parser, 2);
        EXPECT_EQ(hello.reconnect, 1u);
        EXPECT_EQ(hello.nextPlanSeq, 0u);
        ASSERT_TRUE(conn.sendAll(beginFrame));
        auto planAck = readProtocolFrame(conn, parser);
        ASSERT_TRUE(planAck.has_value());
        EXPECT_EQ(planAck->type,
                  static_cast<std::uint8_t>(MsgType::PlanAck));
        auto request = readProtocolFrame(conn, parser);
        ASSERT_TRUE(request.has_value());
        EXPECT_EQ(request->type,
                  static_cast<std::uint8_t>(MsgType::JobRequest));
        JobAssign assign;
        assign.planSeq = 0;
        assign.jobIndex = 1;
        ASSERT_TRUE(conn.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::JobAssign),
            encodeJobAssign(assign))));
        auto result = readProtocolFrame(conn, parser);
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(result->type,
                  static_cast<std::uint8_t>(MsgType::JobResult));
        EXPECT_EQ(decodeJobResult(result->payload).payloadOrError,
                  "result1");

        PlanResults results;
        results.planSeq = 0;
        results.outcomes.push_back(
            ExecBackend::JobOutcome{"result0", ""});
        results.outcomes.push_back(
            ExecBackend::JobOutcome{"result1", ""});
        ASSERT_TRUE(conn.sendAll(encodeFrame(
            static_cast<std::uint8_t>(MsgType::PlanResults),
            encodePlanResults(results))));

        workerThread.join();
        // Drain the worker's goodbye so its dtor send succeeds.
        readProtocolFrame(conn, parser);
    }

    EXPECT_EQ(jobRuns.load(), 2); // job 0 was not re-run
    EXPECT_EQ(finalWorkerId, 2u);
    ASSERT_EQ(workerOutcomes.size(), 2u);
    EXPECT_EQ(workerOutcomes[0].payload, "result0");
    EXPECT_EQ(workerOutcomes[1].payload, "result1");
}

// A WorkerBackend that joins after a plan already completed is served
// that plan from PlanCatchUp without a single wire job, then runs the
// next plan live alongside the original worker.
TEST(EndToEnd, LateJoinerCatchesUpOnCompletedPlansThenRunsLive)
{
    MasterOptions options;
    options.port = 0;
    options.minWorkers = 1;
    options.connectTimeout = 30.0;
    MasterBackend master(options);
    const std::uint16_t port = master.port();

    std::promise<void> planZeroDone;
    std::shared_future<void> planZeroDoneFuture(
        planZeroDone.get_future());
    // Worker A holds plan "second" open until B has joined. Otherwise
    // A can finish it alone first, and B then dials a master that no
    // longer serves the wire and waits for its handshake forever.
    std::promise<void> workerBJoined;
    std::future<void> workerBJoinedFuture = workerBJoined.get_future();

    std::vector<ExecBackend::JobOutcome> master0, master1;
    std::thread masterThread([&] {
        master0 =
            master.executePlan("first", trivialJobs(3), nullptr);
        planZeroDone.set_value();
        master1 =
            master.executePlan("second", trivialJobs(2), nullptr);
    });

    std::vector<ExecBackend::JobOutcome> a0, a1;
    std::thread workerAThread([&] {
        WorkerOptions workerOptions;
        workerOptions.host = "127.0.0.1";
        workerOptions.port = port;
        WorkerBackend worker(workerOptions);
        a0 = worker.executePlan("first", trivialJobs(3), nullptr);
        workerBJoinedFuture.wait();
        a1 = worker.executePlan("second", trivialJobs(2), nullptr);
    });

    std::vector<ExecBackend::JobOutcome> b0, b1;
    std::thread workerBThread([&] {
        planZeroDoneFuture.wait();
        WorkerOptions workerOptions;
        workerOptions.host = "127.0.0.1";
        workerOptions.port = port;
        WorkerBackend worker(workerOptions);
        workerBJoined.set_value();
        // Plan "first" finished before this worker existed: served
        // locally from the catch-up buffer, fingerprint-checked.
        b0 = worker.executePlan("first", trivialJobs(3), nullptr);
        b1 = worker.executePlan("second", trivialJobs(2), nullptr);
    });

    masterThread.join();
    workerAThread.join();
    workerBThread.join();

    ASSERT_EQ(master0.size(), 3u);
    ASSERT_EQ(master1.size(), 2u);
    ASSERT_EQ(b0.size(), master0.size());
    for (std::size_t i = 0; i < master0.size(); ++i) {
        EXPECT_EQ(b0[i].payload, master0[i].payload);
        EXPECT_EQ(a0[i].payload, master0[i].payload);
    }
    ASSERT_EQ(b1.size(), master1.size());
    for (std::size_t i = 0; i < master1.size(); ++i) {
        EXPECT_EQ(b1[i].payload, master1[i].payload);
        EXPECT_EQ(a1[i].payload, master1[i].payload);
    }
}

// A resumed master whose journal already covers a whole plan returns
// it without dispatching anything — no workers are even connected.
TEST(EndToEnd, ResumedMasterServesFullyJournaledPlanWithoutWorkers)
{
    TempPath tmp("resume");
    auto jobs = trivialJobs(2);
    const std::uint64_t fingerprint =
        planFingerprint("journaled", jobs);
    {
        JournalWriter writer;
        writer.open(tmp.path);
        writer.planBegin(0, "journaled", 2, fingerprint);
        writer.job(0, 0, true, jobs[0].label, jobs[0].seed,
                   "payload0", sampleDelta());
        writer.job(0, 1, false, jobs[1].label, jobs[1].seed,
                   "it broke", "");
        writer.planEnd(0);
    }

    MasterOptions options;
    options.port = 0;
    options.minWorkers = 1;
    options.journalPath = tmp.path;
    options.resume = true;
    MasterBackend master(options);

    const auto outcomes =
        master.executePlan("journaled", std::move(jobs), nullptr);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].payload, "payload0");
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_EQ(outcomes[1].error, "it broke");
}

using ResumeDeathTest = ::testing::Test;

TEST(ResumeDeathTest, ReplayedPlanWithWrongFingerprintIsFatal)
{
    TempPath tmp("resume_fp");
    {
        JournalWriter writer;
        writer.open(tmp.path);
        writer.planBegin(0, "journaled", 1, 0xdeadbeefu);
        writer.job(0, 0, true, "job0", 100, "payload0", "");
        writer.planEnd(0);
    }
    MasterOptions options;
    options.port = 0;
    options.journalPath = tmp.path;
    options.resume = true;
    MasterBackend master(options);
    // The journal was written by a different plan shape; resuming
    // must refuse to splice its results into this sweep.
    EXPECT_EXIT(
        master.executePlan("journaled", trivialJobs(1), nullptr),
        testing::ExitedWithCode(1), "fingerprint");
}
