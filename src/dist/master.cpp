#include "dist/master.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <poll.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "dist/framing.hpp"
#include "dist/journal.hpp"
#include "dist/protocol.hpp"
#include "dist/socket.hpp"
#include "obs/stats.hpp"

namespace codecrunch::dist {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Wall-scope per-worker instruments (never in diffable artifacts). */
struct WorkerStats {
    obs::Counter* jobs = nullptr;
    obs::Counter* bytesIn = nullptr;
    obs::Counter* bytesOut = nullptr;
    obs::Counter* framesIn = nullptr;
    obs::Counter* framesOut = nullptr;
    obs::Counter* idleMicros = nullptr;
    obs::Counter* connectAttempts = nullptr;
    /** Max round-trip of the Heartbeat nonce probes, microseconds. */
    obs::Gauge* rttUs = nullptr;
};

WorkerStats
makeWorkerStats(std::uint32_t workerId)
{
    auto& registry = obs::Registry::global();
    const std::string prefix =
        "wall.dist.worker" + std::to_string(workerId) + ".";
    WorkerStats stats;
    stats.jobs = &registry.counter(prefix + "jobs",
                                   obs::StatScope::Wall);
    stats.bytesIn = &registry.counter(prefix + "bytes_in",
                                      obs::StatScope::Wall);
    stats.bytesOut = &registry.counter(prefix + "bytes_out",
                                       obs::StatScope::Wall);
    stats.framesIn = &registry.counter(prefix + "frames_in",
                                       obs::StatScope::Wall);
    stats.framesOut = &registry.counter(prefix + "frames_out",
                                        obs::StatScope::Wall);
    stats.idleMicros = &registry.counter(prefix + "idle_us",
                                         obs::StatScope::Wall);
    stats.connectAttempts = &registry.counter(
        prefix + "connect_attempts", obs::StatScope::Wall);
    stats.rttUs = &registry.gauge(prefix + "rtt_us",
                                  obs::StatScope::Wall);
    return stats;
}

/** One worker connection and its protocol state. */
struct Conn {
    TcpStream stream;
    FrameParser parser;
    /** Assigned at HelloAck; 0 until the handshake completes. */
    std::uint32_t workerId = 0;
    bool handshaken = false;
    /** Frame codec negotiated for this connection (framing.hpp). */
    std::uint8_t codec = kCodecNone;
    /** Worker acked the current plan and may be dealt jobs. */
    bool ackedPlan = false;
    /** Job index the worker is currently executing, if any. */
    std::optional<std::size_t> inflight;
    Clock::time_point lastSeen = Clock::now();
    /** Set while the worker waits for work none is pending. */
    std::optional<Clock::time_point> idleSince;
    /** Outstanding RTT probe: nonce and send time (one in flight). */
    std::optional<std::pair<std::uint64_t, Clock::time_point>> ping;
    /** Epoch default: the first probe fires on the next plan pump. */
    Clock::time_point lastPing{};
    WorkerStats stats;
};

} // namespace

struct MasterBackend::Impl {
    MasterOptions options;
    TcpListener listener;
    std::map<int, Conn> conns; // keyed by fd for poll dispatch
    std::vector<pid_t> spawned;
    std::uint32_t nextWorkerId = 1;
    std::uint64_t planSeq = 0;
    bool firstLivePlan = true;

    /**
     * Every finished plan, in sequence order. Seeded from the journal
     * under --resume, appended to as live plans complete; the
     * handshake's PlanCatchUp serves (re)joining workers from here.
     */
    std::vector<CompletedPlan> completedPlans;
    /** PlanBegin of the in-flight plan (none between plans); handed
     *  to mid-plan joiners right after their PlanCatchUp. */
    std::optional<PlanBegin> activeBegin;

    JournalWriter journal;
    JournalReplay replay;
    /** Jobs settled from the wire this process (die-after hook). */
    std::size_t wireSettled = 0;

    // Aggregate wall-scope instruments.
    obs::Counter* statDispatched = nullptr;
    obs::Counter* statRetries = nullptr;
    obs::Counter* statWorkersLost = nullptr;
    obs::Counter* statWorkersJoined = nullptr;
    obs::Counter* statWorkersReconnected = nullptr;
    obs::Counter* statLz4FramesIn = nullptr;
    obs::Counter* statLz4FramesOut = nullptr;
    // LZ4 link accounting: raw (decoded) vs wire (compressed) body
    // bytes per direction, plus the best per-frame ratio achieved.
    obs::Counter* statLz4RawBytesIn = nullptr;
    obs::Counter* statLz4WireBytesIn = nullptr;
    obs::Counter* statLz4RawBytesOut = nullptr;
    obs::Counter* statLz4WireBytesOut = nullptr;
    obs::Gauge* statLz4RatioIn = nullptr;
    obs::Gauge* statLz4RatioOut = nullptr;
    /** Nonce source for the per-worker Heartbeat RTT probes. */
    std::uint64_t nextPingNonce = 1;

    explicit Impl(MasterOptions opts) : options(std::move(opts))
    {
        auto& registry = obs::Registry::global();
        statDispatched = &registry.counter("wall.dist.dispatched",
                                           obs::StatScope::Wall);
        statRetries = &registry.counter("wall.dist.retries",
                                        obs::StatScope::Wall);
        statWorkersLost = &registry.counter("wall.dist.workers_lost",
                                            obs::StatScope::Wall);
        statWorkersJoined = &registry.counter(
            "wall.dist.workers_joined", obs::StatScope::Wall);
        statWorkersReconnected = &registry.counter(
            "wall.dist.workers_reconnected", obs::StatScope::Wall);
        statLz4FramesIn = &registry.counter(
            "wall.dist.lz4_frames_in", obs::StatScope::Wall);
        statLz4FramesOut = &registry.counter(
            "wall.dist.lz4_frames_out", obs::StatScope::Wall);
        statLz4RawBytesIn = &registry.counter(
            "wall.dist.lz4_raw_bytes_in", obs::StatScope::Wall);
        statLz4WireBytesIn = &registry.counter(
            "wall.dist.lz4_wire_bytes_in", obs::StatScope::Wall);
        statLz4RawBytesOut = &registry.counter(
            "wall.dist.lz4_raw_bytes_out", obs::StatScope::Wall);
        statLz4WireBytesOut = &registry.counter(
            "wall.dist.lz4_wire_bytes_out", obs::StatScope::Wall);
        statLz4RatioIn = &registry.gauge("wall.dist.lz4_ratio_in",
                                         obs::StatScope::Wall);
        statLz4RatioOut = &registry.gauge("wall.dist.lz4_ratio_out",
                                          obs::StatScope::Wall);

        if (!options.journalPath.empty()) {
            std::size_t keepBytes = static_cast<std::size_t>(-1);
            if (options.resume) {
                replay = readJournal(options.journalPath);
                keepBytes = replay.validBytes;
                loadCompletedPlans();
                // Journaled deltas restore the registry exactly as if
                // this process had settled those jobs itself.
                applyJournaledStats(replay, options.journalPath,
                                    registry);
                inform("dist: --resume: journal holds ",
                       replay.jobRecords, " settled jobs across ",
                       replay.plans.size(), " plans (",
                       completedPlans.size(), " complete)");
            }
            journal.open(options.journalPath, keepBytes);
        }

        listener.listen(options.port);
        // Spawned here, on the thread that constructs (and so owns)
        // the backend: each worker dies when this thread exits
        // (spawnWorkerProcess).
        if (options.spawnWorkers > 0) {
            if (options.argv.empty())
                fatal("dist: spawning workers requires the master's "
                      "argv");
            const auto argv =
                workerArgv(options.argv, listener.port());
            for (std::size_t i = 0; i < options.spawnWorkers; ++i) {
                auto workerArgs = argv;
                // Distinct chaos salt per worker: each process draws
                // an independent fault stream from the shared seed.
                workerArgs.push_back("--dist-chaos-salt");
                workerArgs.push_back(std::to_string(i));
                if (i == 0)
                    workerArgs.insert(
                        workerArgs.end(),
                        options.firstWorkerExtraArgs.begin(),
                        options.firstWorkerExtraArgs.end());
                spawned.push_back(spawnWorkerProcess(workerArgs));
            }
            options.minWorkers =
                std::max(options.minWorkers, options.spawnWorkers);
        }
    }

    ~Impl()
    {
        const std::string shutdown = encodeFrame(
            static_cast<std::uint8_t>(MsgType::Shutdown), "");
        for (auto& [fd, conn] : conns)
            conn.stream.sendAll(shutdown); // best-effort
        conns.clear();
        reapWorkers(spawned);
    }

    /**
     * Rebuild the contiguous completed-plan prefix from the journal.
     * Plans run strictly in sequence, so the first incomplete (or
     * missing) sequence number ends the prefix; anything journaled
     * past it is a partially executed plan handled by executePlan.
     */
    void
    loadCompletedPlans()
    {
        for (std::uint64_t seq = 0;; ++seq) {
            const auto it = replay.plans.find(seq);
            if (it == replay.plans.end() || !it->second.completed)
                return;
            const JournaledPlan& plan = it->second;
            CompletedPlan completed{plan.fingerprint, {}};
            for (std::uint64_t i = 0; i < plan.jobCount; ++i) {
                const auto job = plan.jobs.find(i);
                if (job == plan.jobs.end())
                    fatal("dist: journal marks plan #", seq, " ('",
                          plan.name, "') complete but job ", i,
                          " has no record");
                completed.outcomes.push_back(job->second.outcome);
            }
            completedPlans.push_back(std::move(completed));
        }
    }

    void
    send(Conn& conn, MsgType type, std::string_view payload)
    {
        const std::string frame = conn.codec == kCodecLz4
            ? encodeFrameLz4(static_cast<std::uint8_t>(type),
                             payload)
            : encodeFrame(static_cast<std::uint8_t>(type), payload);
        // Codec byte sits after the u32 length and the type byte.
        if (static_cast<std::uint8_t>(frame[5]) == kCodecLz4) {
            statLz4FramesOut->add(1);
            // Wire body = frame minus [u32 len][u8 type][u8 codec].
            const std::size_t wireBody = frame.size() - 6;
            statLz4RawBytesOut->add(payload.size());
            statLz4WireBytesOut->add(wireBody);
            if (wireBody > 0)
                statLz4RatioOut->observe(
                    static_cast<double>(payload.size()) /
                    static_cast<double>(wireBody));
        }
        if (conn.stats.bytesOut)
            conn.stats.bytesOut->add(frame.size());
        if (conn.stats.framesOut)
            conn.stats.framesOut->add(1);
        if (!conn.stream.sendAll(frame))
            conn.stream.close(); // loss is noticed by the poll loop
    }

    /** Accept pending connections; new conns await their Hello. */
    void
    acceptPending()
    {
        for (;;) {
            pollfd p{listener.fd(), POLLIN, 0};
            if (::poll(&p, 1, 0) <= 0 || !(p.revents & POLLIN))
                return;
            TcpStream stream = listener.accept();
            if (!stream.valid())
                return;
            const int fd = stream.fd();
            Conn conn;
            conn.stream = std::move(stream);
            conns.emplace(fd, std::move(conn));
        }
    }

    void
    completeHandshake(Conn& conn, const Frame& frame)
    {
        if (frame.type != static_cast<std::uint8_t>(MsgType::Hello))
            throw FramingError("expected Hello, got type " +
                               std::to_string(frame.type));
        // Another protocol version's Hello has another layout and may
        // not decode at all: that is a version mismatch too.
        std::optional<Hello> decoded;
        try {
            decoded = JobCodec<Hello>::decode(frame.payload);
        } catch (const DecodeError&) {
        }
        if (!decoded || decoded->magic != kMagic ||
            decoded->version != kProtocolVersion) {
            const std::string worker = decoded
                ? std::to_string(decoded->version)
                : "unknown (undecodable Hello)";
            warn("dist: rejecting worker: protocol version ", worker,
                 ", want ", kProtocolVersion);
            send(conn, MsgType::HelloReject,
                 JobCodec<HelloReject>::encode({
                     "protocol version mismatch: master=" +
                     std::to_string(kProtocolVersion) +
                     " worker=" + worker}));
            conn.stream.close();
            return;
        }
        const Hello& hello = *decoded;
        if (hello.nextPlanSeq > completedPlans.size()) {
            // The worker finished plans this master never saw — it
            // belongs to an earlier master incarnation that was
            // restarted without its journal. Catch-up cannot run
            // plans backwards, so turn it away with the real reason.
            warn("dist: rejecting worker pid ", hello.pid,
                 " — it expects plan #", hello.nextPlanSeq,
                 " but this master completed ",
                 completedPlans.size());
            send(conn, MsgType::HelloReject,
                 JobCodec<HelloReject>::encode({
                     "worker is ahead of the master: it expects "
                     "plan #" +
                     std::to_string(hello.nextPlanSeq) +
                     " but only " +
                     std::to_string(completedPlans.size()) +
                     " plans completed here (master restarted "
                     "without --resume?)"}));
            conn.stream.close();
            return;
        }
        conn.workerId = nextWorkerId++;
        conn.handshaken = true;
        conn.codec = (hello.codecs & kCodecBitLz4) ? kCodecLz4
                                                   : kCodecNone;
        conn.stats = makeWorkerStats(conn.workerId);
        conn.stats.connectAttempts->add(hello.connectAttempts);
        statWorkersJoined->add(1);
        if (hello.reconnect) {
            statWorkersReconnected->add(1);
            inform("dist: worker pid ", hello.pid,
                   " reconnected (now worker ", conn.workerId,
                   ", resuming at plan #", hello.nextPlanSeq, ")");
        }
        HelloAck ack;
        ack.workerId = conn.workerId;
        ack.codec = conn.codec;
        send(conn, MsgType::HelloAck, JobCodec<HelloAck>::encode(ack));

        // Everything the worker missed: completed plans from its
        // position plus the master's registry as a baseline, then the
        // active PlanBegin (if any) so it can pull work immediately.
        PlanCatchUp catchUp;
        catchUp.fromSeq = hello.nextPlanSeq;
        catchUp.plans.assign(
            completedPlans.begin() +
                static_cast<std::ptrdiff_t>(hello.nextPlanSeq),
            completedPlans.end());
        catchUp.statsBaseline = diffStats(
            {}, obs::Registry::global().snapshot(obs::StatScope::Sim));
        send(conn, MsgType::PlanCatchUp,
             JobCodec<PlanCatchUp>::encode(catchUp));
        if (activeBegin)
            send(conn, MsgType::PlanBegin,
                 JobCodec<PlanBegin>::encode(*activeBegin));
    }

    /**
     * Pump every readable connection; returns fds that died (EOF,
     * error, or protocol violation). `onFrame` handles post-handshake
     * frames.
     */
    template <typename F>
    std::vector<int>
    pump(int timeoutMs, F&& onFrame)
    {
        acceptPending();
        std::vector<pollfd> fds;
        std::vector<Conn*> polled; // polled[i] <-> fds[i + 1]
        fds.reserve(conns.size() + 1);
        polled.reserve(conns.size());
        fds.push_back({listener.fd(), POLLIN, 0});
        for (auto& [fd, conn] : conns) {
            fds.push_back({fd, POLLIN, 0});
            polled.push_back(&conn);
        }
        ::poll(fds.data(), fds.size(), timeoutMs);
        // Conns accepted here are picked up by the next pump; map
        // insertion does not invalidate the polled[] pointers.
        acceptPending();

        std::vector<int> dead;
        for (std::size_t i = 0; i < polled.size(); ++i) {
            Conn& conn = *polled[i];
            const pollfd& pfd = fds[i + 1];
            const int fd = pfd.fd;
            if (!conn.stream.valid()) {
                dead.push_back(fd);
                continue;
            }
            if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buffer[64 * 1024];
            const long n =
                conn.stream.recvSome(buffer, sizeof(buffer));
            if (n <= 0) {
                dead.push_back(fd);
                continue;
            }
            if (conn.stats.bytesIn)
                conn.stats.bytesIn->add(
                    static_cast<std::uint64_t>(n));
            conn.parser.feed(
                std::string_view(buffer,
                                 static_cast<std::size_t>(n)));
            try {
                while (auto frame = conn.parser.next()) {
                    conn.lastSeen = Clock::now();
                    if (conn.stats.framesIn)
                        conn.stats.framesIn->add(1);
                    if (frame->codec == kCodecLz4) {
                        statLz4FramesIn->add(1);
                        statLz4RawBytesIn->add(
                            frame->payload.size());
                        statLz4WireBytesIn->add(frame->wireBody);
                        if (frame->wireBody > 0)
                            statLz4RatioIn->observe(
                                static_cast<double>(
                                    frame->payload.size()) /
                                static_cast<double>(
                                    frame->wireBody));
                    }
                    if (!conn.handshaken)
                        completeHandshake(conn, *frame);
                    else
                        onFrame(conn, *frame);
                    if (!conn.stream.valid())
                        break;
                }
            } catch (const DecodeError& e) {
                warn("dist: dropping worker ", conn.workerId, ": ",
                     e.what());
                dead.push_back(fd);
            }
            if (!conn.stream.valid() &&
                std::find(dead.begin(), dead.end(), fd) ==
                    dead.end())
                dead.push_back(fd);
        }
        return dead;
    }

    std::size_t
    readyWorkers() const
    {
        std::size_t n = 0;
        for (const auto& [fd, conn] : conns)
            if (conn.handshaken)
                ++n;
        return n;
    }

    /** Block until minWorkers finished their handshake (first plan). */
    void
    waitForWorkers()
    {
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(
                               options.connectTimeout);
        while (readyWorkers() < options.minWorkers) {
            if (Clock::now() >= deadline)
                fatal("dist: only ", readyWorkers(), " of ",
                      options.minWorkers,
                      " workers connected within ",
                      options.connectTimeout, "s");
            const auto dead =
                pump(100, [](Conn&, const Frame& frame) {
                    const auto type =
                        static_cast<MsgType>(frame.type);
                    if (type != MsgType::Heartbeat &&
                        type != MsgType::Bye)
                        throw FramingError(
                            "unexpected frame before plan: type " +
                            std::to_string(frame.type));
                });
            for (const int fd : dead)
                conns.erase(fd);
        }
    }
};

MasterBackend::MasterBackend(MasterOptions options)
    : impl_(std::make_unique<Impl>(std::move(options)))
{
}

MasterBackend::~MasterBackend() = default;

std::uint16_t
MasterBackend::port() const
{
    return impl_->listener.port();
}

std::vector<runner::ExecBackend::JobOutcome>
MasterBackend::executePlan(const std::string& planName,
                           std::vector<SerializedJob> jobs,
                           runner::ProgressSink* sink)
{
    Impl& m = *impl_;
    const std::uint64_t seq = m.planSeq++;
    const std::uint64_t fingerprint =
        planFingerprint(planName, jobs);

    // Plans fully journaled before a crash return straight from the
    // replayed results — zero dispatch, zero re-execution. Live plans
    // always enter at seq == completedPlans.size(), so a smaller seq
    // can only mean a journal-restored plan.
    if (seq < m.completedPlans.size()) {
        if (m.completedPlans[seq].fingerprint != fingerprint)
            fatal("dist: --resume journal plan #", seq,
                  " fingerprint ",
                  m.completedPlans[seq].fingerprint,
                  " does not match local plan '", planName,
                  "' (fingerprint ", fingerprint,
                  ") — different binary or configuration?");
        const auto& outcomes = m.completedPlans[seq].outcomes;
        if (outcomes.size() != jobs.size())
            fatal("dist: --resume journal plan #", seq, " has ",
                  outcomes.size(), " outcomes for ", jobs.size(),
                  " jobs");
        inform("dist: plan '", planName, "' replayed from journal (",
               jobs.size(), " jobs skipped)");
        if (sink) {
            sink->planStarted(planName, jobs.size());
            sink->planFinished();
        }
        return outcomes;
    }

    if (m.firstLivePlan) {
        m.waitForWorkers();
        m.firstLivePlan = false;
    }

    if (sink)
        sink->planStarted(planName, jobs.size());

    m.activeBegin = PlanBegin{seq, planName, jobs.size(), fingerprint};
    const std::string beginPayload =
        JobCodec<PlanBegin>::encode(*m.activeBegin);
    for (auto& [fd, conn] : m.conns) {
        conn.ackedPlan = false;
        conn.inflight.reset();
        conn.idleSince.reset();
        if (conn.handshaken)
            m.send(conn, MsgType::PlanBegin, beginPayload);
    }

    std::vector<std::optional<JobOutcome>> outcomes(jobs.size());
    std::vector<std::size_t> retries(jobs.size(), 0);
    std::size_t settled = 0;

    // A partially journaled plan (the crash interrupted it) settles
    // its journaled jobs up front; only the remainder is dispatched.
    const JournaledPlan* replayPlan = nullptr;
    if (const auto it = m.replay.plans.find(seq);
        it != m.replay.plans.end()) {
        if (it->second.fingerprint != fingerprint ||
            it->second.jobCount != jobs.size())
            fatal("dist: --resume journal plan #", seq,
                  " does not match local plan '", planName,
                  "' — different binary or configuration?");
        replayPlan = &it->second;
        for (const auto& [index, job] : replayPlan->jobs) {
            if (index >= jobs.size())
                fatal("dist: journal job index ", index,
                      " out of range for plan '", planName, "'");
            const auto i = static_cast<std::size_t>(index);
            outcomes[i] = job.outcome;
            ++settled;
            if (sink) {
                sink->jobStarted(i, jobs[i].label, 0.0);
                sink->jobFinished(i, job.outcome.ok());
            }
        }
        inform("dist: plan '", planName, "': ", settled, " of ",
               jobs.size(), " jobs replayed from journal");
    } else if (m.journal.active()) {
        m.journal.planBegin(*m.activeBegin);
    }

    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!outcomes[i])
            pending.push_back(i);

    // Throws DecodeError, before anything is journaled or recorded,
    // when the registry refuses the delta.
    auto settle = [&](std::size_t index, JobOutcome outcome,
                      StatsDelta stats) {
        if (outcomes[index])
            return; // duplicate after a re-dispatch race; first wins
        applyStatsDelta(stats, obs::Registry::global());
        JournaledJob record{seq, index, jobs[index].label,
                            jobs[index].seed, std::move(outcome),
                            std::move(stats)};
        // Journal before acting on the result: once the master's
        // behavior can depend on this outcome, it is durable.
        if (m.journal.active())
            m.journal.job(record);
        outcomes[index] = std::move(record.outcome);
        ++settled;
        ++m.wireSettled;
        if (m.wireSettled >= m.options.dieAfterSettled) {
            // Crash-test hook: vanish with the journal record already
            // fsync'd, exactly what a powered-off master looks like
            // to a --resume restart.
            warn("dist: --dist-master-die-after: exiting after ",
                 m.wireSettled, " settled jobs");
            std::_Exit(21);
        }
    };

    auto dealJob = [&](Conn& conn) {
        if (pending.empty()) {
            if (!conn.idleSince)
                conn.idleSince = Clock::now();
            return;
        }
        const std::size_t index = pending.front();
        pending.pop_front();
        conn.inflight = index;
        if (conn.idleSince) {
            conn.stats.idleMicros->add(static_cast<std::uint64_t>(
                secondsSince(*conn.idleSince) * 1e6));
            conn.idleSince.reset();
        }
        m.send(conn, MsgType::JobAssign,
               JobCodec<JobAssign>::encode({seq, index}));
        m.statDispatched->add(1);
        if (sink)
            sink->jobStarted(index, jobs[index].label, 0.0);
    };

    // A worker whose JobRequest arrived while `pending` was empty is
    // parked in a blocking read (idleSince set) and never asks again;
    // when a requeue refills the queue those workers must be handed
    // work directly, or the plan deadlocks with jobs pending and
    // every survivor parked.
    auto dealPendingToParked = [&]() {
        for (auto& [fd, conn] : m.conns) {
            if (pending.empty())
                return;
            if (conn.handshaken && conn.ackedPlan &&
                !conn.inflight && conn.idleSince &&
                conn.stream.valid())
                dealJob(conn);
        }
    };

    auto onFrame = [&](Conn& conn, const Frame& frame) {
        switch (static_cast<MsgType>(frame.type)) {
        case MsgType::PlanAck:
            if (JobCodec<PlanAck>::decode(frame.payload).planSeq != seq)
                break; // stale ack from a plan that already settled
            conn.ackedPlan = true;
            break;
        case MsgType::JobRequest: {
            if (JobCodec<JobRequest>::decode(frame.payload).planSeq != seq)
                break; // stale request from the previous plan
            if (!conn.ackedPlan)
                throw FramingError("JobRequest before PlanAck");
            dealJob(conn);
            break;
        }
        case MsgType::JobResult: {
            JobResult result = JobCodec<JobResult>::decode(frame.payload);
            if (result.planSeq != seq)
                throw FramingError("job result for wrong plan");
            if (result.jobIndex >= jobs.size())
                throw FramingError("job result index out of range");
            if (!conn.inflight || *conn.inflight != result.jobIndex)
                throw FramingError("unsolicited job result");
            const bool ok = result.outcome.ok();
            // The job stays in flight until it settles: a delta the
            // registry refuses drops this worker and re-dispatches it.
            settle(result.jobIndex, std::move(result.outcome),
                   std::move(result.stats));
            conn.inflight.reset();
            conn.stats.jobs->add(1);
            if (sink)
                sink->jobFinished(result.jobIndex, ok);
            break;
        }
        case MsgType::Heartbeat:
            // Empty beats are worker keepalives (lastSeen already
            // refreshed by the pump); a payload is our RTT probe's
            // nonce coming back.
            if (!frame.payload.empty() && conn.ping &&
                JobCodec<Heartbeat>::decode(frame.payload).nonce ==
                    conn.ping->first) {
                conn.stats.rttUs->observe(
                    secondsSince(conn.ping->second) * 1e6);
                conn.ping.reset();
            }
            break;
        case MsgType::Bye:
            break;
        case MsgType::Error:
            fatal("dist: worker ", conn.workerId, " reported: ",
                  JobCodec<Error>::decode(frame.payload).text);
            break;
        default:
            throw FramingError("unexpected frame type " +
                               std::to_string(frame.type));
        }
    };

    auto loseWorker = [&](int fd) {
        auto it = m.conns.find(fd);
        if (it == m.conns.end())
            return;
        Conn& conn = it->second;
        m.statWorkersLost->add(1);
        if (conn.inflight) {
            const std::size_t index = *conn.inflight;
            if (!outcomes[index]) {
                if (++retries[index] > m.options.maxRetries) {
                    settle(index,
                           JobOutcome{
                               "", "job '" + jobs[index].label +
                                       "' lost " +
                                       std::to_string(
                                           retries[index]) +
                                       " workers; giving up"},
                           {});
                } else {
                    m.statRetries->add(1);
                    warn("dist: worker ", conn.workerId,
                         " lost; re-dispatching job ", index, " ('",
                         jobs[index].label, "')");
                    // Front of the queue: the re-dispatched job is
                    // the oldest outstanding work.
                    pending.push_front(index);
                }
            }
        } else {
            warn("dist: worker ", conn.workerId, " disconnected");
        }
        m.conns.erase(it);
        dealPendingToParked();
    };

    // Losing every worker starts a grace clock instead of aborting:
    // a chaos disconnect or a rebooting host usually comes back, and
    // a joiner mid-plan is caught up by its handshake.
    std::optional<Clock::time_point> noWorkersSince;
    while (settled < jobs.size()) {
        const auto dead = m.pump(100, onFrame);
        for (const int fd : dead)
            loseWorker(fd);
        // Link RTT probes: one outstanding nonce per worker; the echo
        // lands in the Heartbeat case above and feeds the
        // wall.dist.worker<id>.rtt_us max-gauge. An unanswered probe
        // is simply left pending — heartbeat-timeout handling below
        // already covers wedged links.
        for (auto& [fd, conn] : m.conns) {
            if (!conn.handshaken || !conn.stream.valid() ||
                conn.ping ||
                secondsSince(conn.lastPing) <
                    m.options.rttProbeInterval)
                continue;
            const std::uint64_t nonce = m.nextPingNonce++;
            conn.ping = {{nonce, Clock::now()}};
            conn.lastPing = Clock::now();
            m.send(conn, MsgType::Heartbeat,
                   JobCodec<Heartbeat>::encode({nonce}));
        }
        // Heartbeat silence: a wedged worker is as gone as a dead one.
        std::vector<int> silent;
        for (auto& [fd, conn] : m.conns) {
            if (conn.handshaken &&
                secondsSince(conn.lastSeen) >
                    m.options.heartbeatTimeout)
                silent.push_back(fd);
        }
        for (const int fd : silent) {
            warn("dist: worker ", m.conns[fd].workerId,
                 " heartbeat timeout");
            loseWorker(fd);
        }
        if (settled >= jobs.size())
            break;
        if (m.readyWorkers() == 0) {
            if (!noWorkersSince) {
                noWorkersSince = Clock::now();
                warn("dist: all workers lost with ",
                     jobs.size() - settled,
                     " jobs outstanding; waiting up to ",
                     m.options.reconnectGraceSeconds,
                     "s for a reconnect");
            } else if (secondsSince(*noWorkersSince) >
                       m.options.reconnectGraceSeconds) {
                fatal("dist: no worker reconnected within ",
                      m.options.reconnectGraceSeconds, "s with ",
                      jobs.size() - settled, " jobs outstanding");
            }
        } else {
            noWorkersSince.reset();
        }
    }

    // Hand idle workers their plan-tail idle time before broadcast.
    for (auto& [fd, conn] : m.conns) {
        if (conn.idleSince) {
            conn.stats.idleMicros->add(static_cast<std::uint64_t>(
                secondsSince(*conn.idleSince) * 1e6));
            conn.idleSince.reset();
        }
    }

    std::vector<JobOutcome> results;
    results.reserve(outcomes.size());
    for (auto& outcome : outcomes)
        results.push_back(std::move(*outcome));

    if (m.journal.active())
        m.journal.planEnd({seq});

    // Lockstep broadcast: workers return the identical ordered
    // outcome list from their executePlan, so bench code that feeds
    // plan N's results into plan N+1 stays bit-identical everywhere.
    // Sent to every handshaken conn (acked or not): a worker that
    // joined moments ago still needs the results to leave this plan.
    const std::string resultsPayload =
        JobCodec<PlanResults>::encode({seq, results});
    m.completedPlans.push_back({fingerprint, results});
    m.activeBegin.reset();
    for (auto& [fd, conn] : m.conns) {
        if (conn.handshaken)
            m.send(conn, MsgType::PlanResults, resultsPayload);
    }

    if (sink)
        sink->planFinished();
    return results;
}

} // namespace codecrunch::dist
