#include "dist/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "common/logging.hpp"
#include "dist/framing.hpp"
#include "dist/protocol.hpp"
#include "dist/socket.hpp"
#include "faults/backoff.hpp"
#include "obs/stats.hpp"

namespace codecrunch::dist {

namespace {

/**
 * The link to the master dropped (EOF, send failure, or an injected
 * chaos disconnect). Thrown out of any wire operation and caught by
 * executePlan, which reconnects and resumes — never fatal on its own.
 */
struct ConnLost : std::runtime_error {
    explicit ConnLost(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

} // namespace

struct WorkerBackend::Impl {
    WorkerOptions options;
    FaultySocket sock;
    FrameParser parser;
    /** Connection ordinal: selects the chaos stream for each dial. */
    std::uint64_t connections = 0;
    std::uint32_t workerId = 0;
    std::uint64_t planSeq = 0;
    std::uint8_t wireCodec = kCodecNone;
    std::size_t jobsCompleted = 0;
    bool baselineConsumed = false;

    /**
     * Plans that completed master-side while this worker was away
     * (shipped in PlanCatchUp), keyed by plan sequence. executePlan
     * serves these locally instead of touching the wire.
     */
    std::map<std::uint64_t, CompletedPlan> caughtUp;

    /**
     * Serializes socket writes between main and heartbeat threads,
     * and is held across a reconnect so the heartbeat can never write
     * into a half-established handshake.
     */
    std::mutex writeMutex;
    std::thread heartbeatThread;
    std::mutex heartbeatMutex;
    std::condition_variable heartbeatCv;
    bool stopping = false;

    explicit Impl(WorkerOptions opts) : options(std::move(opts))
    {
        {
            std::lock_guard<std::mutex> lock(writeMutex);
            establishLocked(/*initial=*/true);
        }
        heartbeatThread = std::thread([this] { heartbeatLoop(); });
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lock(heartbeatMutex);
            stopping = true;
        }
        heartbeatCv.notify_all();
        if (heartbeatThread.joinable())
            heartbeatThread.join();
        if (sock.valid()) {
            std::lock_guard<std::mutex> lock(writeMutex);
            sock.sendAll(encodeFrame(
                static_cast<std::uint8_t>(MsgType::Bye), ""));
        }
    }

    /**
     * Dial + handshake, retrying with capped exponential backoff.
     * Caller holds writeMutex. Fatal once attempts are exhausted or
     * the master answers with HelloReject (retrying cannot fix a
     * version mismatch or a worker that is ahead of the master).
     */
    void
    establishLocked(bool initial)
    {
        for (std::size_t attempt = 1;; ++attempt) {
            if (attempt > 1) {
                const double delay = faults::retryBackoff(
                    static_cast<int>(attempt - 1),
                    options.reconnectBackoffBase,
                    options.reconnectBackoffCap);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(delay));
            }
            if (tryEstablishLocked(initial))
                return;
            if (attempt >= options.maxReconnectAttempts)
                fatal("dist: cannot ", initial ? "" : "re-",
                      "establish connection to master at ",
                      options.host, ":", options.port, " after ",
                      attempt, " attempts");
            warn("dist: connect to master failed (attempt ", attempt,
                 "/", options.maxReconnectAttempts, "); backing off");
        }
    }

    bool
    tryEstablishLocked(bool initial)
    {
        FaultInjector injector(options.chaos, options.chaosSeed,
                               options.chaosSalt, connections);
        ++connections;
        // A refused dial is decided before any packet moves — it
        // models SYN drops and full accept queues.
        if (injector.refuseConnect())
            return false;
        std::uint32_t attempts = 0;
        TcpStream stream = tryConnectTcp(
            options.host, options.port,
            initial ? options.connectTimeout
                    : options.reconnectTimeout,
            &attempts);
        if (!stream.valid())
            return false;
        sock.adopt(std::move(stream), std::move(injector));
        // Any half-frame from the dead link must not prefix the new
        // connection's byte stream.
        parser = FrameParser{};
        try {
            handshakeLocked(initial, attempts);
            return true;
        } catch (const ConnLost& e) {
            warn("dist: handshake interrupted (", e.what(),
                 "); redialing");
            sock.close();
            return false;
        }
    }

    void
    handshakeLocked(bool initial, std::uint32_t connectAttempts)
    {
        Hello hello;
        hello.pid = static_cast<std::uint64_t>(::getpid());
        hello.connectAttempts = connectAttempts;
        hello.nextPlanSeq = planSeq;
        hello.reconnect = initial ? 0 : 1;
        // Hello itself always travels uncompressed: the codec is not
        // negotiated until HelloAck.
        sendRawLocked(MsgType::Hello, JobCodec<Hello>::encode(hello));

        const Frame ackFrame = readFrame(/*writeLockHeld=*/true);
        if (ackFrame.type ==
            static_cast<std::uint8_t>(MsgType::HelloReject))
            fatal("dist: master rejected this worker: ",
                  JobCodec<HelloReject>::decode(ackFrame.payload).reason);
        if (ackFrame.type !=
            static_cast<std::uint8_t>(MsgType::HelloAck))
            fatal("dist: expected HelloAck, got frame type ",
                  ackFrame.type);
        const HelloAck ack = JobCodec<HelloAck>::decode(ackFrame.payload);
        if (ack.magic != kMagic || ack.version != kProtocolVersion)
            fatal("dist: master protocol mismatch (version=",
                  ack.version, ", want ", kProtocolVersion, ")");
        workerId = ack.workerId;
        wireCodec = ack.codec;

        const Frame cuFrame = readFrame(/*writeLockHeld=*/true);
        if (cuFrame.type !=
            static_cast<std::uint8_t>(MsgType::PlanCatchUp))
            fatal("dist: expected PlanCatchUp after HelloAck, got "
                  "frame type ",
                  cuFrame.type);
        PlanCatchUp catchUp = JobCodec<PlanCatchUp>::decode(cuFrame.payload);
        if (catchUp.fromSeq != planSeq)
            fatal("dist: PlanCatchUp starts at plan #",
                  catchUp.fromSeq, " but this worker expects #",
                  planSeq);
        const bool freshProcess =
            planSeq == 0 && jobsCompleted == 0 && !baselineConsumed;
        for (std::size_t i = 0; i < catchUp.plans.size(); ++i)
            caughtUp[catchUp.fromSeq + i] = std::move(catchUp.plans[i]);
        // A fresh process that skips straight past completed plans
        // never ran their jobs, so it adopts the master's accumulated
        // sim-scope registry; a reconnecting worker already holds its
        // own history and must not double it.
        if (freshProcess && !catchUp.plans.empty())
            applyStatsDelta(catchUp.statsBaseline,
                            obs::Registry::global());
        baselineConsumed = true;
        if (!initial)
            inform("dist: worker ", workerId,
                   " reconnected to master (", catchUp.plans.size(),
                   " plans caught up)");
    }

    /** Redial + re-handshake after a lost connection. */
    void
    reconnect()
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        sock.close();
        establishLocked(/*initial=*/false);
    }

    void
    sendRawLocked(MsgType type, std::string_view payload)
    {
        if (!sock.sendAll(encodeFrame(
                static_cast<std::uint8_t>(type), payload)))
            throw ConnLost("send failed");
    }

    void
    send(MsgType type, std::string_view payload)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        const std::string frame = wireCodec == kCodecLz4
            ? encodeFrameLz4(static_cast<std::uint8_t>(type), payload)
            : encodeFrame(static_cast<std::uint8_t>(type), payload);
        if (!sock.sendAll(frame))
            throw ConnLost("send failed");
    }

    /**
     * Blocking read of the next frame; EOF throws ConnLost. Master
     * Heartbeat RTT probes (a u64 nonce payload) are echoed back and
     * consumed here, transparently to every caller — they can arrive
     * interleaved anywhere in the stream, including mid-handshake.
     * Pass writeLockHeld=true from code already holding writeMutex
     * (handshakeLocked) so the echo does not self-deadlock.
     */
    Frame
    readFrame(bool writeLockHeld = false)
    {
        for (;;) {
            if (auto frame = parser.next()) {
                if (frame->type !=
                    static_cast<std::uint8_t>(MsgType::Heartbeat))
                    return *frame;
                if (!frame->payload.empty()) {
                    if (writeLockHeld)
                        sendRawLocked(MsgType::Heartbeat,
                                      frame->payload);
                    else
                        send(MsgType::Heartbeat, frame->payload);
                }
                continue;
            }
            char buffer[64 * 1024];
            const long n = sock.recvSome(buffer, sizeof(buffer));
            if (n <= 0)
                throw ConnLost("master closed the connection");
            parser.feed(std::string_view(
                buffer, static_cast<std::size_t>(n)));
        }
    }

    void
    heartbeatLoop()
    {
        const auto interval = std::chrono::duration<double>(
            options.heartbeatInterval);
        std::unique_lock<std::mutex> lock(heartbeatMutex);
        while (!stopping) {
            heartbeatCv.wait_for(lock, interval,
                                 [this] { return stopping; });
            if (stopping)
                return;
            // A failed or skipped beat is not a loss signal here —
            // the main thread owns reconnects and will notice on its
            // next wire operation. During a reconnect this blocks on
            // writeMutex and then beats on the fresh connection.
            std::lock_guard<std::mutex> writeLock(writeMutex);
            if (sock.valid())
                sock.sendAll(encodeFrame(
                    static_cast<std::uint8_t>(MsgType::Heartbeat),
                    ""));
        }
    }

    /**
     * One attempt to run plan `seq` over the current connection.
     * Throws ConnLost when the link drops; executePlan reconnects and
     * retries.
     */
    std::vector<runner::ExecBackend::JobOutcome>
    runPlanOnWire(std::uint64_t seq,
                  std::uint64_t localFingerprint,
                  const std::string& planName,
                  std::vector<runner::ExecBackend::SerializedJob>&
                      jobs,
                  runner::ProgressSink* sink)
    {
        // The master announces the plan; any divergence between its
        // plan and ours (different binary, different config,
        // nondeterministic plan build) is fatal — running mismatched
        // jobs would produce a plausible-looking but wrong artifact.
        const Frame beginFrame = readFrame();
        if (beginFrame.type ==
            static_cast<std::uint8_t>(MsgType::Shutdown))
            fatal("dist: master shut down before plan '", planName,
                  "'");
        if (beginFrame.type !=
            static_cast<std::uint8_t>(MsgType::PlanBegin))
            fatal("dist: expected PlanBegin, got frame type ",
                  beginFrame.type);
        const auto begin = JobCodec<PlanBegin>::decode(beginFrame.payload);
        if (begin.planSeq != seq)
            fatal("dist: master is at plan #", begin.planSeq,
                  " but this worker expects #", seq);
        if (begin.jobCount != jobs.size() ||
            begin.fingerprint != localFingerprint)
            fatal("dist: plan '", planName, "' diverged: master has ",
                  begin.jobCount, " jobs (fingerprint ",
                  begin.fingerprint, "), worker built ", jobs.size(),
                  " (fingerprint ", localFingerprint, ")");
        send(MsgType::PlanAck, JobCodec<PlanAck>::encode({seq}));

        auto& registry = obs::Registry::global();
        if (sink)
            sink->planStarted(planName, jobs.size());

        for (;;) {
            send(MsgType::JobRequest, JobCodec<JobRequest>::encode({seq}));
            const Frame frame = readFrame();
            switch (static_cast<MsgType>(frame.type)) {
            case MsgType::JobAssign: {
                const auto assign = JobCodec<JobAssign>::decode(frame.payload);
                if (assign.planSeq != seq ||
                    assign.jobIndex >= jobs.size())
                    fatal("dist: bad job assignment (plan ",
                          assign.planSeq, ", index ",
                          assign.jobIndex, ")");
                if (jobsCompleted >= options.dieAfterJobs) {
                    // Worker-loss fault injection: vanish with the
                    // job in flight, exactly what a crashed machine
                    // looks like to the master.
                    std::_Exit(17);
                }
                const std::size_t index =
                    static_cast<std::size_t>(assign.jobIndex);
                if (sink)
                    sink->jobStarted(index, jobs[index].label, 0.0);
                // Serial execution makes the before/after delta
                // exactly this job's contribution (see worker.hpp).
                const auto before =
                    registry.snapshot(obs::StatScope::Sim);
                JobResult result;
                result.planSeq = seq;
                result.jobIndex = assign.jobIndex;
                try {
                    result.outcome.payload = jobs[index].run();
                } catch (const std::exception& e) {
                    // A failed outcome is one with an error: never
                    // an empty one.
                    result.outcome.error = *e.what()
                        ? e.what()
                        : "job failed on worker";
                } catch (...) {
                    result.outcome.error = "unknown exception";
                }
                result.stats = diffStats(
                    before, registry.snapshot(obs::StatScope::Sim));
                send(MsgType::JobResult, JobCodec<JobResult>::encode(result));
                ++jobsCompleted;
                if (sink)
                    sink->jobFinished(index, result.outcome.ok());
                break;
            }
            case MsgType::PlanResults: {
                auto results = JobCodec<PlanResults>::decode(frame.payload);
                if (results.planSeq != seq)
                    fatal("dist: PlanResults for wrong plan");
                if (results.outcomes.size() != jobs.size())
                    fatal("dist: PlanResults has ",
                          results.outcomes.size(), " outcomes for ",
                          jobs.size(), " jobs");
                if (sink)
                    sink->planFinished();
                return std::move(results.outcomes);
            }
            case MsgType::Shutdown:
                fatal("dist: master shut down mid-plan '", planName,
                      "'");
                break;
            case MsgType::Error:
                fatal("dist: master reported: ",
                      JobCodec<Error>::decode(frame.payload).text);
                break;
            default:
                fatal("dist: unexpected frame type ", frame.type,
                      " mid-plan");
            }
        }
    }
};

WorkerBackend::WorkerBackend(WorkerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options)))
{
}

WorkerBackend::~WorkerBackend() = default;

std::uint32_t
WorkerBackend::workerId() const
{
    return impl_->workerId;
}

std::vector<runner::ExecBackend::JobOutcome>
WorkerBackend::executePlan(const std::string& planName,
                           std::vector<SerializedJob> jobs,
                           runner::ProgressSink* sink)
{
    Impl& w = *impl_;
    const std::uint64_t seq = w.planSeq;
    const std::uint64_t localFingerprint =
        planFingerprint(planName, jobs);

    for (;;) {
        // Plans that completed while this worker was disconnected
        // were delivered at handshake; serve them locally so the
        // worker re-enters lockstep without re-running a single job.
        const auto cached = w.caughtUp.find(seq);
        if (cached != w.caughtUp.end()) {
            if (cached->second.fingerprint != localFingerprint)
                fatal("dist: caught-up plan '", planName,
                      "' diverged: master fingerprint ",
                      cached->second.fingerprint, ", worker built ",
                      localFingerprint);
            if (cached->second.outcomes.size() != jobs.size())
                fatal("dist: caught-up plan '", planName, "' has ",
                      cached->second.outcomes.size(),
                      " outcomes for ", jobs.size(), " jobs");
            auto outcomes = std::move(cached->second.outcomes);
            w.caughtUp.erase(cached);
            ++w.planSeq;
            if (sink) {
                sink->planStarted(planName, jobs.size());
                sink->planFinished();
            }
            return outcomes;
        }
        try {
            auto outcomes = w.runPlanOnWire(
                seq, localFingerprint, planName, jobs, sink);
            ++w.planSeq;
            return outcomes;
        } catch (const ConnLost& e) {
            warn("dist: lost connection to master mid-plan '",
                 planName, "' (", e.what(), "); reconnecting");
            // The handshake may deliver this very plan's results via
            // catch-up (it finished while we were away) — loop.
            w.reconnect();
        }
    }
}

} // namespace codecrunch::dist
