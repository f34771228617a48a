/**
 * @file
 * Master side of distributed plan execution.
 *
 * MasterBackend is the ExecBackend a bench process installs when run
 * with --dist-master / --dist-workers: it owns the RunPlan (built
 * locally like any other run, seeds fixed at plan build) and deals job
 * indices to pull-scheduling workers over TCP. Results are assembled
 * in plan order and sim-scope stats deltas are applied to the local
 * registry, so the JSON artifact the master writes is byte-identical
 * to a single-process run.
 *
 * Scheduling and failure model:
 *  - Pull scheduling: an idle worker sends JobRequest; the master pops
 *    the next pending index. No static partitioning, so a slow or dead
 *    worker never strands "its" share.
 *  - Worker loss (EOF, socket error, framing violation, or heartbeat
 *    silence) requeues the worker's in-flight job at the FRONT of the
 *    pending queue. Jobs are idempotent (seed fixed at plan build, no
 *    shared mutable state), so re-dispatch cannot change any byte of
 *    the artifact. Re-dispatches per job are capped; exceeding the cap
 *    records a job error, which surfaces in plan order like a local
 *    job exception.
 *  - A JobResult whose outcome carries an error is a *deterministic*
 *    job exception: it is recorded, never retried (a retry would
 *    deterministically fail again), and surfaces after all jobs
 *    settle, exactly like the local path.
 *  - A frame that does not decode (DecodeError), a stats delta the
 *    registry refuses included, drops that worker like a loss; the
 *    other workers keep being served.
 *  - Losing the last worker opens a reconnect grace window; only if
 *    no worker (re)joins within it does the master give up.
 *  - Workers may join or rejoin at ANY point in the sweep: the
 *    handshake ships a PlanCatchUp with every completed plan's
 *    results (fingerprint-checked against the joiner's local plan)
 *    plus a stats baseline, and mid-plan joiners additionally get the
 *    active PlanBegin so they can pull work immediately.
 *  - With a journal enabled, every settled job is fsync'd to an
 *    append-only log before the master acts on it; --resume replays
 *    the journal so a restarted master re-dispatches only unfinished
 *    jobs and still emits byte-identical artifacts.
 *
 * The master is single-threaded: one poll(2) loop multiplexes the
 * listener and every worker connection. Workers spawned locally with
 * --dist-workers are forked from this process re-exec'ing the same
 * binary (spawn.hpp) and are reaped on destruction.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/spawn.hpp"
#include "runner/backend.hpp"

namespace codecrunch::dist {

struct MasterOptions {
    /** Listen port; 0 asks the kernel (see MasterBackend::port()). */
    std::uint16_t port = 0;
    /** Workers to wait for before the first plan starts. */
    std::size_t minWorkers = 1;
    /** Local worker processes to spawn (0 = external workers only). */
    std::size_t spawnWorkers = 0;
    /** Re-dispatches allowed per job after worker losses. */
    std::size_t maxRetries = 3;
    /** Seconds of silence before a worker is declared lost. */
    double heartbeatTimeout = 60.0;
    /**
     * Seconds between Heartbeat RTT probes per worker (a u64 nonce
     * the worker echoes back; the measured round trip feeds the
     * wall.dist.worker<id>.rtt_us max-gauge). Probes only fly while a
     * plan is executing — the master is otherwise not in its loop.
     */
    double rttProbeInterval = 1.0;
    /** Seconds to wait for minWorkers at startup. */
    double connectTimeout = 30.0;
    /**
     * Argv of this process, used to spawn local workers re-executing
     * the same binary with --dist-worker substituted for the master
     * flags. Required when spawnWorkers > 0.
     */
    std::vector<std::string> argv;
    /**
     * Extra argv appended to the FIRST spawned worker only — the
     * --dist-kill-one testing hook injects "--dist-die-after 1" here
     * to stage a deterministic mid-sweep worker loss.
     */
    std::vector<std::string> firstWorkerExtraArgs;
    /**
     * Append-only crash journal recording every settled job
     * (dist/journal.hpp); empty disables journaling.
     */
    std::string journalPath;
    /**
     * Replay journalPath before executing: jobs already journaled are
     * settled without dispatch, fully journaled plans return without
     * touching the wire.
     */
    bool resume = false;
    /** Seconds to wait for a (re)join after the last worker drops. */
    double reconnectGraceSeconds = 30.0;
    /**
     * Crash-test hook: _exit(21) immediately after the Nth job
     * settles from the wire (its journal record is already durable).
     * SIZE_MAX disables it.
     */
    std::size_t dieAfterSettled = static_cast<std::size_t>(-1);
};

class MasterBackend : public runner::ExecBackend
{
  public:
    /** Binds the listener (resolving port 0) and spawns local workers. */
    explicit MasterBackend(MasterOptions options);

    /** Sends Shutdown to connected workers and reaps spawned ones. */
    ~MasterBackend() override;

    /** The bound listen port (useful when options.port was 0). */
    std::uint16_t port() const;

    std::vector<JobOutcome>
    executePlan(const std::string& planName,
                std::vector<SerializedJob> jobs,
                runner::ProgressSink* sink) override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace codecrunch::dist
