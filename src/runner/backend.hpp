/**
 * @file
 * Pluggable job-execution backend for RunEngine.
 *
 * The engine's default path executes jobs on its own threads with
 * typed results. A backend replaces that path with a
 * serialized one: the engine lowers each job to (label, seed, thunk →
 * encoded bytes) and hands the whole plan over; the backend returns
 * one outcome per job, in plan order. The dist/ subsystem provides
 * the two real implementations — a master that deals job indices to
 * remote workers over TCP and a worker that executes whatever the
 * master assigns — but the interface is transport-agnostic.
 *
 * Backends must preserve the engine's determinism contract: the
 * returned payloads depend only on the plan (seeds are fixed at plan
 * build; jobs share no mutable state), never on which process or
 * worker executed a job, how often a job was re-dispatched after a
 * worker loss, or in what order results arrived.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/progress.hpp"

namespace codecrunch::runner {

/**
 * Executes whole plans of serialized jobs.
 */
class ExecBackend
{
  public:
    /** One lowered job. */
    struct SerializedJob {
        /** Stable label (fingerprinted across processes). */
        std::string label;
        /** The job's fixed seed (fingerprinted across processes). */
        std::uint64_t seed = 0;
        /**
         * Executes the job body locally and encodes its result.
         * Exceptions escaping the thunk are reported as the job's
         * error, mirroring the local path's per-job capture.
         */
        std::function<std::string()> run;
    };

    /**
     * Result of one job: encoded payload or an error message. The one
     * shape of an outcome everywhere it travels (the dist wire, the
     * journal, catch-up), so it is itself JobCodec-serializable.
     */
    struct JobOutcome {
        std::string payload;
        /** Non-empty means the job body threw (payload is empty). */
        std::string error;

        bool ok() const { return error.empty(); }

        template <typename V>
        void
        visitFields(V&& v)
        {
            v(payload);
            v(error);
        }
    };

    virtual ~ExecBackend() = default;

    /**
     * Execute every job of a plan; outcomes in plan order. `sink` may
     * be null; backends report job lifecycle events to it for live
     * progress (observability only).
     */
    virtual std::vector<JobOutcome>
    executePlan(const std::string& planName,
                std::vector<SerializedJob> jobs,
                ProgressSink* sink) = 0;
};

} // namespace codecrunch::runner
