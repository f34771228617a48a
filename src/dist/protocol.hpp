/**
 * @file
 * Message vocabulary of the master/worker protocol.
 *
 * Both ends run the SAME bench binary over the same deterministic
 * RunPlan; closures never cross the wire. The master deals job
 * *indices*; a worker executes its locally built job body for that
 * index and ships the encoded result back. Safety rails:
 *
 *  - A versioned handshake (Hello/HelloAck/HelloReject) rejects
 *    mismatched binaries outright.
 *  - PlanBegin carries a sequence number and an FNV-1a fingerprint
 *    over (plan name, job count, every label, every seed). A worker
 *    whose locally built plan fingerprints differently has diverged
 *    from the master and refuses the plan — better a loud failure
 *    than a silently wrong artifact.
 *  - Every job result carries the worker's sim-scope stats delta for
 *    that job (counters/gauges/histograms observed while it ran), so
 *    the master's registry — the one exported into artifacts — ends up
 *    exactly as if it had executed every job itself. Deltas are
 *    commutative (integer adds, max-gauges, bucket adds), so apply
 *    order cannot perturb the artifact.
 *  - PlanResults broadcasts the full ordered outcome list to every
 *    worker at plan end, keeping workers in lockstep: benches feed
 *    earlier plan results into later plans (e.g. the Fig. 7 budget
 *    priming), so every process must observe identical results.
 *
 * Every message payload (and every journal record, journal.hpp) is a
 * visitFields aggregate encoded by runner::JobCodec: fixed-width
 * little-endian fields (common/bytes.hpp), decoders bounds-checked and
 * rejecting trailing bytes with DecodeError. Nested values travel as
 * themselves — the only bytes inside a message are a job's own encoded
 * result (JobOutcome::payload).
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hpp"
#include "runner/backend.hpp"
#include "runner/serial.hpp"

namespace codecrunch::dist {

using JobOutcome = runner::ExecBackend::JobOutcome;

/** Handshake magic: "CCDW" (CodeCrunch Distributed Worker). */
inline constexpr std::uint32_t kMagic = 0x43434457u;
/** Bump on ANY wire-format change; mismatches are rejected.
 *  v2: frame codec byte, Hello nextPlanSeq/codecs, PlanCatchUp.
 *  v3: master->worker Heartbeat RTT probes (8-byte nonce payload,
 *      echoed verbatim by the worker).
 *  v4: every payload is a JobCodec aggregate; JobResult carries a
 *      JobOutcome (JobFailed is gone) and nested stats deltas. */
inline constexpr std::uint32_t kProtocolVersion = 4;

/** Hello.codecs bitmask: frame codecs this end can decode. */
inline constexpr std::uint32_t kCodecBitLz4 = 1u << 0;

/** Frame type tags (framing.hpp); payload struct of the same name. */
enum class MsgType : std::uint8_t {
    Hello = 1,       // worker -> master
    HelloAck = 2,    // master -> worker
    HelloReject = 3, // master -> worker (then close)
    PlanBegin = 4,   // master -> worker
    PlanAck = 5,     // worker -> master
    JobRequest = 6,  // worker -> master (pull scheduling)
    JobAssign = 7,   // master -> worker
    JobResult = 8,   // worker -> master: outcome plus stats delta
    Heartbeat = 10,  // worker -> master: liveness (empty payload);
                     // master -> worker: RTT probe, which the worker
                     // echoes back verbatim
    PlanResults = 11, // master -> worker: ordered outcomes
    Error = 12,      // either direction: fatal condition description
    Shutdown = 13,   // master -> worker: drain and exit (empty)
    Bye = 14,        // worker -> master: orderly goodbye (empty)
    PlanCatchUp = 15, // master -> worker: completed plans + baseline
};

/** The one codec of every message payload and journal record; its
 *  decode throws DecodeError on a malformed payload. */
using runner::JobCodec;

/**
 * The sim-scope instruments one job (or a whole registry, for a
 * catch-up baseline) contributed, by name. Counters carry their
 * increment, zero included: registration alone makes an instrument
 * appear (as 0) in the artifact's stats block, so the master must
 * learn every name the job touched. Gauges carry their after-value
 * (the master's max-merge makes re-observing idempotent). Histograms
 * carry bounds plus per-bucket, count and sum increments (the sum
 * rides along for --stats-out but is excluded from artifacts).
 */
struct StatsDelta {
    template <typename T>
    struct Entry {
        std::string name;
        T value{};

        template <typename V>
        void
        visitFields(V&& v)
        {
            v(name);
            v(value);
        }
    };

    std::vector<Entry<std::uint64_t>> counters;
    std::vector<Entry<double>> gauges;
    std::vector<Entry<obs::Histogram::Snapshot>> histograms;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(counters);
        v(gauges);
        v(histograms);
    }
};

/** A finished plan: its fingerprint and ordered outcomes. */
struct CompletedPlan {
    std::uint64_t fingerprint = 0;
    std::vector<JobOutcome> outcomes;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(fingerprint);
        v(outcomes);
    }
};

struct Hello {
    std::uint32_t magic = kMagic;
    std::uint32_t version = kProtocolVersion;
    std::uint64_t pid = 0;
    /** Connect attempts made (>1 means the worker had to retry). */
    std::uint32_t connectAttempts = 1;
    /**
     * The plan sequence number this worker will execute next: 0 for a
     * fresh worker, >0 for one reconnecting mid-sweep. The master's
     * PlanCatchUp ships the completed plans from here on; a worker
     * AHEAD of the master (nextPlanSeq > completed count) is rejected.
     */
    std::uint64_t nextPlanSeq = 0;
    /** Frame codecs this worker decodes (kCodecBit* mask). */
    std::uint32_t codecs = kCodecBitLz4;
    /** 1 when this Hello re-establishes a lost connection. */
    std::uint8_t reconnect = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(magic);
        v(version);
        v(pid);
        v(connectAttempts);
        v(nextPlanSeq);
        v(codecs);
        v(reconnect);
    }
};

struct HelloAck {
    std::uint32_t magic = kMagic;
    std::uint32_t version = kProtocolVersion;
    std::uint32_t workerId = 0;
    /** Frame codec negotiated for BOTH directions (framing.hpp tag:
     *  kCodecLz4 when the worker offered it, else kCodecNone). */
    std::uint8_t codec = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(magic);
        v(version);
        v(workerId);
        v(codec);
    }
};

struct HelloReject {
    std::string reason;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(reason);
    }
};

struct PlanBegin {
    std::uint64_t planSeq = 0;
    std::string planName;
    std::uint64_t jobCount = 0;
    std::uint64_t fingerprint = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
        v(planName);
        v(jobCount);
        v(fingerprint);
    }
};

struct PlanAck {
    std::uint64_t planSeq = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
    }
};

struct JobRequest {
    std::uint64_t planSeq = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
    }
};

struct JobAssign {
    std::uint64_t planSeq = 0;
    std::uint64_t jobIndex = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
        v(jobIndex);
    }
};

/**
 * A job's outcome (a failed one carries its non-empty error and is
 * never retried: the exception is deterministic) plus the sim-scope
 * stats the job produced.
 */
struct JobResult {
    std::uint64_t planSeq = 0;
    std::uint64_t jobIndex = 0;
    JobOutcome outcome;
    StatsDelta stats;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
        v(jobIndex);
        v(outcome);
        v(stats);
    }
};

/** Master RTT probe; the worker's keepalive beats carry no payload. */
struct Heartbeat {
    std::uint64_t nonce = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(nonce);
    }
};

struct PlanResults {
    std::uint64_t planSeq = 0;
    std::vector<JobOutcome> outcomes;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
        v(outcomes);
    }
};

struct Error {
    std::string text;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(text);
    }
};

/**
 * Sent by the master right after HelloAck: everything a fresh or
 * reconnecting worker needs to enter lockstep mid-sequence. `plans`
 * holds each plan the master already completed, starting at the
 * worker's Hello.nextPlanSeq — the worker buffers them and returns
 * each from its local executePlan without touching the wire,
 * fingerprint-checked against its locally built plan.
 * `statsBaseline` is the master's current sim-scope registry as a
 * delta from empty; a truly fresh worker applies it so bench code
 * reading registry state mid-sweep observes the same values
 * everywhere. Reconnecting workers (nextPlanSeq > 0 or prior jobs
 * done) ignore it — their registry already holds their own history.
 */
struct PlanCatchUp {
    std::uint64_t fromSeq = 0;
    std::vector<CompletedPlan> plans;
    StatsDelta statsBaseline;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(fromSeq);
        v(plans);
        v(statsBaseline);
    }
};

/**
 * FNV-1a fingerprint over the plan identity: name, job count, and
 * every (label, seed) pair in order. Master and worker both compute it
 * from their locally built plans; equality certifies both processes
 * lowered the same deterministic plan.
 */
std::uint64_t
planFingerprint(std::string_view planName,
                const std::vector<runner::ExecBackend::SerializedJob>&
                    jobs);

/**
 * Difference between two sim-scope registry snapshots. `before` must
 * be a snapshot taken on the same registry earlier than `after`
 * (instruments only grow, counters only increase); an empty `before`
 * yields the whole registry.
 */
StatsDelta diffStats(const obs::Registry::StatsSnapshot& before,
                     const obs::Registry::StatsSnapshot& after);

/**
 * Apply a delta to `registry`, registering any instrument it has not
 * seen yet. All operations commute, so applying job deltas in
 * completion order yields the same registry state as local execution.
 * The delta is checked before anything is registered: a histogram
 * whose bounds are empty, not finite or not strictly ascending, whose
 * counts are not one longer than its bounds, a name sent twice, or a
 * name the registry holds as another kind, scope or bounds throws
 * DecodeError and leaves the registry untouched.
 */
void applyStatsDelta(const StatsDelta& delta,
                     obs::Registry& registry);

} // namespace codecrunch::dist
