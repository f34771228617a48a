/**
 * @file
 * Crash-safe job journal for distributed sweeps.
 *
 * The master appends one record per completed job to
 * `bench/out/<name>.journal` (same framed layout as the wire:
 * [u32 length][u8 type][u8 codec][payload], always uncompressed), and
 * fdatasync()s after every append — a master killed at ANY instant
 * leaves at most one torn record at the tail. `--resume` replays the
 * journal: fully journaled plans are returned without dispatching a
 * single job, a partially journaled plan re-dispatches only its
 * unfinished indices, and each replayed record's stats delta is
 * re-applied so the registry (and therefore the artifact's stats
 * block) is exactly what local execution would have produced. Plan
 * fingerprints are journaled and re-checked on replay, so resuming
 * with a different binary or bench configuration fails loudly instead
 * of splicing mismatched results.
 *
 * Record types (each a JobCodec aggregate, like the wire messages):
 *   Header    JournalHeader: magic "CCJL", journal version — first
 *             record of a file
 *   PlanBegin the wire's PlanBegin message
 *   Job       JournaledJob: plan, index, label, seed, outcome, stats
 *   PlanEnd   PlanEnd: all of the plan's jobs are journaled
 *
 * A truncated final record (the crash window) is detected and dropped:
 * readJournal() reports the valid byte prefix and JournalWriter
 * truncates to it before appending, so the file never contains garbage
 * in the middle. Anything else malformed is fatal — a corrupt journal
 * must not silently resurrect wrong results.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "dist/protocol.hpp"

namespace codecrunch::dist {

/** Journal record type tags (disjoint from wire MsgType for grep). */
enum class JournalRecord : std::uint8_t {
    Header = 100,
    PlanBegin = 101,
    Job = 102,
    PlanEnd = 103,
};

/** Journal magic: "CCJL" (CodeCrunch JournaL). */
inline constexpr std::uint32_t kJournalMagic = 0x43434a4cu;
/** v2: every record is a JobCodec aggregate. */
inline constexpr std::uint32_t kJournalVersion = 2;

struct JournalHeader {
    std::uint32_t magic = kJournalMagic;
    std::uint32_t version = kJournalVersion;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(magic);
        v(version);
    }
};

/** One settled job, as the master journaled it. */
struct JournaledJob {
    std::uint64_t planSeq = 0;
    std::uint64_t jobIndex = 0;
    std::string label;
    std::uint64_t seed = 0;
    JobOutcome outcome;
    StatsDelta stats;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
        v(jobIndex);
        v(label);
        v(seed);
        v(outcome);
        v(stats);
    }
};

struct PlanEnd {
    std::uint64_t planSeq = 0;

    template <typename V>
    void
    visitFields(V&& v)
    {
        v(planSeq);
    }
};

/** Everything the journal recorded about one plan. */
struct JournaledPlan {
    std::string name;
    std::uint64_t jobCount = 0;
    std::uint64_t fingerprint = 0;
    /** PlanEnd seen: every job settled and was journaled. */
    bool completed = false;
    std::map<std::uint64_t, JournaledJob> jobs;
};

/** Parsed journal contents, ready for replay. */
struct JournalReplay {
    std::map<std::uint64_t, JournaledPlan> plans;
    /** Total Job records (the golden_check skip assertion reads it). */
    std::size_t jobRecords = 0;
    /** A torn tail record was dropped (crash mid-append). */
    bool truncatedTail = false;
    /** Byte length of the valid record prefix. */
    std::size_t validBytes = 0;
};

/**
 * Parse a journal file. Returns an empty replay when the file does
 * not exist; fatal on header mismatch or a malformed (non-tail)
 * record.
 */
JournalReplay readJournal(const std::string& path);

/**
 * Re-apply every replayed job's stats delta to `registry`; fatal,
 * naming the journal at `path` corrupt, on a delta applyStatsDelta
 * refuses.
 */
void applyJournaledStats(const JournalReplay& replay,
                         const std::string& path,
                         obs::Registry& registry);

/**
 * Append-only journal writer. Every append is written fully and
 * fdatasync()ed before returning, so a record either exists completely
 * on disk or (in the crash window) is a detectable torn tail.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter&) = delete;
    JournalWriter& operator=(const JournalWriter&) = delete;

    /**
     * Open `path` for journaling. `resumeValidBytes` is the valid
     * prefix from readJournal() when resuming — the file is truncated
     * to it and appends continue after the last good record; pass
     * SIZE_MAX to start a fresh journal (truncate to zero and write
     * the header record). Empty path disables the writer. Fatal on
     * I/O errors.
     */
    void open(const std::string& path,
              std::size_t resumeValidBytes =
                  static_cast<std::size_t>(-1));

    bool active() const { return fd_ >= 0; }
    const std::string& path() const { return path_; }

    void planBegin(const PlanBegin& record);
    void job(const JournaledJob& record);
    void planEnd(const PlanEnd& record);

    void close();

  private:
    void append(JournalRecord type, const std::string& payload);

    int fd_ = -1;
    std::string path_;
};

} // namespace codecrunch::dist
