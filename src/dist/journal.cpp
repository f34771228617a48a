#include "dist/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/logging.hpp"
#include "dist/framing.hpp"

namespace codecrunch::dist {

namespace {

[[noreturn]] void
corrupt(const std::string& path, const DecodeError& error)
{
    // Append-only + fsync-per-record means corruption can only be the
    // torn tail of the final append; anything that decodes badly
    // EARLIER would have been covered by a later fsync and indicates
    // real corruption.
    fatal("journal: ", path, " is corrupt (", error.what(),
          "); delete it or run without --resume");
}

/** Fatal unless `payload` is this build's header. A v1 header (u32
 *  fields) does not decode and is refused like any other version. */
void
checkHeader(const std::string& path, std::string_view payload)
{
    std::string found = "an unreadable header";
    try {
        const auto header = JobCodec<JournalHeader>::decode(payload);
        if (header.magic == kJournalMagic &&
            header.version == kJournalVersion)
            return;
        found = "magic/version " + std::to_string(header.magic) +
            "/" + std::to_string(header.version);
    } catch (const DecodeError&) {
    }
    fatal("journal: ", path, " has ", found,
          ", want journal version ", kJournalVersion, " (magic ",
          kJournalMagic, "); delete it or run without --resume");
}

} // namespace

JournalReplay
readJournal(const std::string& path)
{
    JournalReplay replay;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return replay; // no journal yet: nothing to replay
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string bytes = buffer.str();

    FrameParser parser;
    parser.feed(bytes);
    bool sawHeader = false;
    try {
        while (const auto frame = parser.next()) {
            if (!sawHeader) {
                if (frame->type !=
                    static_cast<std::uint8_t>(
                        JournalRecord::Header))
                    fatal("journal: ", path,
                          " does not start with a header record");
                checkHeader(path, frame->payload);
                sawHeader = true;
                continue;
            }
            switch (static_cast<JournalRecord>(frame->type)) {
            case JournalRecord::PlanBegin: {
                const auto begin = JobCodec<PlanBegin>::decode(frame->payload);
                JournaledPlan& plan = replay.plans[begin.planSeq];
                plan.name = begin.planName;
                plan.jobCount = begin.jobCount;
                plan.fingerprint = begin.fingerprint;
                break;
            }
            case JournalRecord::Job: {
                auto job = JobCodec<JournaledJob>::decode(frame->payload);
                replay.plans[job.planSeq].jobs[job.jobIndex] =
                    std::move(job);
                ++replay.jobRecords;
                break;
            }
            case JournalRecord::PlanEnd:
                replay.plans[JobCodec<PlanEnd>::decode(frame->payload).planSeq]
                    .completed = true;
                break;
            default:
                fatal("journal: ", path,
                      " has unknown record type ", frame->type);
            }
        }
    } catch (const DecodeError& e) {
        corrupt(path, e);
    }
    replay.validBytes = bytes.size() - parser.pendingBytes();
    if (parser.pendingBytes() > 0) {
        replay.truncatedTail = true;
        warn("journal: dropping ", parser.pendingBytes(),
             " bytes of torn tail record in ", path,
             " (crash mid-append)");
    }
    if (!bytes.empty() && !sawHeader)
        fatal("journal: ", path, " has no complete header record");
    return replay;
}

void
applyJournaledStats(const JournalReplay& replay,
                    const std::string& path, obs::Registry& registry)
{
    // Deltas commute, so iteration order is irrelevant.
    try {
        for (const auto& [seq, plan] : replay.plans)
            for (const auto& [index, job] : plan.jobs)
                applyStatsDelta(job.stats, registry);
    } catch (const DecodeError& e) {
        corrupt(path, e);
    }
}

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::open(const std::string& path,
                    std::size_t resumeValidBytes)
{
    close();
    if (path.empty())
        return;
    path_ = path;
    const std::filesystem::path file(path);
    if (file.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(file.parent_path(), ec);
        if (ec)
            fatal("journal: cannot create ",
                  file.parent_path().string(), ": ", ec.message());
    }
    const bool fresh =
        resumeValidBytes == static_cast<std::size_t>(-1);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        fatal("journal: cannot open ", path, ": ",
              std::strerror(errno));
    // Drop everything past the resume point — with a fresh start that
    // is the whole file, with --resume it is the torn tail record (if
    // any), so appends always follow a complete record.
    const off_t keep = fresh
        ? 0
        : static_cast<off_t>(resumeValidBytes);
    if (::ftruncate(fd_, keep) != 0)
        fatal("journal: cannot truncate ", path, ": ",
              std::strerror(errno));
    if (::lseek(fd_, 0, SEEK_END) < 0)
        fatal("journal: cannot seek ", path, ": ",
              std::strerror(errno));
    if (fresh || keep == 0)
        append(JournalRecord::Header,
               JobCodec<JournalHeader>::encode({}));
}

void
JournalWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_.clear();
}

void
JournalWriter::append(JournalRecord type, const std::string& payload)
{
    if (fd_ < 0)
        return;
    const std::string record =
        encodeFrame(static_cast<std::uint8_t>(type), payload);
    std::size_t written = 0;
    while (written < record.size()) {
        const ssize_t n = ::write(fd_, record.data() + written,
                                  record.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("journal: write to ", path_, " failed: ",
                  std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
    // The durability point: once fdatasync returns, this record
    // survives any crash. Sync data only — the file length grows with
    // each append, which fdatasync covers on the filesystems we care
    // about, and syncing the directory entry per record would double
    // the cost for a file created once per sweep.
    if (::fdatasync(fd_) != 0)
        fatal("journal: fdatasync of ", path_, " failed: ",
              std::strerror(errno));
}

void
JournalWriter::planBegin(const PlanBegin& record)
{
    append(JournalRecord::PlanBegin,
           JobCodec<PlanBegin>::encode(record));
}

void
JournalWriter::job(const JournaledJob& record)
{
    append(JournalRecord::Job, JobCodec<JournaledJob>::encode(record));
}

void
JournalWriter::planEnd(const PlanEnd& record)
{
    append(JournalRecord::PlanEnd, JobCodec<PlanEnd>::encode(record));
}

} // namespace codecrunch::dist
