/**
 * @file
 * Local worker spawning for --dist-workers: fork + exec the SAME bench
 * binary (via /proc/self/exe) with the master's dist flags replaced by
 * `--dist-worker 127.0.0.1:<port> --quiet`. Workers must run identical
 * plan-building code (protocol.hpp fingerprints enforce it), and
 * re-exec'ing our own image is the one way to guarantee that.
 */
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace codecrunch::dist {

/**
 * Build a worker argv from the master's argv: strips --dist-master,
 * --dist-workers, --dist-min-workers (and their values), then appends
 * --dist-worker 127.0.0.1:<port> and --quiet. Artifact flags
 * (--json/--stats-out) survive but worker-side writes are suppressed
 * (runner/report.hpp), so workers never race the master on files.
 */
std::vector<std::string>
workerArgv(const std::vector<std::string>& masterArgv,
           std::uint16_t port);

/**
 * fork + execv /proc/self/exe with `argv`; fatal on failure. The
 * worker is SIGKILLed when the calling thread exits, so call this
 * from the thread that owns the MasterBackend.
 */
pid_t spawnWorkerProcess(const std::vector<std::string>& argv);

/**
 * Reap `pids`, escalating politely: waitpid with a grace period, then
 * SIGKILL stragglers. Nonzero exits are ignored — a worker dying is a
 * protocol-level event the master already handled.
 */
void reapWorkers(const std::vector<pid_t>& pids,
                 double graceSeconds = 10.0);

} // namespace codecrunch::dist
