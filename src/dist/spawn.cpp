#include "dist/spawn.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/logging.hpp"

namespace codecrunch::dist {

namespace {

/** Flags (normalized, no '=') whose value must be dropped with them. */
bool
isMasterOnlyFlagWithValue(const std::string& flag)
{
    return flag == "--dist-master" || flag == "--dist-workers" ||
           flag == "--dist-min-workers" ||
           flag == "--dist-die-after" || flag == "--journal" ||
           flag == "--dist-master-die-after" ||
           flag == "--dist-chaos-salt";
}

/** Valueless master-only flags dropped from worker argv. */
bool
isMasterOnlyFlag(const std::string& flag)
{
    return flag == "--dist-kill-one" || flag == "--resume" ||
           flag == "--no-journal";
}

} // namespace

std::vector<std::string>
workerArgv(const std::vector<std::string>& masterArgv,
           std::uint16_t port)
{
    std::vector<std::string> argv;
    argv.reserve(masterArgv.size() + 3);
    for (std::size_t i = 0; i < masterArgv.size(); ++i) {
        const std::string& arg = masterArgv[i];
        // Flags may arrive as "--flag value" or "--flag=value".
        const auto eq = arg.find('=');
        const std::string head =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        if (isMasterOnlyFlagWithValue(head)) {
            if (eq == std::string::npos)
                ++i; // skip the detached value
            continue;
        }
        if (head == "--quiet" || isMasterOnlyFlag(head))
            continue; // --quiet is re-added once below
        argv.push_back(arg);
    }
    argv.push_back("--dist-worker");
    argv.push_back("127.0.0.1:" + std::to_string(port));
    argv.push_back("--quiet");
    return argv;
}

pid_t
spawnWorkerProcess(const std::vector<std::string>& argv)
{
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const auto& arg : argv)
        cargv.push_back(const_cast<char*>(arg.c_str()));
    cargv.push_back(nullptr);

    const pid_t master = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("dist: fork() failed: ", std::strerror(errno));
    if (pid == 0) {
        // A spawned worker dies with its master instead of redialling
        // a port nobody serves (workers started with --dist-worker
        // keep their reconnect loop). If the master died before prctl
        // took effect, no signal will come: leave now.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != master)
            ::_exit(1);
        ::execv("/proc/self/exe", cargv.data());
        // Only reached when exec failed; bail hard without running
        // atexit handlers of the half-copied parent image.
        ::_exit(127);
    }
    return pid;
}

void
reapWorkers(const std::vector<pid_t>& pids, double graceSeconds)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(graceSeconds);
    std::vector<pid_t> alive = pids;
    while (!alive.empty()) {
        std::vector<pid_t> still;
        for (const pid_t pid : alive) {
            int status = 0;
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == 0)
                still.push_back(pid);
            // r == pid: reaped; r < 0: already gone — either way done.
        }
        alive.swap(still);
        if (alive.empty())
            break;
        if (std::chrono::steady_clock::now() >= deadline) {
            for (const pid_t pid : alive) {
                warn("dist: killing unresponsive worker pid ", pid);
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

} // namespace codecrunch::dist
