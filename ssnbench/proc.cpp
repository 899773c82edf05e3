#include "proc.hpp"

#include "trace.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char** environ;

namespace ssnbench {

namespace {

long long g_deadline_ns = 0;

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, std::size_t(n));
}

std::vector<std::string> sut_argv(const std::vector<std::string>& args) {
  std::vector<std::string> argv = {"ssnbench", "cli"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

pid_t spawn(const std::vector<std::string>& argv, int stdout_fd, int close_fd) {
  static const std::string exe = self_exe();
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, stdout_fd, STDOUT_FILENO);
  if (close_fd >= 0) posix_spawn_file_actions_addclose(&fa, close_fd);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, exe.c_str(), &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0)
    throw std::runtime_error(std::string("posix_spawn: ") + std::strerror(rc));
  return pid;
}

/// Reap `pid`, first killing it when `kill` is set. Blocking: callers only
/// get here once the child is exiting (its stdout closed) or killed.
ProcResult reap(pid_t pid, bool kill) {
  if (kill) ::kill(pid, SIGKILL);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) != pid)
    if (errno != EINTR)
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
  if (kill) throw std::runtime_error("system under test overran the time limit");
  ProcResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.maxrss_mb = double(ru.ru_maxrss) / 1024.0;
  return r;
}

}  // namespace

void set_hard_deadline_ns(long long deadline_ns) { g_deadline_ns = deadline_ns; }

CpuPin::CpuPin(Side side) {
  if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE && seen < count; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    ++seen;
    if ((seen == count) == (side == Side::kGenerator)) CPU_SET(cpu, &set);
  }
  active_ = ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

CpuPin::~CpuPin() {
  if (active_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

ProcResult run_sut(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2 failed");
  const long long t0 = now_ns();
  pid_t pid = -1;
  try {
    pid = spawn(sut_argv(args), fds[1], fds[0]);
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw;
  }
  ::close(fds[1]);
  std::string out;
  char buf[65536];
  bool overran = false;
  for (;;) {
    pollfd p{fds[0], POLLIN, 0};
    const long long left_ms = (g_deadline_ns - now_ns()) / 1000000;
    if (left_ms <= 0) {
      overran = true;
      break;
    }
    const int rc = ::poll(&p, 1, int(std::min(left_ms, 1000LL)));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, std::size_t(n));
  }
  ::close(fds[0]);
  ProcResult r = reap(pid, overran);
  r.wall_s = double(now_ns() - t0) * 1e-9;
  r.out = std::move(out);
  return r;
}

Daemon::Daemon(const std::vector<std::string>& args, const std::string& log_path)
    : log_path_(log_path) {
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) throw std::runtime_error("cannot open " + log_path);
  started_ns_ = now_ns();
  try {
    const CpuPin pin(CpuPin::Side::kDaemon);
    pid_ = spawn(sut_argv(args), fd, -1);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

Daemon::~Daemon() {
  if (done_ || pid_ < 0) return;
  ::kill(pid_t(pid_), SIGKILL);
  int status = 0;
  while (::waitpid(pid_t(pid_), &status, 0) < 0 && errno == EINTR) {
  }
}

bool Daemon::exited() {
  if (done_) return true;
  int status = 0;
  rusage ru{};
  if (::wait4(pid_t(pid_), &status, WNOHANG, &ru) == pid_t(pid_)) {
    done_ = true;
    reaped_.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    reaped_.maxrss_mb = double(ru.ru_maxrss) / 1024.0;
    return true;
  }
  return false;
}

ProcResult Daemon::stop() {
  if (!done_) {
    ::kill(pid_t(pid_), SIGTERM);
    // The daemon polls for the signal every 100 ms and then drains; allow
    // it 10 s before the hard kill that fails the run.
    const long long kill_at =
        std::min(g_deadline_ns, now_ns() + 10'000'000'000LL);
    while (!exited() && now_ns() < kill_at)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!done_) {
      done_ = true;
      reap(pid_t(pid_), true);  // throws: the daemon did not drain
    }
  }
  reaped_.wall_s = double(now_ns() - started_ns_) * 1e-9;
  std::ifstream in(log_path_);
  std::ostringstream ss;
  ss << in.rdbuf();
  reaped_.out = ss.str();
  return reaped_;
}

}  // namespace ssnbench
