// Minimal fork/socketpair plumbing for supervised worker processes.
//
// The serve supervisor (serve/supervisor.hpp) needs exactly four process
// primitives: spawn a child connected by a byte stream, exchange newline-
// framed messages, observe how the child died, and kill it.
// This header is the only sanctioned home for those raw syscalls outside
// the supervisor itself — ssnlint rule SSN-L014 flags `fork`/`waitpid`/
// `kill` anywhere else, so process lifecycle management cannot leak into
// layers that could never clean up after it.
//
// Design constraints baked in:
//
//   - The child runs `child_main(fd)` and then _exits; it never returns
//     into the parent's call stack, never runs the parent's destructors or
//     atexit handlers, and resets SIGINT/SIGTERM so a terminal Ctrl-C (sent
//     to the whole foreground process group) is handled by the supervisor,
//     not by each worker racing it.
//   - Line IO blocks: the watchdog needs no read timeout to stay in
//     control of a wedged child, because its SIGKILL closes the child's
//     end of the socketpair and the parent's pending read returns EOF.
//   - ExitStatus separates "exited with code" from "killed by signal"
//     because the supervisor types them differently (a nonzero exit is a
//     worker bug; SIGKILL is usually the watchdog or the rlimit).
//
// Everything here is Linux/POSIX; the serve daemon itself is POSIX-only
// (socket.cpp), so there is no _WIN32 branch to keep alive.
#pragma once

#include <functional>
#include <string>

// Sanitizer runtimes (ASan/TSan shadow, allocator metadata) mmap far beyond
// any sane RLIMIT_AS cap ("Failed to mmap" at a worker's first allocation),
// so under SSNKIT_SANITIZER_BUILD spawn_child skips ChildLimits::mem_limit_mb.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SSNKIT_SANITIZER_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SSNKIT_SANITIZER_BUILD 1
#endif
#endif

namespace ssnkit::support {

/// One spawned child: its pid and the parent's end of the socketpair.
struct ChildProcess {
  long pid = -1;
  int fd = -1;
};

/// Resource caps applied inside the child before child_main runs.
/// ssn-units: mem_limit_mb=MB, cpu_limit_s=s
struct ChildLimits {
  /// RLIMIT_AS cap; 0 = unlimited. Allocation past the cap fails with
  /// bad_alloc inside the child rather than invoking the host OOM killer.
  std::size_t mem_limit_mb = 0;
  /// RLIMIT_CPU cap; 0 = unlimited. A child that spins past the cap gets
  /// SIGKILL'd by the kernel (SIGXCPU is reset to default-kill first).
  double cpu_limit_s = 0.0;
};

/// Fork a child connected to the parent by an AF_UNIX socketpair. The child
/// applies `limits`, resets signal dispositions, closes the parent's end,
/// runs `child_main(child_fd)`, and _exits with its return value (core
/// dumps disabled via RLIMIT_CORE=0 — a supervised crash is expected, not
/// evidence to keep). An exception escaping `child_main` kills the child
/// with SIGABRT. Returns false with `err` set when socketpair or fork
/// fail; the child side never returns.
bool spawn_child(const std::function<int(int fd)>& child_main,
                 const ChildLimits& limits, ChildProcess& out,
                 std::string& err);

/// Write `line` plus a trailing newline, looping over partial writes.
/// Returns false on any write error (EPIPE after a child death being the
/// expected one); SIGPIPE is suppressed per-call via MSG_NOSIGNAL.
bool write_line(int fd, const std::string& line);

enum class ReadLineStatus {
  kLine,   ///< one full line extracted into `line`
  kEof,    ///< peer closed (child exited) with no complete line pending
  kError,  ///< read error
};

/// Extract the next newline-terminated line from `fd`, buffering partial
/// reads in `inbuf` across calls. Blocks until a line is complete or the
/// peer closes. The returned `line` has the newline stripped.
ReadLineStatus read_line(int fd, std::string& inbuf, std::string& line);

/// How a child ended.
struct ExitStatus {
  bool exited = false;  ///< true: normal exit(code); false: killed by sig
  int code = 0;
  int sig = 0;
};

/// Reap a child, blocking until it has ended, and fill `out`.
void wait_child(long pid, ExitStatus& out);

/// Send SIGKILL to a child (idempotent; ESRCH is fine).
void kill_child(long pid);

/// Human-readable rendering for diagnostics: "exit 3", "signal 9 (SIGKILL)".
std::string describe_exit(const ExitStatus& status);

}  // namespace ssnkit::support
