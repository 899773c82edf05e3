#include "serve/socket.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>
#endif

namespace ssnkit::serve {

#if defined(_WIN32)

int serve_unix_socket(Server& /*server*/, const SocketOptions& /*options*/,
                      const support::RunContext* /*stop_ctx*/,
                      std::string& err) {
  err = "unix sockets are not supported on this platform; use stdin mode";
  return 1;
}

#else

namespace {

// Post-drain budget for flushing the remaining responses to clients.
constexpr double kFlushGraceS = 2.0;

/// One client connection. The poll loop owns fd/inbuf/eof; `out` is the
/// worker-facing side (responses append under `mu`, the loop flushes under
/// `mu`). Held by shared_ptr: response sinks for in-flight requests keep
/// the object alive after the socket is gone, so a late response lands in
/// a dead buffer instead of freed memory.
struct Conn {
  int fd = -1;
  std::string inbuf;      ///< loop thread only
  bool eof = false;       ///< loop thread only
  bool line_overflow = false;  ///< loop thread only

  std::mutex mu;
  std::string out;          ///< pending response bytes; guarded by mu
  bool dead = false;        ///< dropped (overflow / write error); mu
  std::size_t pending = 0;  ///< submitted requests not yet responded; mu
};

bool set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

int serve_unix_socket(Server& server, const SocketOptions& options,
                      const support::RunContext* stop_ctx, std::string& err) {
  if (options.path.empty()) {
    err = "socket path is empty";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.path.size() >= sizeof(addr.sun_path)) {
    err = "socket path longer than sockaddr_un allows";
    return 1;
  }
  std::memcpy(addr.sun_path, options.path.c_str(), options.path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    err = std::string("socket() failed: ") + std::strerror(errno);
    return 1;
  }
  // A stale path from a previous run would make bind fail; the daemon owns
  // the path, so replacing it is the right default.
  ::unlink(options.path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0 || !set_nonblock(listen_fd)) {
    err = std::string("cannot listen on '") + options.path +
          "': " + std::strerror(errno);
    ::close(listen_fd);
    return 1;
  }

  int wake_fds[2] = {-1, -1};
  if (::pipe(wake_fds) != 0 || !set_nonblock(wake_fds[0]) ||
      !set_nonblock(wake_fds[1])) {
    err = std::string("cannot create wake pipe: ") + std::strerror(errno);
    ::close(listen_fd);
    if (wake_fds[0] >= 0) ::close(wake_fds[0]);
    if (wake_fds[1] >= 0) ::close(wake_fds[1]);
    return 1;
  }
  const int wake_read = wake_fds[0];
  const int wake_write = wake_fds[1];

  std::vector<std::shared_ptr<Conn>> conns;
  bool listening = true;
  bool drain_started = false;
  std::atomic<bool> drain_done{false};
  std::thread drain_thread;
  std::chrono::steady_clock::time_point flush_deadline{};

  const auto make_sink = [&server, wake_write](std::shared_ptr<Conn> conn) {
    return ResponseSink([conn, wake_write](const std::string& line) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->pending > 0) --conn->pending;
        if (!conn->dead) {
          conn->out += line;
          conn->out += '\n';
        }
      }
      // Nudge the poll loop; a full pipe already guarantees a wake-up.
      const char byte = 'w';
      (void)!::write(wake_write, &byte, 1);
    });
  };

  while (true) {
    const bool stop =
        (stop_ctx != nullptr &&
         stop_ctx->stop_requested() != support::StopReason::kNone) ||
        server.draining();
    if (stop && !drain_started) {
      drain_started = true;
      // Close the front door first so "stop admission" is observable from
      // outside (connect() starts failing) before the drain begins.
      if (listening) {
        ::close(listen_fd);
        ::unlink(options.path.c_str());
        listening = false;
      }
      // finish() blocks until every accepted request has responded; run it
      // off-thread so this loop keeps flushing those responses meanwhile.
      drain_thread = std::thread([&server, &drain_done] {
        server.finish();
        drain_done.store(true, std::memory_order_release);
      });
    }
    if (drain_started && drain_done.load(std::memory_order_acquire)) {
      if (flush_deadline == std::chrono::steady_clock::time_point{})
        flush_deadline = support::deadline_after(kFlushGraceS);
      bool all_flushed = true;
      for (const auto& conn : conns) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->dead && !conn->out.empty()) all_flushed = false;
      }
      if (all_flushed || std::chrono::steady_clock::now() >= flush_deadline)
        break;
    }

    std::vector<pollfd> fds;
    fds.push_back(pollfd{wake_read, POLLIN, 0});
    if (listening) fds.push_back(pollfd{listen_fd, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    // Connections accepted below (after this snapshot) have no pollfd entry
    // yet; the event loop must only walk the ones it actually polled.
    const std::size_t polled_conns = conns.size();
    for (const auto& conn : conns) {
      short events = 0;
      if (!conn->eof && !drain_started) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->dead && !conn->out.empty()) events |= POLLOUT;
      }
      fds.push_back(pollfd{conn->fd, events, 0});
    }
    if (::poll(fds.data(), nfds_t(fds.size()), options.poll_interval_ms) <
        0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable; drain below
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char scratch[256];
      while (::read(wake_read, scratch, sizeof(scratch)) > 0) {
      }
    }
    if (listening && fds.size() > 1 && (fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;
        if (!set_nonblock(fd)) {
          ::close(fd);
          continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conns.push_back(std::move(conn));
      }
    }

    for (std::size_t i = 0; i < polled_conns; ++i) {
      const auto& conn = conns[i];
      const pollfd& pfd = fds[conn_base + i];
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !conn->eof &&
          !drain_started) {
        char buf[65536];
        while (true) {
          const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
          if (n > 0) {
            conn->inbuf.append(buf, std::size_t(n));
            if (conn->inbuf.size() > options.max_line_bytes &&
                conn->inbuf.find('\n') == std::string::npos) {
              // One unbounded line: answer once, stop reading this client.
              conn->line_overflow = true;
              conn->eof = true;
              make_sink(conn)(render_error(
                  "", "SSN-E063",
                  "request line exceeds " +
                      std::to_string(options.max_line_bytes) + " bytes"));
              break;
            }
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          conn->eof = true;  // orderly close or hard error: no more input
          break;
        }
        std::size_t eol;
        while ((eol = conn->inbuf.find('\n')) != std::string::npos) {
          std::string line = conn->inbuf.substr(0, eol);
          conn->inbuf.erase(0, eol + 1);
          if (line.empty()) continue;
          {
            std::lock_guard<std::mutex> lock(conn->mu);
            ++conn->pending;
          }
          server.submit_line(line, make_sink(conn));
        }
        if (conn->line_overflow) conn->inbuf.clear();
      }
      // Flush whatever is buffered whenever the socket is writable (or we
      // just got nudged); partial writes simply stay buffered.
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        while (!conn->dead && !conn->out.empty()) {
          const ssize_t n =
              ::send(conn->fd, conn->out.data(), conn->out.size(),
                     MSG_NOSIGNAL);
          if (n > 0) {
            conn->out.erase(0, std::size_t(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          conn->dead = true;  // client went away; discard its responses
          conn->out.clear();
        }
        if (conn->out.size() > options.max_buffered_bytes) {
          // Slow-client protection: a reader that stopped reading does not
          // get to grow the daemon's memory without bound.
          conn->dead = true;
          conn->out.clear();
        }
      }
    }

    // Reap connections that are finished (or dropped). A connection closes
    // only when its input is done AND every submitted request has been
    // answered AND the answer bytes are flushed — no lost responses.
    for (std::size_t i = 0; i < conns.size();) {
      const auto& conn = conns[i];
      bool close_now;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        close_now = conn->dead ||
                    (conn->eof && conn->pending == 0 && conn->out.empty() &&
                     conn->inbuf.find('\n') == std::string::npos);
      }
      if (close_now) {
        ::close(conn->fd);
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->dead = true;
        }
        conns.erase(conns.begin() + std::ptrdiff_t(i));
      } else {
        ++i;
      }
    }
  }

  if (!drain_started) {
    // poll() failed hard: still drain properly so accepted work answers
    // into the buffers (then is discarded with the connections).
    server.finish();
  }
  if (drain_thread.joinable()) drain_thread.join();
  for (const auto& conn : conns) {
    ::close(conn->fd);
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->dead = true;
  }
  if (listening) {
    ::close(listen_fd);
    ::unlink(options.path.c_str());
  }
  ::close(wake_read);
  ::close(wake_write);
  return 0;
}

#endif

}  // namespace ssnkit::serve
