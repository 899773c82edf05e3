#include "loadgen.hpp"

#include "trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

namespace ssnbench {

namespace {

/// How long before a due time the open loop stops sleeping and polls
/// without blocking: a timed wake-up on a VM is routinely late by tens to
/// hundreds of microseconds.
constexpr long long kSpinNs = 300000;

/// Requests the closed loop keeps outstanding per connection. With one,
/// every answer waits for two wake-ups (daemon to generator and back), and
/// on a VM whose wake-ups came milliseconds late the throughput fell to a
/// quarter in some runs. With 16 the daemon always has queued work, so
/// the closed loop measures how fast it serves, not how fast it wakes.
constexpr int kClosedLoopDepth = 16;

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0)
    return fd;
  ::close(fd);
  return -1;
}

/// The text of `"key":"<text>"` in a response line, or "".
std::string string_member(const std::string& line, const char* key) {
  const std::string marker = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + marker.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

/// Retries without sleeping: setup_s is timed up to the first answer and
/// is a few milliseconds for a daemon, so a sleep between attempts would
/// show in it. Callers run on a core the daemon is not pinned to (CpuPin).
int connect_retrying(const std::string& path, long long deadline_ns) {
  int fd = -1;
  while ((fd = connect_unix(path)) < 0) {
    if (now_ns() > deadline_ns)
      throw std::runtime_error("cannot connect to " + path);
    std::this_thread::yield();
  }
  return fd;
}

/// Whether a response line is ok with a verified or refined verdict.
bool response_trusted(const std::string& line) {
  const std::string verdict = string_member(line, "verdict");
  return line.find("\"ok\":true") != std::string::npos &&
         (verdict == "verified" || verdict == "refined");
}

}  // namespace

double response_value(const std::string& line, const std::string& kind) {
  const std::string key = std::string("\"") + value_key(kind) + "\":";
  const std::size_t at = line.find(key);
  return at == std::string::npos
             ? std::nan("")
             : std::strtod(line.c_str() + at + key.size(), nullptr);
}

std::string round_trip(const std::string& socket_path, const std::string& line,
                       double timeout_s) {
  const long long deadline = now_ns() + to_ns(timeout_s);
  const int fd = connect_retrying(socket_path, deadline);
  const std::string framed = line + "\n";
  std::string in;
  bool sent = ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL) ==
              ssize_t(framed.size());
  char buf[4096];
  for (std::size_t eol; sent;) {
    while ((eol = in.find('\n')) != std::string::npos) {
      std::string out = in.substr(0, eol);
      in.erase(0, eol + 1);
      if (out.find("\"event\":") == std::string::npos) {
        ::close(fd);
        return out;
      }
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, int(std::max(0LL, (deadline - now_ns()) / 1000000))) <= 0)
      break;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    in.append(buf, std::size_t(n));
  }
  ::close(fd);
  throw std::runtime_error("no response from " + socket_path);
}

LoadGen::LoadGen(const std::string& socket_path, int connections,
                 double timeout_s) {
  // Default timer slack (50 us) would make every ppoll wake-up late by
  // that much; the open-loop schedule wants the wake-ups on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Best effort: without the privilege the generator keeps its priority,
  // and the lateness check reports the consequence.
  old_nice_ = ::getpriority(PRIO_PROCESS, 0);
  ::setpriority(PRIO_PROCESS, 0, -10);
  const long long deadline = now_ns() + to_ns(timeout_s);
  try {
    for (int i = 0; i < connections; ++i)
      conns_.push_back(Conn{connect_retrying(socket_path, deadline), {}});
  } catch (...) {
    ::setpriority(PRIO_PROCESS, 0, old_nice_);
    for (const Conn& c : conns_) ::close(c.fd);
    throw;
  }
}

LoadGen::~LoadGen() {
  ::setpriority(PRIO_PROCESS, 0, old_nice_);
  for (const Conn& c : conns_) ::close(c.fd);
}

void LoadGen::send(RequestStream& stream, std::size_t conn, int phase,
                   long long due_ns) {
  Request req = stream.next();
  Outcome out;
  out.phase = phase;
  out.due_ns = due_ns;
  std::string framed = req.line;
  framed.push_back('\n');
  out.sent_ns = now_ns();
  std::size_t done = 0;
  while (done < framed.size()) {
    const ssize_t n = ::send(conns_[conn].fd, framed.data() + done,
                             framed.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send to the daemon failed");
    done += std::size_t(n);
  }
  requests_.push_back(std::move(req));
  outcomes_.push_back(std::move(out));
  ++outstanding_;
}

void LoadGen::record(const std::string& line, long long recv_ns,
                     std::size_t conn, std::vector<std::size_t>* answered_on) {
  if (line.find("\"event\":") != std::string::npos) return;
  const std::string id = string_member(line, "id");
  char* end = nullptr;
  const long seq = std::strtol(id.c_str(), &end, 10);
  if (id.empty() || *end != '\0' || seq < 0 || seq >= long(outcomes_.size()))
    throw std::runtime_error("response with an unknown id: " + line);
  Outcome& out = outcomes_[std::size_t(seq)];
  if (out.answered)
    throw std::runtime_error("second response for one request: " + line);
  out.answered = true;
  out.recv_ns = recv_ns;
  out.ok = line.find("\"ok\":true") != std::string::npos;
  out.cached = line.find("\"cached\":true") != std::string::npos;
  out.trusted = response_trusted(line);
  out.code = string_member(line, "code");
  out.value = response_value(line, requests_[std::size_t(seq)].kind);
  --outstanding_;
  if (answered_on != nullptr) answered_on->push_back(conn);
}

void LoadGen::pump(long long timeout_ns, std::vector<std::size_t>* answered_on) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) fds.push_back(pollfd{c.fd, POLLIN, 0});
  timeout_ns = std::max(timeout_ns, 0LL);
  const timespec ts{time_t(timeout_ns / 1000000000), long(timeout_ns % 1000000000)};
  const int rc = ::ppoll(fds.data(), nfds_t(fds.size()), &ts, nullptr);
  if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
  if (rc <= 0) return;
  char buf[65536];
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::read(conns_[i].fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("the daemon closed a connection");
    const long long t = now_ns();
    std::string& in = conns_[i].inbuf;
    in.append(buf, std::size_t(n));
    std::size_t start = 0;
    for (std::size_t eol; (eol = in.find('\n', start)) != std::string::npos;
         start = eol + 1)
      record(in.substr(start, eol - start), t, i, answered_on);
    in.erase(0, start);
  }
}

PhaseStats LoadGen::open_loop(RequestStream& stream, double rate,
                              double seconds, int phase,
                              std::uint64_t arrival_seed) {
  PhaseStats st;
  Rng arrivals(arrival_seed);
  const long long start = now_ns();
  const long long end = start + to_ns(seconds);
  const auto gap = [&] { return to_ns(arrivals.exponential(rate)); };
  std::size_t next_conn = 0;
  const std::size_t first = outcomes_.size();
  for (long long due = start + gap(); due < end;) {
    const long long now = now_ns();
    if (now < due) {
      pump(due - now > kSpinNs ? due - now - kSpinNs : 0, nullptr);
      continue;
    }
    send(stream, next_conn, phase, due);
    next_conn = (next_conn + 1) % conns_.size();
    st.lateness_ms.push_back(double(outcomes_.back().sent_ns - due) * 1e-6);
    due += gap();
  }
  for (long long now; (now = now_ns()) < end;) pump(end - now, nullptr);
  st.start_ns = start;
  st.end_ns = end;
  st.inflight_at_end = outstanding_;
  st.sent = long(outcomes_.size() - first);
  return st;
}

PhaseStats LoadGen::closed_loop(RequestStream& stream, double seconds,
                                int phase) {
  PhaseStats st;
  const long long start = now_ns();
  const long long end = start + to_ns(seconds);
  const std::size_t first = outcomes_.size();
  for (int k = 0; k < kClosedLoopDepth; ++k)
    for (std::size_t c = 0; c < conns_.size(); ++c)
      send(stream, c, phase, now_ns());
  std::vector<std::size_t> answered_on;
  for (long long now; (now = now_ns()) < end;) {
    answered_on.clear();
    pump(end - now, &answered_on);
    for (const std::size_t c : answered_on)
      if (now_ns() < end) send(stream, c, phase, now_ns());
  }
  st.start_ns = start;
  st.end_ns = end;
  st.inflight_at_end = outstanding_;
  st.sent = long(outcomes_.size() - first);
  return st;
}

bool LoadGen::drain(double timeout_s) {
  const long long deadline = now_ns() + to_ns(timeout_s);
  for (long long now; outstanding_ > 0 && (now = now_ns()) < deadline;)
    pump(deadline - now, nullptr);
  return outstanding_ == 0;
}

}  // namespace ssnbench
