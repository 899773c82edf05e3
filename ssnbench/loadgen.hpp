// The serve load generator: one thread on a core of its own (CpuPin), at
// most four Unix-socket connections, driven by ppoll with nanosecond
// timeouts.
//
// Open loop: arrivals follow a seeded Poisson schedule at a fixed rate,
// requests are pipelined round-robin over the connections regardless of
// how many are outstanding, and each latency runs from the request's *due*
// time, so a stall in the daemon (or in the generator) is charged to every
// request it delays. The generator reports how late it sent.
// Closed loop: each connection keeps 16 requests outstanding, sending the
// next as soon as one is answered.
#pragma once

#include "gen.hpp"
#include "proc.hpp"

#include <string>
#include <vector>

namespace ssnbench {

/// What happened to one request, indexed by its stream sequence number.
struct Outcome {
  int phase = -1;
  long long due_ns = 0, sent_ns = 0, recv_ns = 0;
  bool answered = false, ok = false, cached = false, trusted = false;
  double value = 0.0;  ///< the checked result value (gen.hpp value_key)
  std::string code;    ///< error code of a non-ok response

  double latency_ms() const { return double(recv_ns - due_ns) * 1e-6; }
};

struct PhaseStats {
  long sent = 0;
  long inflight_at_end = 0;  ///< sent but unanswered when the phase ended
  long long start_ns = 0, end_ns = 0;
  std::vector<double> lateness_ms;  ///< send time minus due time
};

/// The checked value in a response line to a request of `kind` (NaN when
/// absent).
double response_value(const std::string& line, const std::string& kind);

/// One request on a fresh connection, retrying the connect until
/// `timeout_s` passes; returns the response line.
std::string round_trip(const std::string& socket_path, const std::string& line,
                       double timeout_s);

class LoadGen {
 public:
  /// Connect `connections` clients, retrying until the daemon listens or
  /// `timeout_s` passes (throws then).
  LoadGen(const std::string& socket_path, int connections, double timeout_s);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  PhaseStats open_loop(RequestStream& stream, double rate, double seconds,
                       int phase, std::uint64_t arrival_seed);
  PhaseStats closed_loop(RequestStream& stream, double seconds, int phase);
  /// Wait for every outstanding response; false on timeout.
  bool drain(double timeout_s);

  const std::vector<Request>& requests() const { return requests_; }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

 private:
  struct Conn {
    int fd = -1;
    std::string inbuf;
  };
  void send(RequestStream& stream, std::size_t conn, int phase,
            long long due_ns);
  /// Wait up to `timeout_ns` for responses and record them; appends the
  /// connection index of every answered request to `answered_on`.
  void pump(long long timeout_ns, std::vector<std::size_t>* answered_on);
  void record(const std::string& line, long long recv_ns, std::size_t conn,
              std::vector<std::size_t>* answered_on);

  CpuPin pin_{CpuPin::Side::kGenerator};
  int old_nice_ = 0;
  std::vector<Conn> conns_;
  std::vector<Request> requests_;
  std::vector<Outcome> outcomes_;
  long outstanding_ = 0;
};

}  // namespace ssnbench
