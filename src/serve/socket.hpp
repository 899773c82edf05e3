// AF_UNIX stream transport for the serve daemon: a single poll() loop that
// accepts connections, splits their byte streams into request lines for
// Server::submit_line, and flushes response lines back. Worker threads
// never touch a socket — they append to a per-connection output buffer and
// nudge the loop through a self-pipe, so all fd lifecycle stays on one
// thread.
//
// Robustness:
//   - per-connection input line cap (a client streaming an unbounded line
//     is answered with SSN-E063 and disconnected),
//   - per-connection output cap (a client that stops reading while
//     responses pile up is dropped instead of growing the daemon's RSS),
//   - a connection closing mid-request is fine: its pending responses are
//     discarded at the buffer, the computation is not disturbed,
//   - on stop_ctx cancel (SIGTERM via the CLI's watcher): stop accepting,
//     unlink the socket path, drain the server (every accepted request
//     still answered), flush the remaining bytes to connected clients, then
//     return 0 — the clean-drain exit the smoke test asserts on.
//
// POSIX-only, like the daemon itself; the header compiles everywhere but
// serve_unix_socket returns an error on _WIN32.
#pragma once

#include "serve/server.hpp"
#include "support/runcontext.hpp"

#include <cstddef>
#include <string>

namespace ssnkit::serve {

struct SocketOptions {
  std::string path;                         ///< filesystem socket path
  std::size_t max_line_bytes = 1 << 20;     ///< input cap per request line
  std::size_t max_buffered_bytes = 4 << 20; ///< output cap per connection
  int poll_interval_ms = 100;               ///< stop_ctx poll granularity
};

/// Run the accept/read/write loop until `stop_ctx` trips (or `server`
/// starts draining for another reason), then drain and flush. Returns 0 on
/// a clean drain, 1 on a setup failure (bad path, bind/listen error) with a
/// one-line reason on `err`.
int serve_unix_socket(Server& server, const SocketOptions& options,
                      const support::RunContext* stop_ctx, std::string& err);

}  // namespace ssnkit::serve
