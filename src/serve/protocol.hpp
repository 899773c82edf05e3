// The serve wire protocol: newline-delimited JSON, one object per line in
// each direction.
//
// Request (all fields except "cmd" optional; unknown keys are an error so a
// typo'd field can never be silently ignored):
//
//   {"id":"r1","cmd":"estimate","tech":"180nm","golden":"alpha",
//    "package":"pga","pads":2,"l":5e-9,"c":1e-12,"n":8,"tr":1e-10,
//    "include_c":true,"sim":false,"samples":1000,"seed":12345,
//    "max_n":16,"deadline":2.5}
//
// Responses:
//
//   {"id":"r1","ok":true,"cached":false,"elapsed_us":412,"result":{...}}
//   {"id":"r1","ok":false,"code":"SSN-E064","error":"...","retry_after_ms":50}
//
// Every response is exactly one line of valid JSON; the daemon's final
// stats line is too ({"event":"stats",...}), so a client can parse the
// whole stream uniformly. Numbers are plain JSON in SI base units — no
// SPICE suffixes on the wire.
//
// Error codes (rows in docs/DIAGNOSTICS.md, enforced by ssnlint SSN-L012):
//   SSN-E063  malformed request (bad JSON, unknown key/command, bad range)
//   SSN-E064  overloaded — admission queue full, retry after the hint
//   SSN-E065  request failed in the solver (typed kind attached)
//   SSN-E066  request cancelled (its deadline, or the daemon's drain)
//   SSN-E068  worker missed its deadline + grace and was SIGKILL'd
//   SSN-E069  worker process died mid-request (signal / OOM / bad exit)
//   SSN-E070  request quarantined: its cache key already killed N workers
//
// The same request/response framing doubles as the supervisor's worker wire
// protocol: the parent re-renders an admitted ServeRequest with
// render_request() and ships it over the socketpair, so a worker is just a
// tiny serve loop and every protocol invariant above holds on both hops.
#pragma once

#include "serve/json.hpp"
#include "support/diagnostics.hpp"
#include "verify/trust.hpp"

#include <cstdint>
#include <string>

namespace ssnkit::serve {

// ssn-units: inductance=H, capacitance=F, rise_time=s, deadline_s=s
/// One validated analysis request. Field semantics match the CLI flags of
/// the corresponding commands (estimate / mc / sweep-n).
struct ServeRequest {
  std::string id;            ///< echoed on the response; assigned if empty
  std::string cmd;           ///< "estimate" | "mc" | "sweep-n"
  std::string tech = "180nm";
  std::string golden = "alpha";
  std::string package = "pga";
  int pads = 1;              ///< parallel ground pads (divides L)
  double inductance = -1.0;  ///< [H] override; < 0 = package default
  double capacitance = -1.0; ///< [F] override; < 0 = package default
  int n_drivers = 8;
  double rise_time = 0.1e-9; ///< [s] input ramp
  bool include_c = true;     ///< false = Section 3 L-only model
  bool sim = false;          ///< estimate: verify on the MNA simulator
  int samples = 1000;        ///< mc: closed-form sample count
  int seed = 12345;          ///< mc: PRNG seed
  int max_n = 16;            ///< sweep-n: largest driver count
  double deadline_s = 0.0;   ///< [s] per-request budget; 0 = server default
};

/// [s] The largest deadline the wire carries: parse_request bounds a
/// request's "deadline" to [0, kMaxDeadlineS].
inline constexpr double kMaxDeadlineS = 3600.0;

/// The largest Monte Carlo seed: serve's "seed" and `ssnkit mc --seed`
/// both accept [0, kMaxSeed], so every seed one front end runs the other
/// runs too.
inline constexpr int kMaxSeed = 2147483647;

/// Outcome of parsing + validating one request line.
struct RequestParse {
  bool ok = false;
  ServeRequest request;
  std::string error;  ///< set when !ok; becomes the SSN-E063 message
  std::string id;     ///< request id when one could be recovered from the line
};

/// Parse one line into a validated ServeRequest. Never throws: every
/// malformed input — bad JSON, non-object, unknown key or command, a value
/// out of its documented range, an unknown tech/golden/package name — comes
/// back as !ok with a message naming the offending field. When the line
/// parsed far enough to contain an "id", it is returned even on failure so
/// the SSN-E063 response can still be correlated by the client.
RequestParse parse_request(const std::string& line);

/// Canonical cache identity of a request: every field that affects the
/// result, none that does not (id and deadline are excluded). Two requests
/// with equal keys produce bit-identical result payloads.
std::string cache_key_string(const ServeRequest& request);
std::uint64_t cache_key(const ServeRequest& request);

/// Render a validated request back onto the wire so it round-trips through
/// parse_request bit-identically (doubles at 17 significant digits; the
/// l/c overrides are omitted when unset, since their "unset" sentinel is
/// outside the wire range). This is how the supervisor forwards admitted
/// requests to worker processes.
std::string render_request(const ServeRequest& request);

// --- trust serialization -----------------------------------------------------

/// Render a TrustReport as the "trust" member every result fragment
/// carries: {"verdict":"verified","residual":...,"cond":...,"ci95":...}.
/// Not-computed fields (NaN) render as explicit null via json_number_or_null
/// — they are the only payload numbers allowed to be non-finite.
std::string render_trust(const verify::TrustReport& trust);

/// Recover the trust verdict embedded in a (cached) result fragment. False
/// when the fragment has no parseable "trust" member with a known verdict —
/// a pre-trust-layer or damaged entry, which the server must recompute
/// rather than serve.
bool extract_trust_verdict(const std::string& result_fragment,
                           verify::Verdict& out);

// --- response rendering (each returns one line, no trailing newline) --------

/// {"id":...,"ok":true,"cached":...,"elapsed_us":...,"result":{...}}.
/// `result_fragment` must be a complete JSON value (the handlers build it).
std::string render_ok(const std::string& id, const std::string& result_fragment,
                      bool cached, std::int64_t elapsed_us);

/// Generic error response: {"id":...,"ok":false,"code":...,"error":...}.
std::string render_error(const std::string& id, const std::string& code,
                         const std::string& message);

/// SSN-E064 overload response with the retry hint clients should honor.
std::string render_overloaded(const std::string& id, double retry_after_ms);

/// Deterministic per-request jitter for the SSN-E064 retry hint: maps the
/// id onto a factor in [0.5, 1.5) of a 50 ms base, so a synchronized burst
/// of shed clients fans back in over a full base period instead of
/// thundering-herding the admission queue at one instant. Pure function of
/// the id (FNV-1a of the id mixed with a fixed seed) — the same client
/// retrying the same id sees a stable hint.
double jittered_retry_after_ms(const std::string& id);

/// SSN-E065/E066 for a typed solver failure: attaches kind and
/// retryability; stop kinds (cancelled / deadline) render as SSN-E066.
std::string render_solver_error(const std::string& id,
                                const support::SolverError& error);

/// Parent-side view of one worker response line.
struct ResponseView {
  bool ok = false;         ///< the "ok" member
  std::string code;        ///< error code when !ok ("" for ok lines)
  std::string fragment;    ///< raw result fragment when ok (cacheable)
  bool cancelled = false;  ///< !ok with code SSN-E066 (worker-side deadline)
};

/// Split a response line produced by render_ok / render_error /
/// render_solver_error back into its parts. The result fragment is
/// recovered textually — render_ok guarantees `"result":` is the final
/// member — so the parent caches the exact bytes the worker computed, not a
/// re-serialization. Returns false for lines that are not valid responses
/// (a worker that printed garbage is treated as crashed by the caller).
bool split_response_line(const std::string& line, ResponseView& out);

/// Aggregate daemon counters, rendered as the final stats line.
struct ServerStats {
  std::uint64_t accepted = 0;    ///< requests admitted to the queue
  std::uint64_t responded = 0;   ///< responses sent for admitted requests
  std::uint64_t ok = 0;          ///< of those, successful results
  std::uint64_t solver_errors = 0;
  std::uint64_t cancelled = 0;   ///< drain / per-request deadline
  std::uint64_t shed = 0;        ///< rejected at admission (SSN-E064)
  std::uint64_t malformed = 0;   ///< rejected at parse (SSN-E063)
  std::uint64_t cache_hits = 0;
  // Process-isolation counters (zero in thread mode).
  std::uint64_t worker_timeouts = 0;  ///< SSN-E068: watchdog SIGKILLs
  std::uint64_t worker_crashes = 0;   ///< SSN-E069: worker deaths
  std::uint64_t quarantined = 0;      ///< SSN-E070: poison-key refusals
};

/// {"event":"stats","accepted":...,...} — one line, valid JSON.
std::string render_stats(const ServerStats& stats);

}  // namespace ssnkit::serve
