// Seeded input generators. The benchmark seed goes in; the program only
// ever sees what comes out: argv, netlist text, request lines. The same
// seed gives the same inputs on every machine (splitmix64 and explicit
// inverse-CDF draws, no implementation-defined std:: distributions).
#pragma once

#include "json.hpp"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace ssnbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  int integer(int lo, int hi);  ///< inclusive bounds
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Independent stream for (seed, tag, index).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag,
                          std::uint64_t index = 0);

// --- netlist-staggered -------------------------------------------------------

/// Netlists in one seed's set.
constexpr int kNetlistItems = 64;

/// Item `index` of the seed's netlist set: N drivers, each with its own
/// ramp delay in [0, 2 t_r] and width within +-20 %, and a .tran step of
/// t_r/200. Driver counts are stratified over [8, 32] across the set (a
/// seeded permutation), so every seed simulates the same mix of sizes and
/// differs only in order, delays and widths.
std::string make_netlist(std::uint64_t seed, int index);

/// The set-up probe: one netlist with the smallest driver count.
std::string make_setup_netlist(std::uint64_t seed);

// --- serve request streams ---------------------------------------------------

/// The request mix of a serve workload (spec.json). The draw ranges are
/// fixed in gen.cpp.
struct ServeParams {
  double mc_share;      ///< share of fresh configs that are closed-form "mc"
  double sim_share;     ///< share that are "estimate" with "sim":true
  double repeat_share;  ///< share of requests that repeat a recent config
  static ServeParams from(const Json& spec);
};

struct Request {
  long seq = 0;          ///< position in the stream; also the wire id
  long config = 0;       ///< distinct-config index (repeats share it)
  bool repeat = false;
  const char* kind = ""; ///< "estimate", "mc" or "sim"
  std::string line;      ///< the request as sent, without the newline
};

/// The JSON member holding a response's checked value for a request kind.
const char* value_key(const std::string& kind);

/// Deterministic request stream: each request is either an exact repeat of
/// one of the last 256 distinct configs (probability repeat_share) or a
/// fresh config drawn from continuous ranges, so a fresh config is never an
/// accidental repeat.
class RequestStream {
 public:
  RequestStream(const ServeParams& params, std::uint64_t seed);
  Request next();

 private:
  struct Config {
    const char* kind;
    int n;
    double tr, l, c;
    bool include_c;
    int mc_seed;
  };
  Config fresh();
  std::string render(long seq, const Config& c) const;

  ServeParams p_;
  Rng rng_;
  long seq_ = 0;
  std::vector<Config> configs_;
  std::deque<long> window_;  ///< indices into configs_, newest last
};

}  // namespace ssnbench
