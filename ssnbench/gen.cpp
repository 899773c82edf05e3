#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace ssnbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return double(next() >> 11) * 0x1.0p-53; }

int Rng::integer(int lo, int hi) {
  return lo + int(next() % std::uint64_t(hi - lo + 1));
}

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag,
                          std::uint64_t index) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the tag
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  Rng mix(h ^ (seed * 0x9E3779B97F4A7C15ull) ^ (index << 32 | index));
  return mix.next();
}

namespace {

// netlist-staggered: the paper's ground-bounce circuit with every driver
// made distinct, so no two drivers can be folded into one.
constexpr int kNetlistMinDrivers = 8, kNetlistMaxDrivers = 32;
constexpr double kRiseTime = 1e-10;
constexpr double kMaxDelayRises = 2.0;  // per-driver delay in [0, this * t_r]
constexpr double kWidthSpread = 0.2;    // per-driver width in 1 +- this
constexpr double kStepsPerRise = 200;   // .tran step = t_r / this
constexpr double kInductance = 5e-9, kCapacitance = 1e-12;

// Serve request draws.
struct Range {
  double lo, hi;
};
constexpr int kRepeatWindow = 256;  // repeats pick one of the last this-many
constexpr int kMcSamples = 2000;
constexpr double kIncludeCShare = 0.8;
constexpr Range kN{1, 32}, kTr{5e-11, 3e-10}, kL{1e-9, 1e-8}, kC{2e-13, 5e-12};
// Simulated estimates stay where the closed form verifies against the
// simulation (the 3 % bar), so every answer is ok.
constexpr Range kSimN{8, 16}, kSimTr{5e-11, 2e-10}, kSimL{4e-9, 8e-9},
    kSimC{5e-13, 3e-12};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// The 180 nm golden alpha-power device (the numbers of
/// process::tech_180nm()), as netlist model cards.
constexpr const char* kModelCards =
    ".model NDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 "
    "GAMMA=0.35 PHI2F=0.85 CLM=0.05\n"
    ".model PDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 "
    "GAMMA=0.35 PHI2F=0.85 CLM=0.05 PMOS\n";
constexpr double kVdd = 1.8;

std::string netlist_text(int n, Rng& rng, const std::string& title) {
  std::string s = "* " + title + "\n";
  s += kModelCards;
  s += "Vdd vdd 0 DC " + fmt(kVdd) + "\n";
  s += "Lgnd vssi 0 " + fmt(kInductance) + "\n";
  s += "Cpad vssi 0 " + fmt(kCapacitance) + "\n";
  double t_end = 0.0;
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    const double delay = rng.uniform(0.0, kMaxDelayRises * kRiseTime);
    const double w = rng.uniform(1.0 - kWidthSpread, 1.0 + kWidthSpread);
    t_end = std::max(t_end, delay + kRiseTime);
    s += "Vin" + k + " in" + k + " 0 RAMP(0 " + fmt(kVdd) + " " + fmt(delay) +
         " " + fmt(kRiseTime) + ")\n";
    s += "Mn" + k + " out" + k + " in" + k + " vssi 0 NDRV W=" + fmt(w) + "\n";
    s += "Mp" + k + " out" + k + " in" + k + " vdd vdd PDRV W=" +
         fmt(0.8 * w) + "\n";
    s += "Cl" + k + " out" + k + " 0 10p\n";
    s += "Ranchor" + k + " out" + k + " vdd 10meg\n";
  }
  s += ".tran " + fmt(kRiseTime / kStepsPerRise) + " " + fmt(t_end) +
       "\n.end\n";
  return s;
}

}  // namespace

std::string make_netlist(std::uint64_t seed, int index) {
  // Stratified sizes: slot k of the set gets min + k*(max-min)/(K-1), and
  // a seeded shuffle decides which item holds which slot.
  std::vector<int> slot(static_cast<std::size_t>(kNetlistItems));
  std::iota(slot.begin(), slot.end(), 0);
  Rng order(derive_seed(seed, "netlist-order"));
  for (std::size_t i = slot.size(); i > 1; --i)
    std::swap(slot[i - 1], slot[std::size_t(order.next() % i)]);
  const int k = slot[std::size_t(index)];
  const int n = kNetlistMinDrivers +
                int(std::lround(double(k) *
                                (kNetlistMaxDrivers - kNetlistMinDrivers) /
                                double(kNetlistItems - 1)));
  Rng rng(derive_seed(seed, "netlist", std::uint64_t(index)));
  return netlist_text(n, rng, "ssnbench netlist-staggered item " +
                                  std::to_string(index));
}

std::string make_setup_netlist(std::uint64_t seed) {
  Rng rng(derive_seed(seed, "netlist-setup"));
  return netlist_text(kNetlistMinDrivers, rng,
                      "ssnbench netlist-staggered setup");
}

ServeParams ServeParams::from(const Json& spec) {
  return ServeParams{spec.num("mc_share"), spec.num("sim_share"),
                     spec.num("repeat_share")};
}

const char* value_key(const std::string& kind) {
  if (kind == "mc") return "mean";
  if (kind == "sim") return "v_max_sim";
  return "v_max";
}

RequestStream::RequestStream(const ServeParams& params, std::uint64_t seed)
    : p_(params), rng_(seed) {}

RequestStream::Config RequestStream::fresh() {
  Config c{};
  const double u = rng_.uniform();
  const bool sim = u < p_.sim_share;
  c.kind = sim ? "sim" : (u < p_.sim_share + p_.mc_share ? "mc" : "estimate");
  const auto draw = [&](const Range& r) { return rng_.uniform(r.lo, r.hi); };
  const Range& rn = sim ? kSimN : kN;
  c.n = rng_.integer(int(rn.lo), int(rn.hi));
  c.tr = draw(sim ? kSimTr : kTr);
  c.l = draw(sim ? kSimL : kL);
  c.c = draw(sim ? kSimC : kC);
  c.include_c = sim || rng_.uniform() < kIncludeCShare;
  c.mc_seed = rng_.integer(1, 1 << 30);
  return c;
}

std::string RequestStream::render(long seq, const Config& c) const {
  char buf[512];
  const std::string kind = c.kind;
  if (kind == "mc") {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":\"%ld\",\"cmd\":\"mc\",\"n\":%d,\"tr\":%.17g,"
                  "\"l\":%.17g,\"c\":%.17g,\"include_c\":%s,\"samples\":%d,"
                  "\"seed\":%d}",
                  seq, c.n, c.tr, c.l, c.c, c.include_c ? "true" : "false",
                  kMcSamples, c.mc_seed);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":\"%ld\",\"cmd\":\"estimate\",\"n\":%d,\"tr\":%.17g,"
                  "\"l\":%.17g,\"c\":%.17g,\"include_c\":%s%s}",
                  seq, c.n, c.tr, c.l, c.c, c.include_c ? "true" : "false",
                  kind == "sim" ? ",\"sim\":true" : "");
  }
  return buf;
}

Request RequestStream::next() {
  Request r;
  r.seq = seq_++;
  if (!window_.empty() && rng_.uniform() < p_.repeat_share) {
    r.config = window_[std::size_t(rng_.integer(0, int(window_.size()) - 1))];
    r.repeat = true;
  } else {
    configs_.push_back(fresh());
    r.config = long(configs_.size()) - 1;
    window_.push_back(r.config);
    if (int(window_.size()) > kRepeatWindow) window_.pop_front();
  }
  const Config& c = configs_[std::size_t(r.config)];
  r.kind = c.kind;
  r.line = render(r.seq, c);
  return r;
}

}  // namespace ssnbench
