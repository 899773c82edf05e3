// Deterministic fault injection for the solver kernels.
//
// The resilience layer (sim/recovery.hpp) claims that every solver failure
// either recovers up the ladder or surfaces as a typed SolverError — never a
// crash, hang, or silent NaN. That claim is only testable if failures can be
// produced on demand. This header plants seeded, per-site hooks at the four
// failure classes the engine can hit:
//
//   kNewtonDivergence  force solve_newton to report non-convergence
//   kSingularLu        force the (dense or sparse) LU to report singularity
//   kNanResidual       poison one entry of the Newton update with NaN
//   kStepUnderflow     force the adaptive timestep below the minimum step
//
// plus three *result-corruption* classes the verify layer must catch (they
// damage data rather than forcing an error path, which is exactly the
// "silently wrong" failure mode the TrustReport machinery exists to stop):
//
//   kFactorBitFlip     flip one bit of a stored LU factor value, so a later
//                      solve returns a confidently wrong vector
//   kCacheRot          rot one byte of a served result-cache payload
//   kJournalTruncate   drop the tail of a journal value mid-record
//
// plus three *process-fatal* classes the serve supervisor must contain (they
// kill or wedge the worker process itself, which is exactly the failure mode
// process isolation exists for; the sites live in serve/worker.cpp and are
// never queried by the parent daemon):
//
//   kWorkerCrash       worker calls std::abort() mid-request
//   kWorkerHang        worker spins without polling its RunContext, so only
//                      the supervisor's SIGKILL watchdog can end it
//   kWorkerOom         worker runs a bounded allocation burst that trips its
//                      RLIMIT_AS cap and dies of the uncaught bad_alloc
//
// The hooks compile to a literal `false` unless SSNKIT_FAULT_INJECTION is
// defined (the `fault-injection` CMake preset turns it on globally), so
// release binaries carry zero overhead and zero attack surface.
//
// Determinism: each (thread, site) pair owns a std::mt19937 stream derived
// from the armed plan's seed. Identical plan + identical workload =>
// identical fire sequence, which is what lets the test suite assert
// bit-for-bit reproducibility across runs.
//
// Threading: arm()/disarm() must happen while no solver is running (tests
// and batch drivers arm around each scenario), but should_fire() is safe to
// call concurrently from the parallel batch runner: per-thread query state
// lives in thread_local storage and the aggregate counters are atomics.
// For batches, wrap each item's solver work in a FaultSampleScope(index):
// every site's stream is then re-derived from (plan seed, item index), so
// which faults an item sees depends only on its index — never on which
// worker thread ran it or in what order. That is what keeps fault-injected
// parallel batches bit-identical to serial ones.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <random>
#include <string>

namespace ssnkit::support {

enum class FaultKind : int {
  kNewtonDivergence = 0,
  kSingularLu = 1,
  kNanResidual = 2,
  kStepUnderflow = 3,
  kFactorBitFlip = 4,
  kCacheRot = 5,
  kJournalTruncate = 6,
  kWorkerCrash = 7,
  kWorkerHang = 8,
  kWorkerOom = 9,
};

inline constexpr int kFaultKindCount = 10;

inline const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNewtonDivergence: return "newton-divergence";
    case FaultKind::kSingularLu: return "singular-lu";
    case FaultKind::kNanResidual: return "nan-residual";
    case FaultKind::kStepUnderflow: return "step-underflow";
    case FaultKind::kFactorBitFlip: return "factor-bit-flip";
    case FaultKind::kCacheRot: return "cache-rot";
    case FaultKind::kJournalTruncate: return "journal-truncate";
    case FaultKind::kWorkerCrash: return "worker-crash";
    case FaultKind::kWorkerHang: return "worker-hang";
    case FaultKind::kWorkerOom: return "worker-oom";
  }
  return "unknown";
}

/// When and how often an armed site fires. Two trigger modes compose:
/// `fire_on_nth` (exact query index, 1-based) for surgical single faults and
/// `probability` (seeded Bernoulli per query) for soak testing. `max_fires`
/// caps the total, which is how tests force "attempt 1 fails, attempt 2
/// runs clean" ladder walks.
struct FaultPlan {
  unsigned seed = 1;
  double probability = 0.0;
  std::size_t fire_on_nth = 0;  ///< 0 = disabled
  std::size_t max_fires = std::numeric_limits<std::size_t>::max();
  /// Restrict firing to one batch item: when >= 0, the site is live only
  /// inside a FaultSampleScope whose index equals this value (and dead
  /// outside any scope). Because every sample owns its own trigger stream,
  /// this is how a test injects a failure into exactly one Monte Carlo
  /// sample while the remaining samples stay bit-identical to an
  /// uninjected run.
  int only_sample = -1;
};

class FaultInjector {
 public:
  static FaultInjector& instance() {
    static FaultInjector injector;
    return injector;
  }

  void arm(FaultKind kind, const FaultPlan& plan) {
    std::lock_guard<std::mutex> lock(mu_);
    Shared& s = shared_[std::size_t(kind)];
    s.plan = plan;
    s.armed.store(true, std::memory_order_relaxed);
    queries_[std::size_t(kind)].store(0, std::memory_order_relaxed);
    fires_[std::size_t(kind)].store(0, std::memory_order_relaxed);
    // Publish the new plan: thread-local states refresh (reseed + zero
    // their counters) when they observe the new epoch.
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void disarm(FaultKind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    shared_[std::size_t(kind)].armed.store(false, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void disarm_all() {
    std::lock_guard<std::mutex> lock(mu_);
    for (Shared& s : shared_) s.armed.store(false, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  /// Queried by the SSN_FAULT_POINT macro at every instrumented site.
  bool should_fire(FaultKind kind) {
    Local& st = local();
    refresh(st);
    const std::size_t k = std::size_t(kind);
    if (!st.sites[k].armed) return false;
    LocalSite& s = st.sites[k];
    // Sample-targeted plans are dead everywhere but the matching scope —
    // equivalent to the site being disarmed there, so nothing is counted.
    if (s.plan.only_sample >= 0 &&
        (!st.scoped || st.sample != std::size_t(s.plan.only_sample)))
      return false;
    ++s.queries;
    queries_[k].fetch_add(1, std::memory_order_relaxed);
    if (s.fires >= s.plan.max_fires) return false;
    bool fire = false;
    if (s.plan.fire_on_nth > 0 && s.queries == s.plan.fire_on_nth) fire = true;
    if (!fire && s.plan.probability > 0.0) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      if (u(s.rng) < s.plan.probability) fire = true;
    }
    if (fire) {
      ++s.fires;
      fires_[k].fetch_add(1, std::memory_order_relaxed);
    }
    return fire;
  }

  /// Total queries/fires across all threads since the site was last armed.
  std::size_t query_count(FaultKind kind) const {
    return queries_[std::size_t(kind)].load(std::memory_order_relaxed);
  }
  std::size_t fire_count(FaultKind kind) const {
    return fires_[std::size_t(kind)].load(std::memory_order_relaxed);
  }

 private:
  friend class FaultSampleScope;

  struct Shared {
    std::atomic<bool> armed{false};
    FaultPlan plan;  // guarded by mu_; published via epoch_
  };
  /// Per-thread view of one site: a private RNG stream plus the query/fire
  /// counters fire_on_nth and max_fires trigger on.
  struct LocalSite {
    bool armed = false;
    FaultPlan plan;
    std::mt19937 rng;
    std::size_t queries = 0;
    std::size_t fires = 0;
  };
  struct Local {
    std::uint64_t epoch = 0;  ///< 0 forces a refresh on first use
    bool scoped = false;
    std::size_t sample = 0;
    std::array<LocalSite, kFaultKindCount> sites;
  };

  static Local& local() {
    thread_local Local st;
    return st;
  }

  /// Sync this thread's view with the armed plans. Reseeds every stream and
  /// zeroes the per-thread counters; inside a FaultSampleScope the seed is
  /// mixed with the sample index so each item gets its own stream.
  void refresh(Local& st) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (st.epoch == e) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t k = 0; k < std::size_t(kFaultKindCount); ++k) {
      LocalSite& s = st.sites[k];
      s.armed = shared_[k].armed.load(std::memory_order_relaxed);
      s.plan = shared_[k].plan;
      unsigned seed = s.plan.seed;
      if (st.scoped)
        seed += 0x9e3779b9u * (unsigned(st.sample) + 1u);
      s.rng.seed(seed);
      s.queries = 0;
      s.fires = 0;
    }
    st.epoch = epoch_.load(std::memory_order_relaxed);
  }

  mutable std::mutex mu_;
  std::atomic<std::uint64_t> epoch_{1};
  std::array<Shared, kFaultKindCount> shared_;
  std::array<std::atomic<std::size_t>, kFaultKindCount> queries_{};
  std::array<std::atomic<std::size_t>, kFaultKindCount> fires_{};
};

/// Map a fault-kind name (the to_string spelling) back to its enum value.
inline bool fault_kind_from_name(const std::string& name, FaultKind& out) {
  for (int k = 0; k < kFaultKindCount; ++k) {
    if (name == to_string(FaultKind(k))) {
      out = FaultKind(k);
      return true;
    }
  }
  return false;
}

/// Arm fault sites from a compact plan string, the chaos harness's way of
/// configuring a *daemon process* it cannot call arm() in:
///
///   "seed=7,factor-bit-flip=0.01,cache-rot=0.005,journal-truncate=0.01"
///
/// Comma-separated `key=value` entries: `seed=N` sets the shared plan seed
/// (applies to every site armed after it; default 1), and `<kind>=<p>` arms
/// that site with probability p. A key may carry an `@SAMPLE` suffix —
/// `worker-crash@13=1` — which sets FaultPlan::only_sample, so the site is
/// live only inside a FaultSampleScope with that index. Serve workers scope
/// each request by its driver count, which is how the chaos soak makes one
/// request shape a deterministic poison pill while the rest of the traffic
/// stays clean. Returns the number of sites armed; malformed entries are
/// skipped rather than fatal (a soak harness wants best-effort arming, and
/// the site counters reveal what actually fired). Number parsing is
/// hand-rolled: the strto* family is banned outside the hardened io parsers
/// (SSN-L007), and plan strings only need unsigned decimals and simple
/// fractions.
inline std::size_t arm_from_plan_string(const std::string& text) {
  const auto parse_simple_double = [](const std::string& s, double& out) {
    if (s.empty()) return false;
    double value = 0.0;
    std::size_t i = 0;
    bool any = false;
    for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
      value = value * 10.0 + double(s[i] - '0');
      any = true;
    }
    if (i < s.size() && s[i] == '.') {
      ++i;
      double scale = 0.1;
      for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
        value += double(s[i] - '0') * scale;
        scale *= 0.1;
        any = true;
      }
    }
    if (!any || i != s.size()) return false;
    out = value;
    return true;
  };
  std::size_t armed = 0;
  unsigned seed = 1;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    double number = 0.0;
    if (!parse_simple_double(value, number)) continue;
    if (key == "seed") {
      seed = unsigned(number);
      continue;
    }
    // Optional `@SAMPLE` suffix restricts the site to one scope index.
    int only_sample = -1;
    const std::size_t at = key.find('@');
    if (at != std::string::npos) {
      double sample = 0.0;
      if (!parse_simple_double(key.substr(at + 1), sample)) continue;
      if (sample != double(int(sample)) || sample < 0.0) continue;
      only_sample = int(sample);
      key.resize(at);
    }
    FaultKind kind;
    if (!fault_kind_from_name(key, kind)) continue;
    if (!(number > 0.0 && number <= 1.0)) continue;
    FaultPlan plan;
    plan.seed = seed;
    plan.probability = number;
    plan.only_sample = only_sample;
    FaultInjector::instance().arm(kind, plan);
    ++armed;
  }
  return armed;
}

/// RAII marker for one batch item: while alive, this thread's fault streams
/// are derived from (plan seed, sample index) instead of the plain plan
/// seed, and the per-thread query/fire counters restart from zero. Entering
/// and leaving the scope both force a stream refresh, so work outside any
/// scope is unaffected. Cheap enough to use unconditionally (it only touches
/// thread-local state); it does nothing observable unless a site is armed.
class FaultSampleScope {
 public:
  explicit FaultSampleScope(std::size_t sample_index) {
    FaultInjector::Local& st = FaultInjector::local();
    st.scoped = true;
    st.sample = sample_index;
    st.epoch = 0;  // force re-derivation on the next query
  }
  ~FaultSampleScope() {
    FaultInjector::Local& st = FaultInjector::local();
    st.scoped = false;
    st.sample = 0;
    st.epoch = 0;
  }
  FaultSampleScope(const FaultSampleScope&) = delete;
  FaultSampleScope& operator=(const FaultSampleScope&) = delete;
};

}  // namespace ssnkit::support

#if defined(SSNKIT_FAULT_INJECTION)
#define SSN_FAULT_POINT(kind) \
  (::ssnkit::support::FaultInjector::instance().should_fire(kind))
namespace ssnkit::support {
inline constexpr bool kFaultInjectionEnabled = true;
}
#else
/// Compiled out: the kind expression is discarded unevaluated.
#define SSN_FAULT_POINT(kind) false
namespace ssnkit::support {
inline constexpr bool kFaultInjectionEnabled = false;
}
#endif
