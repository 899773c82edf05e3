// Sparse linear algebra for large MNA systems. Circuit Jacobians are
// extremely sparse (a handful of entries per row), and their sparsity
// pattern is fixed for a given (circuit, analysis mode): every element
// stamps the same coordinate set at every Newton iteration, only the
// values change. The engine exploits that with StampedMatrix (a cached
// "stamp plan": discover the pattern once, then stamp values straight
// into a reusable CSR workspace) and SparseFactor (fill-reducing column
// order, symbolic analysis and pivot order computed once, numeric-only
// refactorization per iteration).
#pragma once

#include "numeric/matrix.hpp"

#include <cstddef>
#include <vector>

namespace ssnkit::numeric {

/// Fixed-pattern CSR matrix for repeated assembly ("stamp plan" + value
/// workspace). Two modes:
///
///  - discovery: begin_pattern(n) starts collecting (row, col, value)
///    triplets; finalize_pattern() sorts/merges them into CSR form. The
///    discovery pass doubles as a normal assembly — the merged values are
///    immediately usable.
///  - bound: with a finalized pattern, clear() zeroes the values and add()
///    accumulates into the existing slot. finalize_pattern() records the
///    discovery pass's adds in call order with their resolved slots (the
///    stamp tape), and clear() rewinds a cursor over it: an add() whose
///    (row, col) is the next tape entry goes straight to that slot, with
///    no search. Elements stamp the same coordinates in the same order at
///    every Newton iteration, so in steady state every add() replays the
///    tape. Any other add() (out of order, after a skipped entry, or extra)
///    finds its slot by binary search over its row; either way each slot
///    accumulates the same values in the same order. An add() at a
///    coordinate outside the pattern is counted in missed() instead of
///    stored — the caller asserts the pattern held and rebuilds if not.
///
/// epoch() increments on every finalize_pattern(), letting factorizations
/// detect that their symbolic analysis went stale. The tape lives and dies
/// with the pattern it indexes: begin_pattern() and reset_pattern() drop
/// it.
class StampedMatrix {
 public:
  StampedMatrix() = default;

  /// Discard any pattern and start a discovery pass for an n x n system.
  void begin_pattern(std::size_t n);
  /// Sort/merge the discovered triplets into CSR; bumps epoch().
  void finalize_pattern();
  /// Drop the pattern entirely (next assembly must rediscover).
  void reset_pattern();

  bool discovering() const { return discovering_; }
  bool has_pattern() const { return !discovering_ && n_ > 0; }
  std::size_t size() const { return n_; }
  std::size_t nonzeros() const { return col_idx_.size(); }
  /// Pattern generation counter (0 = never finalized).
  std::size_t epoch() const { return epoch_; }

  /// Zero the values for a fresh bound-mode assembly, rewind the stamp
  /// tape and reset missed().
  void clear();
  /// Accumulate a value (both modes; see class comment).
  void add(std::size_t r, std::size_t c, double v) {
    if (cursor_ < tape_.size()) {
      const TapeEntry& e = tape_[cursor_];
      if (e.r == r && e.c == c) {
        ++cursor_;
        values_[e.slot] += v;
        return;
      }
    }
    add_searched(r, c, v);
  }
  /// Bound-mode adds that fell outside the pattern since the last clear().
  std::size_t missed() const { return missed_; }
  /// Stamp tape length: the discovery pass's add() count (0 when there is
  /// no finalized pattern).
  std::size_t tape_size() const { return tape_.size(); }
  /// Tape entries replayed since the last clear(); equals tape_size() after
  /// an assembly that repeated the discovery pass's adds in order.
  std::size_t tape_position() const { return cursor_; }

  /// Entry lookup (0 when absent). Pattern must be finalized.
  double at(std::size_t r, std::size_t c) const;
  /// y = A x into a caller-provided vector (no allocation).
  void mul_into(const Vector& x, Vector& y) const;
  /// Dense copy (tests).
  Matrix to_dense() const;

  // CSR access (valid once finalized).
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  /// Slot of (r, c) in the CSR arrays, or npos when outside the pattern.
  std::size_t slot(std::size_t r, std::size_t c) const;
  /// add() off the tape: range check, then the discovery triplet or the
  /// searched bound-mode slot (or a missed() count).
  void add_searched(std::size_t r, std::size_t c, double v);

  struct Triplet {
    std::size_t r = 0, c = 0;
    double v = 0.0;
  };
  struct TapeEntry {
    std::size_t r = 0, c = 0, slot = 0;
  };

  std::size_t n_ = 0;
  bool discovering_ = false;
  std::size_t epoch_ = 0;
  std::size_t missed_ = 0;
  std::vector<Triplet> triplets_;  // discovery only; freed on finalize
  std::vector<std::size_t> row_ptr_, col_idx_;
  std::vector<double> values_;
  std::vector<TapeEntry> tape_;  // discovery adds in call order
  std::size_t cursor_ = 0;       // next tape entry to replay
};

/// Sparse LU (Gilbert–Peierls, partial pivoting) split into a full
/// factorization — which performs the symbolic reachability analysis,
/// chooses the pivot order and records the fill pattern — and a numeric
/// refactorization that replays the elimination over the recorded pattern
/// with fresh values. Because an MNA Jacobian's pattern is fixed across
/// Newton iterations and timesteps, the engine factorizes once per pattern
/// epoch and refactorizes everywhere else; solve() is allocation-free.
///
/// Columns are eliminated in an approximate-minimum-degree order Q of the
/// pattern of A + A^T (the ordering half of KLU), so P A Q = L U with row
/// pivots P chosen by magnitude inside each ordered column. Natural order
/// would eliminate an MNA hub node (a supply rail every driver touches)
/// first and fill the factors quadratically in the driver count. The order
/// depends only on the pattern: factorize() computes it once and keeps it
/// while the pattern is unchanged, so re-pivoting a degraded factorization
/// on the same epoch costs no ordering.
///
/// Exact-zero entries are kept in the stored pattern so a later
/// refactorization with different values cannot silently lose fill.
class SparseFactor {
 public:
  SparseFactor() = default;

  /// Full factorization: column order (unless the pattern is unchanged),
  /// symbolic analysis, pivoting and numerics. Returns false (and
  /// singular() == true) on a singular system.
  bool factorize(const StampedMatrix& a);

  /// Numeric-only refactorization reusing the previous pivot order and
  /// fill pattern. Returns false when the matrix shape/epoch changed, no
  /// factorization exists, a reused pivot degraded badly (the caller
  /// should re-factorize), or the system went singular.
  bool refactorize(const StampedMatrix& a);

  bool singular() const { return singular_; }
  std::size_t size() const { return n_; }
  /// Pattern epoch of the StampedMatrix this factorization was built for.
  std::size_t pattern_epoch() const { return epoch_; }
  /// Total stored entries of L + U (fill-in metric for tests/benches).
  std::size_t factor_nonzeros() const;

  /// Solve A x = b into a caller-provided vector (resized to n; no other
  /// allocation). Throws support::SolverError when singular.
  void solve(const Vector& b, Vector& x) const;

  /// Solve A^T x = b using the same factors (PAQ = LU gives
  /// A^T = Q U^T L^T P, so the column order on the way in, one ascending
  /// U^T sweep, one descending L^T sweep, and the row permutation on the
  /// way out). Needed by the Hager 1-norm condition estimator, which
  /// alternates A and A^T solves; it runs once per factorization epoch,
  /// never per accepted step, so the local work vector here is off the
  /// hot path. Throws when singular.
  void solve_transpose(const Vector& b, Vector& x) const;

  /// One step of iterative refinement against the currently stamped values:
  /// r = b - A x, solve A d = r, x += d. `r` and `d` are caller scratch so
  /// repeated calls allocate nothing. The factors must match `a`'s epoch
  /// (the usual solve precondition); the caller re-measures the residual
  /// afterwards to decide whether the refinement recovered the solve.
  void refine(const StampedMatrix& a, const Vector& b, Vector& x, Vector& r,
              Vector& d) const;

 private:
  static constexpr std::size_t npos = std::size_t(-1);

  /// Fault-injection hook (kFactorBitFlip): in fault-injection builds an
  /// armed site flips one mantissa bit of a stored pivot after a successful
  /// (re)factorization — the "silently wrong solve" corruption the verify
  /// layer's residual check must catch. Compiled to nothing elsewhere.
  void maybe_corrupt_factors();

  /// True when order_ and the column-compressed copy were built for
  /// exactly `a`'s pattern (checked entry by entry, O(nnz)).
  bool pattern_matches(const StampedMatrix& a) const;

  std::size_t n_ = 0;
  std::size_t epoch_ = npos;
  bool singular_ = true;
  // Elimination step j -> original column (unknown) order_[j].
  std::vector<std::size_t> order_;
  // Column-compressed copy of A's pattern with its columns in elimination
  // order (column j of the copy is A's column order_[j]); csc_src_[p]
  // indexes into the StampedMatrix CSR values array so refactorize can
  // gather without rebuilding the transpose.
  std::vector<std::size_t> csc_ptr_, csc_row_, csc_src_;
  // Per-column elimination pattern in topological order (original row
  // indices, as discovered by the symbolic DFS at factorize time).
  std::vector<std::vector<std::size_t>> pat_;
  // Column-major factors: L has unit diagonal (not stored). L's row
  // indices are original rows; U's are the unknown order_[k] of pivot
  // position k, the index where the solves keep position k's value.
  std::vector<std::vector<std::size_t>> l_rows_, u_rows_;
  std::vector<std::vector<double>> l_vals_, u_vals_;
  std::vector<double> u_diag_;
  std::vector<std::size_t> perm_;      // pivot position -> original row
  std::vector<std::size_t> pinv_;      // original row -> pivot position
  std::vector<std::size_t> row_slot_;  // original row r -> order_[pinv_[r]]
  std::vector<double> work_;           // scatter workspace (kept zeroed)
};

}  // namespace ssnkit::numeric
