#include "numeric/sparse.hpp"

#include "support/contracts.hpp"
#include "support/diagnostics.hpp"
#include "support/faultinject.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace ssnkit::numeric {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Approximate-minimum-degree elimination order of the symmetric pattern
/// of A + A^T (Amestoy, Davis & Duff, SIMAX 1996) for the n x n CSR
/// pattern (rp, ci): order[k] is the column eliminated at step k.
///
/// The elimination runs on a quotient graph, so it never stores fill. A
/// variable (uneliminated node) keeps the variables it still shares an
/// entry of A + A^T with and the elements it belongs to. Eliminating pivot
/// p turns it into an element whose members are its whole neighbourhood
/// L_p, and absorbs every element p belonged to. Only L_p's degrees
/// change, and each gets AMD's cheap upper bound on its true degree.
/// Pivots come off a heap keyed by (degree, index): ties go to the lowest
/// index and the order is deterministic. Nodes denser than
/// max(16, 10 sqrt(n)) — the supply rails of a large unfolded circuit —
/// stay out of the graph and are ordered last.
///
/// Storage is flat, so even a 7-unknown system costs a handful of
/// allocations. A variable's lists live in its own slot of `adj`: its
/// variables, then its elements. They never outgrow the slot, because a
/// member of L_p always loses p (a variable neighbour) or an element
/// absorbed into p when it gains p. Element member lists are appended to
/// `members`, which grows by the sum of |L_p|.
std::vector<std::size_t> amd_order(std::size_t n,
                                   const std::vector<std::size_t>& rp,
                                   const std::vector<std::size_t>& ci) {
  enum class Kind : unsigned char { kVariable, kElement, kAbsorbed, kDense };
  struct Node {
    std::size_t start = 0;  // slot in adj
    std::size_t vars = 0;   // variables at the slot's front,
    std::size_t len = 0;    // then elements up to start + len
    std::size_t degree = 0;
    std::size_t first = 0, count = 0;  // an element's members
    std::size_t in_lp = kNone;  // == p: in L_p, or is p
    std::size_t seen = kNone;   // == p: outside holds |L_e \ L_p|
    std::size_t outside = 0;
    Kind kind = Kind::kVariable;
  };
  std::vector<Node> node(n);

  // The off-diagonal pattern of A + A^T, one slot per node, duplicates
  // dropped and dense nodes split off.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p)
      if (ci[p] != r) {
        ++node[r].len;
        ++node[ci[p]].len;
      }
  std::size_t total = 0;
  for (Node& v : node) {
    v.start = total;
    total += v.len;
    v.len = 0;
  }
  std::vector<std::size_t> adj(total);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p)
      if (const std::size_t c = ci[p]; c != r) {
        adj[node[r].start + node[r].len++] = c;
        adj[node[c].start + node[c].len++] = r;
      }
  const double dense = std::max(16.0, 10.0 * std::sqrt(double(n)));
  for (std::size_t i = 0; i < n; ++i) {
    Node& v = node[i];
    std::size_t kept = v.start;
    for (std::size_t q = v.start; q < v.start + v.len; ++q)
      if (node[adj[q]].seen != i) {
        node[adj[q]].seen = i;
        adj[kept++] = adj[q];
      }
    v.len = kept - v.start;
    if (double(v.len) > dense) v.kind = Kind::kDense;
  }

  std::vector<std::pair<std::size_t, std::size_t>> entries;  // (degree, node)
  entries.reserve(2 * n);
  std::size_t live = 0;  // variables not yet eliminated
  for (std::size_t i = 0; i < n; ++i) {
    Node& v = node[i];
    v.seen = kNone;
    if (v.kind != Kind::kVariable) continue;
    std::size_t kept = v.start;
    for (std::size_t q = v.start; q < v.start + v.len; ++q)
      if (node[adj[q]].kind != Kind::kDense) adj[kept++] = adj[q];
    v.len = v.vars = v.degree = kept - v.start;
    entries.emplace_back(v.degree, i);
    ++live;
  }
  std::priority_queue heap(std::greater<>{}, std::move(entries));

  std::vector<std::size_t> members;
  members.reserve(total);
  std::vector<std::size_t> order;
  order.reserve(n);
  while (!heap.empty()) {
    const auto [d, p] = heap.top();
    heap.pop();
    Node& np = node[p];
    if (np.kind != Kind::kVariable || np.degree != d) continue;  // stale
    order.push_back(p);
    --live;

    // L_p: p's variable neighbours plus the members of every element p is
    // in; those elements are absorbed into the new element p.
    const std::size_t first = members.size();
    np.in_lp = p;
    const auto take = [&](std::size_t i) {
      if (node[i].in_lp == p) return;
      node[i].in_lp = p;
      members.push_back(i);
    };
    for (std::size_t q = np.start + np.vars; q < np.start + np.len; ++q) {
      Node& e = node[adj[q]];
      if (e.kind != Kind::kElement) continue;
      for (std::size_t m = e.first; m < e.first + e.count; ++m) take(members[m]);
      e.kind = Kind::kAbsorbed;
    }
    for (std::size_t q = np.start; q < np.start + np.vars; ++q) take(adj[q]);
    np.kind = Kind::kElement;
    np.first = first;
    np.count = members.size() - first;
    const std::size_t others = np.count - 1;  // |L_p| - 1 for a member

    // |L_e \ L_p| for every other element e that shares members with L_p.
    for (std::size_t m = first; m < first + np.count; ++m) {
      const Node& v = node[members[m]];
      for (std::size_t q = v.start + v.vars; q < v.start + v.len; ++q) {
        Node& e = node[adj[q]];
        if (e.kind != Kind::kElement) continue;
        if (e.seen != p) {
          e.seen = p;
          e.outside = e.count;
        }
        --e.outside;
      }
    }

    // Element p now covers every entry among L_p: prune those from each
    // member's variables, absorb elements that lie inside L_p, add p, and
    // bound the member's degree by
    //   min(live - 1, old + |L_p| - 1, |A_i| + |L_p| - 1 + sum |L_e \ L_p|).
    for (std::size_t m = first; m < first + np.count; ++m) {
      Node& v = node[members[m]];
      std::size_t w = v.start;
      for (std::size_t q = v.start; q < v.start + v.vars; ++q)
        if (node[adj[q]].in_lp != p) adj[w++] = adj[q];
      const std::size_t vars = w - v.start;
      std::size_t external = 0;
      for (std::size_t q = v.start + v.vars; q < v.start + v.len; ++q) {
        Node& e = node[adj[q]];
        if (e.kind != Kind::kElement) continue;
        if (e.outside == 0) {
          e.kind = Kind::kAbsorbed;
          continue;
        }
        external += e.outside;
        adj[w++] = adj[q];
      }
      adj[w++] = p;
      v.vars = vars;
      v.len = w - v.start;
      const std::size_t bound =
          std::min({live - 1, v.degree + others, vars + others + external});
      if (bound != v.degree) {
        v.degree = bound;
        heap.emplace(bound, members[m]);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (node[i].kind == Kind::kDense) order.push_back(i);
  return order;
}
}  // namespace

// --- StampedMatrix -----------------------------------------------------------

void StampedMatrix::begin_pattern(std::size_t n) {
  n_ = n;
  discovering_ = true;
  missed_ = 0;
  triplets_.clear();
  row_ptr_.clear();
  col_idx_.clear();
  values_.clear();
  tape_.clear();
  cursor_ = 0;
}

void StampedMatrix::finalize_pattern() {
  SSN_REQUIRE(discovering_, "StampedMatrix::finalize_pattern: not discovering");
  // The stamp tape keeps the discovery adds in call order; their slots are
  // resolved once the CSR arrays exist.
  tape_.resize(triplets_.size());
  for (std::size_t i = 0; i < triplets_.size(); ++i)
    tape_[i] = {triplets_[i].r, triplets_[i].c, 0};
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.r != b.r ? a.r < b.r : a.c < b.c;
            });
  row_ptr_.assign(n_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  std::size_t i = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    row_ptr_[r] = col_idx_.size();
    while (i < triplets_.size() && triplets_[i].r == r) {
      const std::size_t c = triplets_[i].c;
      double v = 0.0;
      while (i < triplets_.size() && triplets_[i].r == r && triplets_[i].c == c)
        v += triplets_[i++].v;
      col_idx_.push_back(c);
      values_.push_back(v);
    }
  }
  row_ptr_[n_] = col_idx_.size();
  for (TapeEntry& e : tape_) e.slot = slot(e.r, e.c);
  cursor_ = tape_.size();  // the discovery pass was the tape's first run
  triplets_.clear();
  triplets_.shrink_to_fit();
  discovering_ = false;
  ++epoch_;
}

void StampedMatrix::reset_pattern() {
  n_ = 0;
  discovering_ = false;
  missed_ = 0;
  triplets_.clear();
  row_ptr_.clear();
  col_idx_.clear();
  values_.clear();
  tape_.clear();
  cursor_ = 0;
}

void StampedMatrix::clear() {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::clear: no finalized pattern");
  std::fill(values_.begin(), values_.end(), 0.0);
  missed_ = 0;
  cursor_ = 0;
}

void StampedMatrix::add_searched(std::size_t r, std::size_t c, double v) {
  if (r >= n_ || c >= n_)
    throw std::out_of_range("StampedMatrix::add: index out of range");
  if (discovering_) {
    triplets_.push_back({r, c, v});
    return;
  }
  const std::size_t s = slot(r, c);
  if (s == kNone) {
    ++missed_;
    return;
  }
  values_[s] += v;
}

std::size_t StampedMatrix::slot(std::size_t r, std::size_t c) const {
  const auto first = col_idx_.begin() + long(row_ptr_[r]);
  const auto last = col_idx_.begin() + long(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return kNone;
  return std::size_t(it - col_idx_.begin());
}

double StampedMatrix::at(std::size_t r, std::size_t c) const {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::at: no finalized pattern");
  const std::size_t s = slot(r, c);
  return s == kNone ? 0.0 : values_[s];
}

void StampedMatrix::mul_into(const Vector& x, Vector& y) const {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::mul_into: no finalized pattern");
  if (x.size() != n_)
    throw std::invalid_argument("StampedMatrix::mul_into: size");
  y.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = 0.0;
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      acc += values_[i] * x[col_idx_[i]];
    y[r] = acc;
  }
}

Matrix StampedMatrix::to_dense() const {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::to_dense: no finalized pattern");
  Matrix d(n_, n_);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      d(r, col_idx_[i]) = values_[i];
  return d;
}

// --- SparseFactor ------------------------------------------------------------

bool SparseFactor::pattern_matches(const StampedMatrix& a) const {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  if (a.size() != n_ || order_.size() != n_ || ci.size() != csc_row_.size())
    return false;
  // Every cached entry must sit at its recorded CSR slot; with equal counts
  // and distinct slots that makes the two patterns identical.
  for (std::size_t j = 0; j < n_; ++j)
    for (std::size_t p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) {
      const std::size_t r = csc_row_[p], s = csc_src_[p];
      if (s < rp[r] || s >= rp[r + 1] || ci[s] != order_[j]) return false;
    }
  return true;
}

bool SparseFactor::factorize(const StampedMatrix& a) {
  SSN_REQUIRE(a.has_pattern(), "SparseFactor::factorize: pattern not finalized");
  epoch_ = a.epoch();
  singular_ = false;
  const auto& vals = a.values();
  if (!pattern_matches(a)) {
    // New pattern: its column order, then a column-compressed copy in that
    // order with a gather map (csc_src_) back into the CSR values array, so
    // refactorize never rebuilds the transpose.
    n_ = a.size();
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    order_ = amd_order(n_, rp, ci);
    std::vector<std::size_t> step(n_);  // original column -> elimination step
    for (std::size_t j = 0; j < n_; ++j) step[order_[j]] = j;
    const std::size_t nnz = ci.size();
    csc_ptr_.assign(n_ + 1, 0);
    csc_row_.resize(nnz);
    csc_src_.resize(nnz);
    for (std::size_t i = 0; i < nnz; ++i) csc_ptr_[step[ci[i]] + 1]++;
    for (std::size_t j = 0; j < n_; ++j) csc_ptr_[j + 1] += csc_ptr_[j];
    std::vector<std::size_t> next(csc_ptr_.begin(), csc_ptr_.end() - 1);
    for (std::size_t r = 0; r < n_; ++r)
      for (std::size_t i = rp[r]; i < rp[r + 1]; ++i) {
        const std::size_t dst = next[step[ci[i]]]++;
        csc_row_[dst] = r;
        csc_src_[dst] = i;
      }
  }
  if (n_ == 0) return true;

  pat_.assign(n_, {});
  l_rows_.assign(n_, {});
  l_vals_.assign(n_, {});
  u_rows_.assign(n_, {});
  u_vals_.assign(n_, {});
  u_diag_.assign(n_, 0.0);
  perm_.assign(n_, npos);
  pinv_.assign(n_, npos);
  work_.assign(n_, 0.0);

  std::vector<std::size_t> visited(n_, npos);
  std::vector<std::size_t> postorder, dfs_stack, dfs_edge;

  for (std::size_t j = 0; j < n_; ++j) {
    // Symbolic: reachability of A(:,j)'s rows through the columns of L,
    // collected in DFS postorder; reversed it is the topological order the
    // elimination needs. The reversed order is recorded in pat_[j] so the
    // numeric refactorization can replay it without redoing the DFS.
    postorder.clear();
    for (std::size_t p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) {
      const std::size_t root = csc_row_[p];
      if (visited[root] == j) continue;
      dfs_stack.assign(1, root);
      dfs_edge.assign(1, 0);
      visited[root] = j;
      while (!dfs_stack.empty()) {
        const std::size_t t = dfs_stack.back();
        const std::size_t k = pinv_[t];
        bool descended = false;
        if (k != npos) {
          std::size_t& e = dfs_edge.back();
          while (e < l_rows_[k].size()) {
            const std::size_t child = l_rows_[k][e++];
            if (visited[child] != j) {
              visited[child] = j;
              dfs_stack.push_back(child);
              dfs_edge.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended && (k == npos || dfs_edge.back() >= l_rows_[k].size())) {
          postorder.push_back(t);
          dfs_stack.pop_back();
          dfs_edge.pop_back();
        }
      }
    }
    pat_[j].assign(postorder.rbegin(), postorder.rend());

    // Numeric: scatter A(:,j), eliminate in topological order.
    for (std::size_t p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p)
      work_[csc_row_[p]] += vals[csc_src_[p]];
    for (std::size_t t : pat_[j]) {
      const std::size_t k = pinv_[t];
      if (k == npos) continue;  // not yet pivotal: nothing to eliminate with
      const double xt = work_[t];
      if (xt == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      const auto& lr = l_rows_[k];
      const auto& lv = l_vals_[k];
      for (std::size_t q = 0; q < lr.size(); ++q) work_[lr[q]] -= lv[q] * xt;
    }

    // Pivot: largest magnitude among not-yet-pivotal rows.
    std::size_t pivot_row = npos;
    double pivot_mag = 0.0;
    for (std::size_t t : pat_[j]) {
      if (pinv_[t] != npos) continue;
      const double mag = std::fabs(work_[t]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = t;
      }
    }
    if (pivot_row == npos ||
        pivot_mag < std::numeric_limits<double>::min() * 16) {
      singular_ = true;
      for (std::size_t t : pat_[j]) work_[t] = 0.0;  // leave workspace clean
      return false;
    }
    const double pivot = work_[pivot_row];
    u_diag_[j] = pivot;
    perm_[j] = pivot_row;
    pinv_[pivot_row] = j;
    work_[pivot_row] = 0.0;

    // Store every pattern entry — exact zeros included, so the fill pattern
    // survives refactorization with different values — in pat_[j] order.
    for (std::size_t t : pat_[j]) {
      if (t == pivot_row) continue;
      const double v = work_[t];
      work_[t] = 0.0;
      if (pinv_[t] != npos && pinv_[t] < j) {
        u_rows_[j].push_back(order_[pinv_[t]]);
        u_vals_[j].push_back(v);
      } else {
        l_rows_[j].push_back(t);
        l_vals_[j].push_back(v / pivot);
      }
    }
  }
  row_slot_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) row_slot_[perm_[k]] = order_[k];
  maybe_corrupt_factors();
  return true;
}

bool SparseFactor::refactorize(const StampedMatrix& a) {
  if (n_ == 0 || a.size() != n_ || a.epoch() != epoch_ || perm_.empty() ||
      perm_[n_ - 1] == npos)
    return false;
  const auto& vals = a.values();
  // Until the replay completes, the stored factors are torn: refuse solves.
  singular_ = true;

  for (std::size_t j = 0; j < n_; ++j) {
    const std::vector<std::size_t>& pat = pat_[j];
    for (std::size_t p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p)
      work_[csc_row_[p]] += vals[csc_src_[p]];
    for (std::size_t t : pat) {
      const std::size_t k = pinv_[t];
      if (k >= j) continue;  // pivotal only after column j in the old order
      const double xt = work_[t];
      if (xt == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      const auto& lr = l_rows_[k];
      const auto& lv = l_vals_[k];
      for (std::size_t q = 0; q < lr.size(); ++q) work_[lr[q]] -= lv[q] * xt;
    }

    // Reused pivot sanity: it must stay comfortably away from zero relative
    // to the column it is meant to dominate; a degraded pivot means the old
    // pivot order no longer suits these values and the caller must run a
    // full factorize() to re-pivot.
    const std::size_t pivot_row = perm_[j];
    const double pivot = work_[pivot_row];
    double colmax = 0.0;
    for (std::size_t t : pat)
      if (pinv_[t] >= j) colmax = std::max(colmax, std::fabs(work_[t]));
    if (!(std::fabs(pivot) >= std::numeric_limits<double>::min() * 16) ||
        std::fabs(pivot) < 1e-3 * colmax) {
      for (std::size_t t : pat) work_[t] = 0.0;
      return false;
    }
    u_diag_[j] = pivot;
    work_[pivot_row] = 0.0;

    // Gather in the exact order factorize stored the pattern.
    std::size_t ui = 0, li = 0;
    for (std::size_t t : pat) {
      if (t == pivot_row) continue;
      const double v = work_[t];
      work_[t] = 0.0;
      if (pinv_[t] < j)
        u_vals_[j][ui++] = v;
      else
        l_vals_[j][li++] = v / pivot;
    }
  }
  singular_ = false;
  maybe_corrupt_factors();
  return true;
}

void SparseFactor::maybe_corrupt_factors() {
  if (!support::kFaultInjectionEnabled || n_ == 0) return;
  if (!SSN_FAULT_POINT(support::FaultKind::kFactorBitFlip)) return;
  // Flip mantissa bit 48 of the middle column's pivot: a ~2^-4 relative
  // perturbation — large enough that one refinement step cannot hide it
  // (the verify layer must emit a typed degradation), small enough that the
  // wrong answer would look entirely plausible if served unchecked.
  double& target = u_diag_[n_ / 2];
  std::uint64_t bits = 0;
  std::memcpy(&bits, &target, sizeof bits);
  bits ^= std::uint64_t(1) << 48;
  std::memcpy(&target, &bits, sizeof bits);
}

std::size_t SparseFactor::factor_nonzeros() const {
  std::size_t nnz = n_;  // U diagonal
  for (std::size_t j = 0; j < n_; ++j)
    nnz += l_rows_[j].size() + u_rows_[j].size();
  return nnz;
}

void SparseFactor::solve(const Vector& b, Vector& x) const {
  SSN_REQUIRE(b.size() == n_, "SparseFactor::solve: size mismatch");
  if (singular_) {
    support::SolverDiagnostics diag;
    diag.where = "SparseFactor::solve";
    throw support::SolverError(support::SolverErrorKind::kSingularMatrix,
                               "singular matrix", std::move(diag));
  }
  x.resize(n_);
  // PAQ = LU: solve L U y = P b, then x = Q y. Pivot position k's value is
  // kept at x[order_[k]] throughout, so the last sweep leaves x = Q y in
  // place. Forward solve L z = P b (L unit-diagonal, column-wise with
  // original row indices; row_slot_ maps a row to its position's index).
  for (std::size_t r = 0; r < n_; ++r) x[row_slot_[r]] = b[r];
  for (std::size_t k = 0; k < n_; ++k) {
    const double yk = x[order_[k]];
    if (yk == 0.0) continue;  // ssnlint-ignore(SSN-L001)
    const auto& lr = l_rows_[k];
    const auto& lv = l_vals_[k];
    for (std::size_t q = 0; q < lr.size(); ++q)
      x[row_slot_[lr[q]]] -= lv[q] * yk;
  }
  // Backward solve U y = z (U column-wise, rows stored at their index).
  for (std::size_t jj = n_; jj-- > 0;) {
    double& xj = x[order_[jj]];
    xj /= u_diag_[jj];
    const double yj = xj;
    if (yj == 0.0) continue;  // ssnlint-ignore(SSN-L001)
    const auto& ur = u_rows_[jj];
    const auto& uv = u_vals_[jj];
    for (std::size_t q = 0; q < ur.size(); ++q) x[ur[q]] -= uv[q] * yj;
  }
}

void SparseFactor::solve_transpose(const Vector& b, Vector& x) const {
  SSN_REQUIRE(b.size() == n_, "SparseFactor::solve_transpose: size mismatch");
  if (singular_) {
    support::SolverDiagnostics diag;
    diag.where = "SparseFactor::solve_transpose";
    throw support::SolverError(support::SolverErrorKind::kSingularMatrix,
                               "singular matrix", std::move(diag));
  }
  x.resize(n_);
  // A^T = Q U^T L^T P. w keeps pivot position k's value at w[order_[k]],
  // as solve() does. Step 1: U^T z = Q^T b, ascending — U's column j holds
  // entries at pivot positions k < j, so U^T is lower triangular:
  //   z_j = (b[order_[j]] - sum_{k in U col j} u_kj z_k) / u_jj.
  std::vector<double> w(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t c = order_[j];
    double acc = b[c];
    const auto& ur = u_rows_[j];
    const auto& uv = u_vals_[j];
    for (std::size_t q = 0; q < ur.size(); ++q) acc -= uv[q] * w[ur[q]];
    w[c] = acc / u_diag_[j];
  }
  // Step 2: L^T v = z, descending — L's column k holds entries at pivot
  // positions pinv_[row] > k, so L^T row k subtracts already-solved
  // positions: v_k -= sum_q l_vals[q] * v[pinv_[l_rows[q]]].
  for (std::size_t k = n_; k-- > 0;) {
    double& wk = w[order_[k]];
    const auto& lr = l_rows_[k];
    const auto& lv = l_vals_[k];
    for (std::size_t q = 0; q < lr.size(); ++q) wk -= lv[q] * w[row_slot_[lr[q]]];
  }
  // Step 3: x = P^T v: row r takes its pivot position's value.
  for (std::size_t r = 0; r < n_; ++r) x[r] = w[row_slot_[r]];
}

void SparseFactor::refine(const StampedMatrix& a, const Vector& b, Vector& x,
                          Vector& r, Vector& d) const {
  SSN_REQUIRE(b.size() == n_ && x.size() == n_,
              "SparseFactor::refine: size mismatch");
  a.mul_into(x, r);
  for (std::size_t i = 0; i < n_; ++i) r[i] = b[i] - r[i];
  solve(r, d);
  for (std::size_t i = 0; i < n_; ++i) x[i] += d[i];
}

}  // namespace ssnkit::numeric
