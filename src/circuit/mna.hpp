// Modified nodal analysis plumbing: unknown numbering, stamp helpers and
// the per-iteration context handed to every element.
//
// Unknown vector layout: x = [v(1) .. v(N-1), i(branch 0) .. i(branch B-1)]
// where node 0 is ground (not an unknown) and each voltage-defined element
// (voltage source, inductor) owns one branch-current unknown.
#pragma once

#include "numeric/complex_la.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"

namespace ssnkit::circuit {

using NodeId = int;  ///< 0 is ground
inline constexpr NodeId kGround = 0;

/// What the engine is currently solving.
enum class AnalysisMode {
  kDc,         ///< capacitors open, inductors shorted, sources at t = 0
  kTransient,  ///< companion models active
};

/// Numerical integration method for the transient companion models.
enum class Integrator {
  kBackwardEuler,
  kTrapezoidal,
  kGear2,
};

/// Discretization of d/dt for the current step:
///   dx/dt |_{n+1}  ~=  a0*x_{n+1} + a1*x_n + a2*x_{n-1}      (BE, Gear2)
///   dx/dt |_{n+1}  ~=  a0*(x_{n+1} - x_n) - xdot_n           (trapezoidal)
/// Elements combine these with their stored history in stamp().
struct IntegrationCoeffs {
  Integrator method = Integrator::kBackwardEuler;
  double h = 0.0;   ///< current step size
  double a0 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;  ///< only nonzero for Gear2
};

/// Everything an element needs to stamp itself for one Newton iteration.
/// Exactly one Jacobian target is set: `a` (dense, used by whitebox tests
/// and small one-shot assemblies) or `sa` (the engine's fixed-pattern
/// sparse workspace). Elements never write either directly — all matrix
/// writes go through the stamp helpers, which dispatch to the live target.
struct StampContext {
  AnalysisMode mode = AnalysisMode::kDc;
  double time = 0.0;                 ///< time being solved for
  IntegrationCoeffs coeffs;          ///< valid when mode == kTransient
  const numeric::Vector* x = nullptr;  ///< current Newton iterate
  numeric::Matrix* a = nullptr;      ///< dense Jacobian target (pre-zeroed)
  numeric::StampedMatrix* sa = nullptr;  ///< sparse Jacobian target
  numeric::Vector* b = nullptr;      ///< system RHS (pre-zeroed)
  double gmin = 0.0;                 ///< homotopy conductance to ground
  double source_scale = 1.0;         ///< DC source-stepping homotopy factor

  /// Voltage of a node under the current iterate (0 for ground).
  double v(NodeId n) const {
    return n == kGround ? 0.0 : (*x)[std::size_t(n - 1)];
  }
  /// Current of branch unknown `idx` under the current iterate.
  double branch_current(int node_count, int idx) const {
    return (*x)[std::size_t(node_count - 1 + idx)];
  }

  // --- stamp helpers (all ignore ground rows/columns) ---------------------

  /// Conductance g between nodes n1 and n2.
  void stamp_conductance(NodeId n1, NodeId n2, double g) const {
    if (n1 != kGround) {
      add_a(std::size_t(n1 - 1), std::size_t(n1 - 1), g);
      if (n2 != kGround) add_a(std::size_t(n1 - 1), std::size_t(n2 - 1), -g);
    }
    if (n2 != kGround) {
      add_a(std::size_t(n2 - 1), std::size_t(n2 - 1), g);
      if (n1 != kGround) add_a(std::size_t(n2 - 1), std::size_t(n1 - 1), -g);
    }
  }
  /// Current `i` flowing out of node `from` into node `to` (i.e. a source
  /// pushing current from -> to externally adds +i at `to`, -i at `from`).
  void stamp_current(NodeId from, NodeId to, double i) const;
  /// Transconductance: current g*(v(cp)-v(cm)) flowing from out_p to out_m.
  void stamp_vccs(NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
                  double g) const;
  /// Jacobian entry dI(row_node)/dV(col_node) += g.
  void stamp_jacobian(NodeId row_node, NodeId col_node, double g) const {
    if (row_node == kGround || col_node == kGround) return;
    add_a(std::size_t(row_node - 1), std::size_t(col_node - 1), g);
  }

  // --- branch-row helpers (row = node_count-1+branch) ----------------------
  int branch_row(int node_count, int branch) const {
    return node_count - 1 + branch;
  }
  /// Incidence of branch current `branch` into node KCL rows: +1 out of
  /// node `p`, into node `m`; plus the voltage terms in the branch row.
  void stamp_branch_incidence(int node_count, int branch, NodeId p,
                              NodeId m) const;
  /// Coefficient of the branch current itself in the branch row.
  void stamp_branch_current_coeff(int node_count, int branch,
                                  double coeff) const;
  /// Cross term between two branch currents (coupled inductors).
  void stamp_branch_cross(int node_count, int row_branch, int col_branch,
                          double coeff) const;
  /// RHS of the branch row.
  void stamp_branch_rhs(int node_count, int branch, double value) const;

 private:
  /// Accumulate into the live Jacobian target (dense or sparse). Inline
  /// with the helpers above, so an element's stamp compiles to a run of
  /// StampedMatrix::add calls that each replay one stamp-tape entry.
  void add_a(std::size_t r, std::size_t c, double v) const {
    if (sa)
      sa->add(r, c, v);
    else
      (*a)(r, c) += v;
  }
};

/// Context for small-signal (AC) stamping: the complex MNA system
/// (G + j*omega*C) x = b, linearized around the DC operating point x_op.
struct AcStampContext {
  double omega = 0.0;                     ///< angular frequency [rad/s]
  const numeric::Vector* x_op = nullptr;  ///< DC operating point
  numeric::CMatrix* a = nullptr;
  numeric::CVector* b = nullptr;

  /// Operating-point voltage of a node (0 for ground).
  double v_op(NodeId n) const {
    return n == kGround ? 0.0 : (*x_op)[std::size_t(n - 1)];
  }

  void stamp_admittance(NodeId n1, NodeId n2, numeric::Complex y) const;
  void stamp_jacobian(NodeId row_node, NodeId col_node, numeric::Complex y) const;
  void stamp_current(NodeId from, NodeId to, numeric::Complex i) const;
  void stamp_vccs(NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
                  double g) const;

  int branch_row(int node_count, int branch) const {
    return node_count - 1 + branch;
  }
  void stamp_branch_incidence(int node_count, int branch, NodeId p,
                              NodeId m) const;
  void stamp_branch_current_coeff(int node_count, int branch,
                                  numeric::Complex coeff) const;
  /// Cross term between two branch currents (coupled inductors).
  void stamp_branch_cross(int node_count, int row_branch, int col_branch,
                          numeric::Complex coeff) const;
  void stamp_branch_rhs(int node_count, int branch, numeric::Complex value) const;
};

}  // namespace ssnkit::circuit
