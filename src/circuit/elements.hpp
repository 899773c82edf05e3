// Circuit elements. Each element knows how to stamp itself into the MNA
// system for DC and transient Newton iterations, and how to advance its own
// history state when a time step is accepted.
#pragma once

#include "circuit/mna.hpp"
#include "devices/mosfet_model.hpp"
#include "waveform/source_spec.hpp"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ssnkit::circuit {

/// Context for accepting a step: the converged solution and the
/// discretization that produced it.
struct AcceptContext {
  const numeric::Vector* x = nullptr;
  IntegrationCoeffs coeffs;
  int node_count = 0;

  double v(NodeId n) const {
    return n == kGround ? 0.0 : (*x)[std::size_t(n - 1)];
  }
  double branch_current(int idx) const {
    return (*x)[std::size_t(node_count - 1 + idx)];
  }
};

class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  const std::string& name() const { return name_; }

  /// Terminal nodes in declaration order (with repeats when terminals
  /// share a node). Used by circuit::validate_circuit for connectivity
  /// checks; pure virtual so a new element type cannot silently vanish
  /// from validation.
  virtual std::vector<NodeId> nodes() const = 0;

  /// Number of branch-current unknowns this element owns (0 or 1).
  virtual int branch_count() const { return 0; }
  /// First branch index, assigned by Circuit::finalize().
  void set_branch_index(int idx) { branch_index_ = idx; }
  int branch_index() const { return branch_index_; }

  /// Total node count of the circuit, set by Circuit::finalize().
  void set_node_count(int n) { node_count_ = n; }

  virtual void stamp(const StampContext& ctx) const = 0;

  /// Small-signal stamp at the DC operating point. Implemented by every
  /// built-in element; the default rejects so new element types fail loudly
  /// rather than silently vanishing from AC results.
  virtual void stamp_ac(const AcStampContext& ctx) const;

  /// Initialize history from the DC solution (or from ICs in UIC mode).
  virtual void init_state(const AcceptContext& ctx) { (void)ctx; }
  /// Advance history after an accepted transient step.
  virtual void accept_step(const AcceptContext& ctx) { (void)ctx; }
  /// Forget derivative history (called when the engine restarts
  /// integration after a source breakpoint).
  virtual void reset_derivative_history() {}

 protected:
  int node_count_ = 0;

 private:
  std::string name_;
  int branch_index_ = -1;
};

// ---------------------------------------------------------------------------

class Resistor final : public Element {
 public:
  Resistor(std::string name, NodeId n1, NodeId n2, double ohms);
  std::vector<NodeId> nodes() const override { return {n1_, n2_}; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  double resistance() const { return ohms_; }

 private:
  NodeId n1_, n2_;
  double ohms_;
};

/// Capacitor with one-step (BE/trap) or two-step (Gear2) history. An
/// optional initial condition is honoured in UIC mode.
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, NodeId n1, NodeId n2, double farads,
            std::optional<double> ic = std::nullopt);
  std::vector<NodeId> nodes() const override { return {n1_, n2_}; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  void init_state(const AcceptContext& ctx) override;
  void accept_step(const AcceptContext& ctx) override;
  void reset_derivative_history() override;
  double capacitance() const { return farads_; }
  std::optional<double> initial_condition() const { return ic_; }
  /// Branch voltage/current history (for LTE bookkeeping and tests).
  double v_prev() const { return v_prev_; }
  double i_prev() const { return i_prev_; }

 private:
  NodeId n1_, n2_;
  double farads_;
  std::optional<double> ic_;
  double v_prev_ = 0.0;
  double v_prev2_ = 0.0;
  double i_prev_ = 0.0;     ///< companion current at t_n (trap history)
  bool have_prev2_ = false;
  bool have_idot_ = false;  ///< i_prev_ is valid for trapezoidal reuse
};

/// Inductor: one branch-current unknown; v = L di/dt.
class Inductor final : public Element {
 public:
  Inductor(std::string name, NodeId n1, NodeId n2, double henries,
           std::optional<double> ic = std::nullopt);
  std::vector<NodeId> nodes() const override { return {n1_, n2_}; }
  int branch_count() const override { return 1; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  void init_state(const AcceptContext& ctx) override;
  void accept_step(const AcceptContext& ctx) override;
  void reset_derivative_history() override;
  double inductance() const { return henries_; }
  std::optional<double> initial_condition() const { return ic_; }
  NodeId node1() const { return n1_; }
  NodeId node2() const { return n2_; }

 private:
  NodeId n1_, n2_;
  double henries_;
  std::optional<double> ic_;
  double i_prev_ = 0.0;
  double i_prev2_ = 0.0;
  double v_prev_ = 0.0;  ///< branch voltage at t_n (trap history)
  bool have_prev2_ = false;
  bool have_vdot_ = false;
};

/// Two magnetically coupled inductors (a transformer / adjacent package
/// pins). Owns both branch currents; the branch equations are
///   v1 = L1*di1/dt + M*di2/dt,   v2 = M*di1/dt + L2*di2/dt,
/// with M = k*sqrt(L1*L2), |k| < 1. At DC both windings are shorts.
class CoupledInductors final : public Element {
 public:
  CoupledInductors(std::string name, NodeId n1a, NodeId n1b, NodeId n2a,
                   NodeId n2b, double l1, double l2, double k);
  /// Winding 1 is nodes()[0..1], winding 2 is nodes()[2..3].
  std::vector<NodeId> nodes() const override {
    return {n1a_, n1b_, n2a_, n2b_};
  }
  int branch_count() const override { return 2; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  void init_state(const AcceptContext& ctx) override;
  void accept_step(const AcceptContext& ctx) override;
  void reset_derivative_history() override;
  double mutual() const { return m_; }
  double coupling() const { return k_; }

 private:
  NodeId n1a_, n1b_, n2a_, n2b_;
  double l1_, l2_, k_, m_;
  double i1_prev_ = 0.0, i1_prev2_ = 0.0;
  double i2_prev_ = 0.0, i2_prev2_ = 0.0;
  double v1_prev_ = 0.0, v2_prev_ = 0.0;
  bool have_prev2_ = false;
  bool have_vdot_ = false;
};

/// Independent voltage source (one branch-current unknown).
class VoltageSource final : public Element {
 public:
  VoltageSource(std::string name, NodeId p, NodeId m, waveform::SourceSpec spec);
  std::vector<NodeId> nodes() const override { return {p_, m_}; }
  int branch_count() const override { return 1; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  const waveform::SourceSpec& spec() const { return spec_; }
  NodeId positive() const { return p_; }
  NodeId negative() const { return m_; }

  /// Small-signal excitation for AC analysis (0 = quiet, i.e. a short).
  void set_ac(double magnitude, double phase_deg = 0.0);
  double ac_magnitude() const { return ac_mag_; }

 private:
  NodeId p_, m_;
  waveform::SourceSpec spec_;
  double ac_mag_ = 0.0;
  double ac_phase_deg_ = 0.0;
};

/// Independent current source; positive current flows p -> m externally
/// through the rest of the circuit (SPICE convention: out of m, into p
/// inside the source).
class CurrentSource final : public Element {
 public:
  CurrentSource(std::string name, NodeId p, NodeId m, waveform::SourceSpec spec);
  std::vector<NodeId> nodes() const override { return {p_, m_}; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  const waveform::SourceSpec& spec() const { return spec_; }

  /// Small-signal excitation for AC analysis (0 = quiet, i.e. open).
  void set_ac(double magnitude, double phase_deg = 0.0);

 private:
  NodeId p_, m_;
  waveform::SourceSpec spec_;
  double ac_mag_ = 0.0;
  double ac_phase_deg_ = 0.0;
};

/// Linear voltage-controlled current source:
/// i(out_p -> out_m) = gm * (v(ctl_p) - v(ctl_m)).
class Vccs final : public Element {
 public:
  Vccs(std::string name, NodeId out_p, NodeId out_m, NodeId ctl_p, NodeId ctl_m,
       double gm);
  std::vector<NodeId> nodes() const override {
    return {out_p_, out_m_, ctl_p_, ctl_m_};
  }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;

 private:
  NodeId out_p_, out_m_, ctl_p_, ctl_m_;
  double gm_;
};

/// Junction diode i = Is*(exp(v/(n*Vt)) - 1) with exponent limiting.
class Diode final : public Element {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, double is = 1e-14,
        double n = 1.0);
  std::vector<NodeId> nodes() const override { return {a_, c_}; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  double saturation_current() const { return is_; }
  double ideality() const { return n_; }

 private:
  /// Current and conductance at junction voltage v (with exp limiting).
  void iv(double v, double& i, double& g) const;

  NodeId a_, c_;
  double is_, n_;
};

enum class MosfetPolarity { kNmos, kPmos };

/// Four-terminal MOSFET; the model is shared (not owned) state-free, so one
/// fitted model instance can serve N identical drivers.
class Mosfet final : public Element {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
         std::shared_ptr<const devices::MosfetModel> model,
         MosfetPolarity polarity = MosfetPolarity::kNmos);
  std::vector<NodeId> nodes() const override { return {d_, g_, s_, b_}; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;

  /// Drain current at the given solved state (post-processing helper).
  double drain_current(const numeric::Vector& x, int node_count) const;

 private:
  /// Drain current and the four terminal conductances at a bias point,
  /// from one model evaluation. Handles polarity and reverse (vds < 0)
  /// operation.
  struct SmallSignal {
    double i0 = 0.0, gd = 0.0, gg = 0.0, gs = 0.0, gb = 0.0;
  };
  SmallSignal small_signal(double vd, double vg, double vs, double vb) const;

  NodeId d_, g_, s_, b_;
  std::shared_ptr<const devices::MosfetModel> model_;
  MosfetPolarity polarity_;
};

}  // namespace ssnkit::circuit
