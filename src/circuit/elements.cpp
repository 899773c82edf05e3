#include "circuit/elements.hpp"

#include "support/contracts.hpp"

#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

// Dimensions for the SSN-L011 units pass (docs/STATIC_ANALYSIS.md): the
// element constructors take their primary value in SI base units.
// ssn-units: ohms=Ohm, ohms_=Ohm, farads=F, farads_=F, henries=H, henries_=H
// ssn-units: omega=Hz

namespace ssnkit::circuit {

void Element::stamp_ac(const AcStampContext& ctx) const {
  (void)ctx;
  throw std::logic_error("stamp_ac: element '" + name() +
                         "' does not support AC analysis");
}

// --- Resistor ---------------------------------------------------------------

Resistor::Resistor(std::string name, NodeId n1, NodeId n2, double ohms)
    : Element(std::move(name)), n1_(n1), n2_(n2), ohms_(ohms) {
  SSN_REQUIRE(ohms_ > 0.0, "Resistor: ohms must be > 0");
}

void Resistor::stamp(const StampContext& ctx) const {
  ctx.stamp_conductance(n1_, n2_, 1.0 / ohms_);
}

void Resistor::stamp_ac(const AcStampContext& ctx) const {
  ctx.stamp_admittance(n1_, n2_, 1.0 / ohms_);
}

// --- Capacitor ---------------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId n1, NodeId n2, double farads,
                     std::optional<double> ic)
    : Element(std::move(name)), n1_(n1), n2_(n2), farads_(farads), ic_(ic) {
  SSN_REQUIRE(farads_ > 0.0, "Capacitor: farads must be > 0");
}

void Capacitor::stamp(const StampContext& ctx) const {
  if (ctx.mode == AnalysisMode::kDc) return;  // open circuit at DC

  const IntegrationCoeffs& c = ctx.coeffs;
  double geq, ieq;
  if (c.method == Integrator::kTrapezoidal && have_idot_) {
    // i = (2C/h)(v - v_n) - i_n
    geq = 2.0 * farads_ / c.h;
    ieq = -geq * v_prev_ - i_prev_;
  } else if (c.method == Integrator::kGear2 && have_prev2_) {
    geq = farads_ * c.a0;
    ieq = farads_ * (c.a1 * v_prev_ + c.a2 * v_prev2_);
  } else {  // backward Euler (also the restart step of the other methods)
    geq = farads_ / c.h;
    ieq = -geq * v_prev_;
  }
  ctx.stamp_conductance(n1_, n2_, geq);
  ctx.stamp_current(n1_, n2_, ieq);
}

void Capacitor::stamp_ac(const AcStampContext& ctx) const {
  ctx.stamp_admittance(n1_, n2_, numeric::Complex(0.0, ctx.omega * farads_));
}

void Capacitor::init_state(const AcceptContext& ctx) {
  v_prev_ = ic_.value_or(ctx.v(n1_) - ctx.v(n2_));
  v_prev2_ = v_prev_;
  i_prev_ = 0.0;  // steady state: no displacement current
  have_prev2_ = false;
  have_idot_ = true;
}

void Capacitor::accept_step(const AcceptContext& ctx) {
  const IntegrationCoeffs& c = ctx.coeffs;
  const double v_new = ctx.v(n1_) - ctx.v(n2_);
  double i_new;
  if (c.method == Integrator::kTrapezoidal && have_idot_) {
    i_new = (2.0 * farads_ / c.h) * (v_new - v_prev_) - i_prev_;
  } else if (c.method == Integrator::kGear2 && have_prev2_) {
    i_new = farads_ * (c.a0 * v_new + c.a1 * v_prev_ + c.a2 * v_prev2_);
  } else {
    i_new = (farads_ / c.h) * (v_new - v_prev_);
  }
  v_prev2_ = v_prev_;
  v_prev_ = v_new;
  i_prev_ = i_new;
  have_prev2_ = true;
  have_idot_ = true;
}

void Capacitor::reset_derivative_history() {
  have_prev2_ = false;
  have_idot_ = false;
}

// --- Inductor ----------------------------------------------------------------

Inductor::Inductor(std::string name, NodeId n1, NodeId n2, double henries,
                   std::optional<double> ic)
    : Element(std::move(name)), n1_(n1), n2_(n2), henries_(henries), ic_(ic) {
  SSN_REQUIRE(henries_ > 0.0, "Inductor: henries must be > 0");
}

void Inductor::stamp(const StampContext& ctx) const {
  const int br = branch_index();
  ctx.stamp_branch_incidence(node_count_, br, n1_, n2_);
  if (ctx.mode == AnalysisMode::kDc) {
    // Short circuit: v1 - v2 = 0 (incidence already wrote the voltage row).
    return;
  }
  const IntegrationCoeffs& c = ctx.coeffs;
  if (c.method == Integrator::kTrapezoidal && have_vdot_) {
    // v = (2L/h)(i - i_n) - v_n
    const double k = 2.0 * henries_ / c.h;
    ctx.stamp_branch_current_coeff(node_count_, br, -k);
    ctx.stamp_branch_rhs(node_count_, br, -k * i_prev_ - v_prev_);
  } else if (c.method == Integrator::kGear2 && have_prev2_) {
    ctx.stamp_branch_current_coeff(node_count_, br, -henries_ * c.a0);
    ctx.stamp_branch_rhs(node_count_, br,
                         henries_ * (c.a1 * i_prev_ + c.a2 * i_prev2_));
  } else {  // backward Euler
    const double k = henries_ / c.h;
    ctx.stamp_branch_current_coeff(node_count_, br, -k);
    ctx.stamp_branch_rhs(node_count_, br, -k * i_prev_);
  }
}

void Inductor::stamp_ac(const AcStampContext& ctx) const {
  const int br = branch_index();
  ctx.stamp_branch_incidence(node_count_, br, n1_, n2_);
  ctx.stamp_branch_current_coeff(node_count_, br,
                                 numeric::Complex(0.0, -ctx.omega * henries_));
}

void Inductor::init_state(const AcceptContext& ctx) {
  i_prev_ = ic_.value_or(ctx.branch_current(branch_index()));
  i_prev2_ = i_prev_;
  v_prev_ = 0.0;  // steady state: no voltage across the inductor
  have_prev2_ = false;
  have_vdot_ = true;
}

void Inductor::accept_step(const AcceptContext& ctx) {
  const double i_new = ctx.branch_current(branch_index());
  const double v_new = ctx.v(n1_) - ctx.v(n2_);
  i_prev2_ = i_prev_;
  i_prev_ = i_new;
  v_prev_ = v_new;
  have_prev2_ = true;
  have_vdot_ = true;
}

void Inductor::reset_derivative_history() {
  have_prev2_ = false;
  have_vdot_ = false;
}

// --- CoupledInductors ----------------------------------------------------------

CoupledInductors::CoupledInductors(std::string name, NodeId n1a, NodeId n1b,
                                   NodeId n2a, NodeId n2b, double l1, double l2,
                                   double k)
    : Element(std::move(name)),
      n1a_(n1a),
      n1b_(n1b),
      n2a_(n2a),
      n2b_(n2b),
      l1_(l1),
      l2_(l2),
      k_(k),
      m_(k * std::sqrt(l1 * l2)) {
  SSN_REQUIRE(l1_ > 0.0 && l2_ > 0.0,
              "CoupledInductors: inductances must be > 0");
  SSN_REQUIRE(std::fabs(k_) < 1.0, "CoupledInductors: |k| must be < 1");
}

void CoupledInductors::stamp(const StampContext& ctx) const {
  const int br1 = branch_index();
  const int br2 = branch_index() + 1;
  ctx.stamp_branch_incidence(node_count_, br1, n1a_, n1b_);
  ctx.stamp_branch_incidence(node_count_, br2, n2a_, n2b_);
  if (ctx.mode == AnalysisMode::kDc) return;  // both windings short

  const IntegrationCoeffs& c = ctx.coeffs;
  // di/dt ~= g*i_new + hist_i per current; the winding equations then read
  //   v1 - (L1*g)*i1 - (M*g)*i2 = L1*hist1 + M*hist2   (similarly row 2).
  double g, hist1, hist2;
  if (c.method == Integrator::kTrapezoidal && have_vdot_) {
    g = 2.0 / c.h;
    // L1*hist1 + M*hist2 collapses to -(2/h)(L1 i1_n + M i2_n) - v1_n,
    // because v1_n = L1*d1_n + M*d2_n exactly.
    ctx.stamp_branch_current_coeff(node_count_, br1, -l1_ * g);
    ctx.stamp_branch_cross(node_count_, br1, br2, -m_ * g);
    ctx.stamp_branch_rhs(node_count_, br1,
                         -g * (l1_ * i1_prev_ + m_ * i2_prev_) - v1_prev_);
    ctx.stamp_branch_current_coeff(node_count_, br2, -l2_ * g);
    ctx.stamp_branch_cross(node_count_, br2, br1, -m_ * g);
    ctx.stamp_branch_rhs(node_count_, br2,
                         -g * (l2_ * i2_prev_ + m_ * i1_prev_) - v2_prev_);
    return;
  }
  if (c.method == Integrator::kGear2 && have_prev2_) {
    g = c.a0;
    hist1 = c.a1 * i1_prev_ + c.a2 * i1_prev2_;
    hist2 = c.a1 * i2_prev_ + c.a2 * i2_prev2_;
  } else {  // backward Euler
    g = 1.0 / c.h;
    hist1 = -i1_prev_ / c.h;
    hist2 = -i2_prev_ / c.h;
  }
  ctx.stamp_branch_current_coeff(node_count_, br1, -l1_ * g);
  ctx.stamp_branch_cross(node_count_, br1, br2, -m_ * g);
  ctx.stamp_branch_rhs(node_count_, br1, l1_ * hist1 + m_ * hist2);
  ctx.stamp_branch_current_coeff(node_count_, br2, -l2_ * g);
  ctx.stamp_branch_cross(node_count_, br2, br1, -m_ * g);
  ctx.stamp_branch_rhs(node_count_, br2, l2_ * hist2 + m_ * hist1);
}

void CoupledInductors::stamp_ac(const AcStampContext& ctx) const {
  const int br1 = branch_index();
  const int br2 = branch_index() + 1;
  ctx.stamp_branch_incidence(node_count_, br1, n1a_, n1b_);
  ctx.stamp_branch_incidence(node_count_, br2, n2a_, n2b_);
  const numeric::Complex jw(0.0, ctx.omega);
  ctx.stamp_branch_current_coeff(node_count_, br1, -jw * l1_);
  ctx.stamp_branch_cross(node_count_, br1, br2, -jw * m_);
  ctx.stamp_branch_current_coeff(node_count_, br2, -jw * l2_);
  ctx.stamp_branch_cross(node_count_, br2, br1, -jw * m_);
}

void CoupledInductors::init_state(const AcceptContext& ctx) {
  i1_prev_ = ctx.branch_current(branch_index());
  i2_prev_ = ctx.branch_current(branch_index() + 1);
  i1_prev2_ = i1_prev_;
  i2_prev2_ = i2_prev_;
  v1_prev_ = 0.0;
  v2_prev_ = 0.0;
  have_prev2_ = false;
  have_vdot_ = true;
}

void CoupledInductors::accept_step(const AcceptContext& ctx) {
  i1_prev2_ = i1_prev_;
  i2_prev2_ = i2_prev_;
  i1_prev_ = ctx.branch_current(branch_index());
  i2_prev_ = ctx.branch_current(branch_index() + 1);
  v1_prev_ = ctx.v(n1a_) - ctx.v(n1b_);
  v2_prev_ = ctx.v(n2a_) - ctx.v(n2b_);
  have_prev2_ = true;
  have_vdot_ = true;
}

void CoupledInductors::reset_derivative_history() {
  have_prev2_ = false;
  have_vdot_ = false;
}

// --- VoltageSource -----------------------------------------------------------

VoltageSource::VoltageSource(std::string name, NodeId p, NodeId m,
                             waveform::SourceSpec spec)
    : Element(std::move(name)), p_(p), m_(m), spec_(std::move(spec)) {
  waveform::validate(spec_);
}

void VoltageSource::set_ac(double magnitude, double phase_deg) {
  SSN_REQUIRE(magnitude >= 0.0,
              "VoltageSource::set_ac: magnitude must be >= 0");
  ac_mag_ = magnitude;
  ac_phase_deg_ = phase_deg;
}

void VoltageSource::stamp_ac(const AcStampContext& ctx) const {
  const int br = branch_index();
  ctx.stamp_branch_incidence(node_count_, br, p_, m_);
  const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
  ctx.stamp_branch_rhs(node_count_, br,
                       std::polar(ac_mag_, phase));
}

void VoltageSource::stamp(const StampContext& ctx) const {
  const int br = branch_index();
  ctx.stamp_branch_incidence(node_count_, br, p_, m_);
  ctx.stamp_branch_rhs(node_count_, br,
                       ctx.source_scale * waveform::source_value(spec_, ctx.time));
}

// --- CurrentSource -----------------------------------------------------------

CurrentSource::CurrentSource(std::string name, NodeId p, NodeId m,
                             waveform::SourceSpec spec)
    : Element(std::move(name)), p_(p), m_(m), spec_(std::move(spec)) {
  waveform::validate(spec_);
}

void CurrentSource::set_ac(double magnitude, double phase_deg) {
  SSN_REQUIRE(magnitude >= 0.0,
              "CurrentSource::set_ac: magnitude must be >= 0");
  ac_mag_ = magnitude;
  ac_phase_deg_ = phase_deg;
}

void CurrentSource::stamp_ac(const AcStampContext& ctx) const {
  const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
  ctx.stamp_current(p_, m_, std::polar(ac_mag_, phase));
}

void CurrentSource::stamp(const StampContext& ctx) const {
  ctx.stamp_current(p_, m_,
                    ctx.source_scale * waveform::source_value(spec_, ctx.time));
}

// --- Vccs --------------------------------------------------------------------

Vccs::Vccs(std::string name, NodeId out_p, NodeId out_m, NodeId ctl_p,
           NodeId ctl_m, double gm)
    : Element(std::move(name)),
      out_p_(out_p),
      out_m_(out_m),
      ctl_p_(ctl_p),
      ctl_m_(ctl_m),
      gm_(gm) {}

void Vccs::stamp(const StampContext& ctx) const {
  ctx.stamp_vccs(out_p_, out_m_, ctl_p_, ctl_m_, gm_);
}

void Vccs::stamp_ac(const AcStampContext& ctx) const {
  ctx.stamp_vccs(out_p_, out_m_, ctl_p_, ctl_m_, gm_);
}

// --- Diode -------------------------------------------------------------------

Diode::Diode(std::string name, NodeId anode, NodeId cathode, double is, double n)
    : Element(std::move(name)), a_(anode), c_(cathode), is_(is), n_(n) {
  SSN_REQUIRE(is_ > 0.0, "Diode: is must be > 0");
  SSN_REQUIRE(n_ > 0.0, "Diode: n must be > 0");
}

void Diode::iv(double v, double& i, double& g) const {
  constexpr double kVt = 0.025852;  // thermal voltage at 300 K
  constexpr double kExpLimit = 40.0;
  const double nvt = n_ * kVt;
  const double xarg = v / nvt;
  if (xarg > kExpLimit) {
    // Linear extension beyond the limiting voltage (C1 continuous).
    const double e = std::exp(kExpLimit);
    i = is_ * (e * (1.0 + (xarg - kExpLimit)) - 1.0);
    g = is_ * e / nvt;
  } else {
    const double e = std::exp(xarg);
    i = is_ * (e - 1.0);
    g = is_ * e / nvt;
  }
  g += 1e-12;  // floor keeps the reverse-biased Jacobian nonsingular
}

void Diode::stamp(const StampContext& ctx) const {
  const double v = ctx.v(a_) - ctx.v(c_);
  double i, g;
  iv(v, i, g);
  const double ieq = i - g * v;
  ctx.stamp_conductance(a_, c_, g);
  ctx.stamp_current(a_, c_, ieq);
}

void Diode::stamp_ac(const AcStampContext& ctx) const {
  const double v = ctx.v_op(a_) - ctx.v_op(c_);
  double i, g;
  iv(v, i, g);
  ctx.stamp_admittance(a_, c_, g);
}

// --- Mosfet ------------------------------------------------------------------

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               std::shared_ptr<const devices::MosfetModel> model,
               MosfetPolarity polarity)
    : Element(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      model_(std::move(model)),
      polarity_(polarity) {
  SSN_REQUIRE(model_ != nullptr, "Mosfet: model must not be null");
}

Mosfet::SmallSignal Mosfet::small_signal(double vd, double vg, double vs,
                                         double vb) const {
  // The model describes an NMOS in forward operation. A PMOS mirrors every
  // voltage (p = -1), and reverse operation swaps the drain and source
  // roles. Each reflection flips the sign of the drain current; by the
  // chain rule the conductances carry the sign of the role swap alone.
  const double p = polarity_ == MosfetPolarity::kNmos ? 1.0 : -1.0;
  const double md = p * vd, mg = p * vg, ms = p * vs, mb = p * vb;
  const bool forward = md >= ms;
  const double m_src = forward ? ms : md;
  const double m_drn = forward ? md : ms;
  const devices::MosfetEval e =
      model_->evaluate(mg - m_src, m_drn - m_src, mb - m_src);

  const double swap = forward ? 1.0 : -1.0;
  SmallSignal ss;
  ss.i0 = p * swap * e.ids;
  ss.gg = swap * e.gm;
  ss.gb = swap * e.gmb;
  const double g_drn = swap * e.gds;
  const double g_src = -swap * (e.gm + e.gds + e.gmb);
  ss.gd = forward ? g_drn : g_src;
  ss.gs = forward ? g_src : g_drn;
  return ss;
}

void Mosfet::stamp(const StampContext& ctx) const {
  const double vd = ctx.v(d_);
  const double vg = ctx.v(g_);
  const double vs = ctx.v(s_);
  const double vb = ctx.v(b_);
  const SmallSignal ss = small_signal(vd, vg, vs, vb);

  // Current i0 flows drain -> source through the channel.
  ctx.stamp_jacobian(d_, d_, ss.gd);
  ctx.stamp_jacobian(d_, g_, ss.gg);
  ctx.stamp_jacobian(d_, s_, ss.gs);
  ctx.stamp_jacobian(d_, b_, ss.gb);
  ctx.stamp_jacobian(s_, d_, -ss.gd);
  ctx.stamp_jacobian(s_, g_, -ss.gg);
  ctx.stamp_jacobian(s_, s_, -ss.gs);
  ctx.stamp_jacobian(s_, b_, -ss.gb);
  const double ieq = ss.i0 - ss.gd * vd - ss.gg * vg - ss.gs * vs - ss.gb * vb;
  ctx.stamp_current(d_, s_, ieq);
}

void Mosfet::stamp_ac(const AcStampContext& ctx) const {
  const SmallSignal ss =
      small_signal(ctx.v_op(d_), ctx.v_op(g_), ctx.v_op(s_), ctx.v_op(b_));
  ctx.stamp_jacobian(d_, d_, ss.gd);
  ctx.stamp_jacobian(d_, g_, ss.gg);
  ctx.stamp_jacobian(d_, s_, ss.gs);
  ctx.stamp_jacobian(d_, b_, ss.gb);
  ctx.stamp_jacobian(s_, d_, -ss.gd);
  ctx.stamp_jacobian(s_, g_, -ss.gg);
  ctx.stamp_jacobian(s_, s_, -ss.gs);
  ctx.stamp_jacobian(s_, b_, -ss.gb);
}

double Mosfet::drain_current(const numeric::Vector& x, int node_count) const {
  (void)node_count;
  const auto volt = [&](NodeId n) {
    return n == kGround ? 0.0 : x[std::size_t(n - 1)];
  };
  return small_signal(volt(d_), volt(g_), volt(s_), volt(b_)).i0;
}

}  // namespace ssnkit::circuit
