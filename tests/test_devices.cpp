// Device models: smoothing primitives, alpha-power golden, BSIM-lite
// golden, the ASDM, the width-scaling adapter, and every model's analytic
// Jacobian against the finite-difference oracle.
#include "devices/alpha_power.hpp"
#include "devices/asdm.hpp"
#include "devices/bsim_lite.hpp"
#include "process/package.hpp"
#include "process/technology.hpp"
#include "reference/jacobian.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace {

using namespace ssnkit::devices;

TEST(Softplus, SlopeHelperMatchesValueAndDerivative) {
  const double eps = 2e-3;
  for (double x : {-1.0, -0.02, -0.004, -1e-4, 0.0, 1e-4, 0.004, 0.02, 1.0}) {
    const ValueSlope vs = softplus_with_slope(x, eps);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vs.value),
              std::bit_cast<std::uint64_t>(softplus(x, eps)))
        << x;
    const double h = 1e-7;
    EXPECT_NEAR(vs.slope, (softplus(x + h, eps) - softplus(x - h, eps)) / (2 * h),
                1e-6)
        << x;
  }
  EXPECT_THROW(softplus_with_slope(0.0, 0.0), std::invalid_argument);
}

TEST(BodyEffect, SlopeHelperIsZeroPastTheClamp) {
  const double vt0 = 0.45, gamma = 0.35, phi2f = 0.85;
  for (double vsb : {-0.8, -0.5, -0.3, 0.0, 0.5, 1.5}) {
    const ValueSlope vt = body_effect_vt_with_slope(vt0, gamma, phi2f, vsb);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vt.value),
              std::bit_cast<std::uint64_t>(body_effect_vt(vt0, gamma, phi2f, vsb)))
        << vsb;
    const double h = 1e-6;
    EXPECT_NEAR(vt.slope,
                (body_effect_vt(vt0, gamma, phi2f, vsb + h) -
                 body_effect_vt(vt0, gamma, phi2f, vsb - h)) /
                    (2 * h),
                1e-8)
        << vsb;
  }
  // Forward bias past -phi2f/2 holds vt, so its slope is exactly zero.
  EXPECT_EQ(body_effect_vt_with_slope(vt0, gamma, phi2f, -0.6).slope, 0.0);
  EXPECT_EQ(body_effect_vt_with_slope(vt0, 0.0, phi2f, 0.5).slope, 0.0);
}

TEST(BodyEffect, RaisesThresholdWithSourceBias) {
  const double vt0 = 0.45, gamma = 0.35, phi2f = 0.85;
  EXPECT_DOUBLE_EQ(body_effect_vt(vt0, gamma, phi2f, 0.0), vt0);
  const double vt_biased = body_effect_vt(vt0, gamma, phi2f, 0.5);
  EXPECT_GT(vt_biased, vt0);
  EXPECT_NEAR(vt_biased,
              vt0 + gamma * (std::sqrt(phi2f + 0.5) - std::sqrt(phi2f)), 1e-12);
  // gamma = 0 disables the effect entirely.
  EXPECT_DOUBLE_EQ(body_effect_vt(vt0, 0.0, phi2f, 0.5), vt0);
}

class AlphaPowerTest : public ::testing::Test {
 protected:
  AlphaPowerParams params_ = ssnkit::process::tech_180nm().alpha_power;
  AlphaPowerModel model_{params_};
};

TEST_F(AlphaPowerTest, OffBelowThreshold) {
  EXPECT_LT(model_.ids(0.1, 1.8, 0.0), 1e-6);
  EXPECT_LT(model_.ids(0.0, 1.8, 0.0), 1e-6);
}

TEST_F(AlphaPowerTest, Id0AtFullBias) {
  // At vgs = vds = vdd the current equals id0 times the CLM factor.
  const double expected = params_.id0 * (1.0 + params_.lambda_clm * params_.vdd);
  EXPECT_NEAR(model_.ids(params_.vdd, params_.vdd, 0.0), expected,
              0.02 * expected);
}

TEST_F(AlphaPowerTest, MonotoneInVgs) {
  double prev = 0.0;
  for (double vgs = 0.5; vgs <= 1.8; vgs += 0.05) {
    const double i = model_.ids(vgs, 1.8, 0.0);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST_F(AlphaPowerTest, TriodeBelowSaturation) {
  const double vgs = 1.8;
  const double vdsat = model_.vdsat(vgs, 0.0);
  EXPECT_GT(vdsat, 0.1);
  EXPECT_LT(model_.ids(vgs, vdsat / 4.0, 0.0), model_.ids(vgs, vdsat, 0.0));
  // Zero vds -> zero current.
  EXPECT_NEAR(model_.ids(vgs, 0.0, 0.0), 0.0, 1e-12);
}

TEST_F(AlphaPowerTest, ContinuousAcrossVdsat) {
  const double vgs = 1.4;
  const double vdsat = model_.vdsat(vgs, 0.0);
  const double below = model_.ids(vgs, vdsat * (1 - 1e-9), 0.0);
  const double above = model_.ids(vgs, vdsat * (1 + 1e-9), 0.0);
  EXPECT_NEAR(below, above, 1e-9 * above + 1e-15);
  // C1: derivative continuous too (compare secants on both sides).
  const double h = 1e-6;
  const double d_below =
      (model_.ids(vgs, vdsat, 0.0) - model_.ids(vgs, vdsat - h, 0.0)) / h;
  const double d_above =
      (model_.ids(vgs, vdsat + h, 0.0) - model_.ids(vgs, vdsat, 0.0)) / h;
  EXPECT_NEAR(d_below, d_above, 5e-3 * std::fabs(d_below) + 1e-9);
}

TEST_F(AlphaPowerTest, BodyEffectReducesCurrent) {
  // Same vgs, source lifted above bulk (vbs < 0): current must drop.
  EXPECT_LT(model_.ids(1.2, 1.5, -0.5), model_.ids(1.2, 1.5, 0.0));
}

TEST_F(AlphaPowerTest, EvaluateDerivativesMatchFiniteDifference) {
  const auto eval = model_.evaluate(1.2, 1.5, -0.2);
  const double h = 1e-6;
  EXPECT_NEAR(eval.gm,
              (model_.ids(1.2 + h, 1.5, -0.2) - model_.ids(1.2 - h, 1.5, -0.2)) /
                  (2 * h),
              1e-8);
  EXPECT_GT(eval.gm, 0.0);
  EXPECT_GE(eval.gds, 0.0);
  EXPECT_GT(eval.gmb, 0.0);  // raising vbs lowers vt -> more current
}

TEST_F(AlphaPowerTest, ParamValidation) {
  AlphaPowerParams p = params_;
  p.alpha = 2.5;
  EXPECT_THROW(AlphaPowerModel{p}, std::invalid_argument);
  p = params_;
  p.vt0 = -0.1;
  EXPECT_THROW(AlphaPowerModel{p}, std::invalid_argument);
  p = params_;
  p.id0 = 0.0;
  EXPECT_THROW(AlphaPowerModel{p}, std::invalid_argument);
}

class BsimLiteTest : public ::testing::Test {
 protected:
  BsimLiteParams params_ = ssnkit::process::tech_180nm().bsim_lite;
  BsimLiteModel model_{params_};
};

TEST_F(BsimLiteTest, OffBelowThreshold) {
  EXPECT_LT(model_.ids(0.2, 1.8, 0.0), 1e-6);
}

TEST_F(BsimLiteTest, SaturatesWithVds) {
  const double i_half = model_.ids(1.8, 0.9, 0.0);
  const double i_full = model_.ids(1.8, 1.8, 0.0);
  EXPECT_GT(i_full, i_half * 0.9);
  // Past vdsat the current rises only via CLM.
  const double vdsat = model_.vdsat(1.8, 0.0);
  const double i1 = model_.ids(1.8, vdsat * 2.0, 0.0);
  const double i2 = model_.ids(1.8, vdsat * 2.5, 0.0);
  EXPECT_LT((i2 - i1) / i1, 0.1);
}

TEST_F(BsimLiteTest, MobilityDegradationSubQuadratic) {
  // With theta > 0 the I(vgs) curve grows slower than square law.
  const double i1 = model_.ids(1.0, 1.8, 0.0);
  const double i2 = model_.ids(1.8, 1.8, 0.0);
  const double vt = params_.vt0;
  const double square_ratio = std::pow((1.8 - vt) / (1.0 - vt), 2.0);
  EXPECT_LT(i2 / i1, square_ratio);
}

TEST_F(BsimLiteTest, BodyEffectReducesCurrent) {
  EXPECT_LT(model_.ids(1.2, 1.5, -0.5), model_.ids(1.2, 1.5, 0.0));
}

TEST_F(BsimLiteTest, CloneIsIndependent) {
  const auto clone = model_.clone();
  EXPECT_DOUBLE_EQ(clone->ids(1.5, 1.8, 0.0), model_.ids(1.5, 1.8, 0.0));
}

TEST(Asdm, PaperFormAndTurnOn) {
  AsdmModel m({.k = 5e-3, .lambda = 1.3, .vx = 0.6});
  EXPECT_DOUBLE_EQ(m.ids_gate_source(0.5, 0.0), 0.0);  // below vx
  EXPECT_NEAR(m.ids_gate_source(1.6, 0.0), 5e-3 * 1.0, 1e-12);
  // Source bounce of 0.2 V costs lambda*0.2 of gate overdrive.
  EXPECT_NEAR(m.ids_gate_source(1.6, 0.2), 5e-3 * (1.6 - 1.3 * 0.2 - 0.6), 1e-12);
}

TEST(Asdm, MosfetInterfaceMatchesPaperForm) {
  // The simulator-facing interface smooths the paper's hard clamp with a
  // ~1 mV width; deep in the on region the two agree to K*eps^2/overdrive.
  AsdmModel m({.k = 5e-3, .lambda = 1.3, .vx = 0.6});
  // vg = 1.5, vs = 0.3, bulk at true ground: vgs = 1.2, vbs = -0.3.
  EXPECT_NEAR(m.ids(1.2, 1.5, -0.3), m.ids_gate_source(1.5, 0.3), 1e-7);
  const auto eval = m.evaluate(1.2, 1.5, -0.3);
  EXPECT_NEAR(eval.gm, 5e-3, 1e-7);
  EXPECT_DOUBLE_EQ(eval.gds, 0.0);
  EXPECT_NEAR(eval.gmb, 5e-3 * 0.3, 1e-7);
}

TEST(Asdm, NegligibleCurrentAndGainWhenOff) {
  AsdmModel m({.k = 5e-3, .lambda = 1.3, .vx = 0.6});
  const auto eval = m.evaluate(0.1, 1.8, 0.0);  // 0.5 V below turn-on
  EXPECT_LT(eval.ids, 1e-8);
  EXPECT_LT(eval.gm, 1e-7);
  // The hard-clamped paper form is exactly zero there.
  EXPECT_DOUBLE_EQ(m.ids_gate_source(0.1, 0.0), 0.0);
}

TEST(Asdm, ParamValidation) {
  EXPECT_THROW(AsdmModel({.k = -1.0, .lambda = 1.3, .vx = 0.6}),
               std::invalid_argument);
  EXPECT_THROW(AsdmModel({.k = 1e-3, .lambda = 0.9, .vx = 0.6}),
               std::invalid_argument);
  EXPECT_THROW(AsdmModel({.k = 1e-3, .lambda = 1.3, .vx = -0.1}),
               std::invalid_argument);
}

TEST(ScaledModel, ScalesCurrentAndDerivatives) {
  auto base = std::make_unique<AsdmModel>(
      AsdmParams{.k = 5e-3, .lambda = 1.3, .vx = 0.6});
  ScaledMosfetModel scaled(std::move(base), 4.0);
  EXPECT_NEAR(scaled.ids(1.2, 1.8, 0.0), 4.0 * 5e-3 * (1.2 - 0.6), 1e-12);
  const auto eval = scaled.evaluate(1.2, 1.8, 0.0);
  EXPECT_DOUBLE_EQ(eval.gm, 4.0 * 5e-3);
  EXPECT_THROW(ScaledMosfetModel(nullptr, 2.0), std::invalid_argument);
  EXPECT_THROW(ScaledMosfetModel(scaled.clone(), 0.0), std::invalid_argument);
}

TEST(Technology, PresetsAreValidAndDistinct) {
  using namespace ssnkit::process;
  for (const char* name : {"180nm", "250nm", "350nm"}) {
    const Technology t = technology_by_name(name);
    EXPECT_NO_THROW(t.validate());
    EXPECT_EQ(t.name, name);
  }
  EXPECT_GT(tech_350nm().vdd, tech_180nm().vdd);
  EXPECT_THROW(technology_by_name("90nm"), std::invalid_argument);
}

TEST(Technology, GoldenFactoryScalesWidth) {
  const auto tech = ssnkit::process::tech_180nm();
  const auto unit = tech.make_golden(ssnkit::process::GoldenKind::kAlphaPower, 1.0);
  const auto twice = tech.make_golden(ssnkit::process::GoldenKind::kAlphaPower, 2.0);
  EXPECT_NEAR(twice->ids(1.8, 1.8, 0.0), 2.0 * unit->ids(1.8, 1.8, 0.0), 1e-12);
}

TEST(Package, PresetsAndPadScaling) {
  using namespace ssnkit::process;
  const Package pga = package_pga();
  EXPECT_DOUBLE_EQ(pga.inductance, 5e-9);
  EXPECT_DOUBLE_EQ(pga.capacitance, 1e-12);
  EXPECT_DOUBLE_EQ(pga.resistance, 10e-3);
  const Package doubled = pga.with_ground_pads(2);
  EXPECT_DOUBLE_EQ(doubled.inductance, 2.5e-9);
  EXPECT_DOUBLE_EQ(doubled.capacitance, 2e-12);
  EXPECT_THROW(pga.with_ground_pads(0), std::invalid_argument);
  EXPECT_THROW(package_by_name("dip"), std::invalid_argument);
  EXPECT_LT(package_flip_chip().inductance, package_wire_bond().inductance);
}

// --- Analytic Jacobians against the finite-difference oracle ---------------

/// One model under test plus what the grid needs to place its points: the
/// threshold at a source-bulk bias, vdsat (0 when the model has none), the
/// turn-on smoothing width and the body-effect clamp.
struct JacobianCase {
  std::string name;
  std::shared_ptr<const MosfetModel> model;
  std::function<double(double vsb)> vt;
  std::function<double(double vgs, double vbs)> vdsat;
  /// True when vds = vdsat is a kink (alpha-power's C1 join); otherwise the
  /// surface bends smoothly over a width ~vdsat there (BSIM-lite's blend).
  bool vdsat_is_kink = false;
  double eps = 0.0;
  double phi2f = 0.0;  ///< body-effect clamp at vbs = phi2f/2 (0: none)
};

std::vector<JacobianCase> jacobian_cases() {
  using namespace ssnkit::process;
  std::vector<JacobianCase> cases;
  for (const auto& tech : {tech_180nm(), tech_250nm(), tech_350nm()}) {
    auto alpha = std::make_shared<AlphaPowerModel>(tech.alpha_power);
    auto bsim = std::make_shared<BsimLiteModel>(tech.bsim_lite);
    const auto alpha_vt = [alpha](double vsb) { return alpha->vt(vsb); };
    const auto alpha_vdsat = [alpha](double vgs, double vbs) {
      return alpha->vdsat(vgs, vbs);
    };
    const auto bsim_vt = [bsim](double vsb) { return bsim->vt(vsb); };
    const auto bsim_vdsat = [bsim](double vgs, double vbs) {
      return bsim->vdsat(vgs, vbs);
    };
    cases.push_back({"alpha " + tech.name, alpha, alpha_vt, alpha_vdsat, true,
                     tech.alpha_power.eps_smooth, tech.alpha_power.phi2f});
    cases.push_back({"bsim " + tech.name, bsim, bsim_vt, bsim_vdsat, false,
                     tech.bsim_lite.eps_smooth, tech.bsim_lite.phi2f});
    // Folded drivers: one ScaledMosfetModel layer of width x m.
    cases.push_back({"scaled alpha " + tech.name,
                     std::make_shared<ScaledMosfetModel>(alpha->clone(), 37.5),
                     alpha_vt, alpha_vdsat, true, tech.alpha_power.eps_smooth,
                     tech.alpha_power.phi2f});
    cases.push_back({"scaled bsim " + tech.name,
                     std::make_shared<ScaledMosfetModel>(bsim->clone(), 37.5),
                     bsim_vt, bsim_vdsat, false, tech.bsim_lite.eps_smooth,
                     tech.bsim_lite.phi2f});
  }
  const AsdmParams asdm{.k = 5e-3, .lambda = 1.3, .vx = 0.6};
  // The ASDM turns on at vgs = vx - (lambda - 1)*vbs = vx + (lambda - 1)*vsb.
  cases.push_back({"asdm", std::make_shared<AsdmModel>(asdm),
                   [asdm](double vsb) { return asdm.vx + (asdm.lambda - 1.0) * vsb; },
                   [](double, double) { return 0.0; }, false, asdm.eps_smooth,
                   0.0});
  return cases;
}

TEST(AnalyticJacobian, MatchesFiniteDifferencesOverTheGrid) {
  // The grid crosses every place the chain rule could go wrong: softplus
  // turn-on (|vgs - vt| up to 10 eps), both sides of vds = vdsat (+-0.1 mV),
  // vds -> 0+, saturation, and forward body bias past the vsb = -phi2f/2
  // clamp. Central differences are only an oracle where the surface is
  // smooth on scales well above h, so two kinds of points are left out:
  //  - within 10 h of a kink (vds = 0, alpha-power's vds = vdsat, the clamp);
  //  - BSIM-lite's blend where vdsat < 5 mV (a few eps above turn-on) and
  //    vds < 3 vdsat. The blend bends over a width ~vdsat there, so the
  //    oracle's truncation, ~10 (h/vdsat)^2, exceeds the tolerance; a
  //    step-halved Richardson estimate agrees with evaluate() to 1e-9.
  const double h = ssnkit::reference::kJacobianStep;
  const double tol = 1e-6;
  for (const JacobianCase& c : jacobian_cases()) {
    SCOPED_TRACE(c.name);
    double worst = 0.0;
    int points = 0;
    for (double vbs : {0.0, -0.3, -0.9, 0.2, 0.6, 1.0}) {
      if (c.phi2f > 0.0 && std::fabs(vbs - 0.5 * c.phi2f) < 10.0 * h) continue;
      std::vector<double> vgs_list = {0.0, 0.3, 0.7, 1.2, 1.8, 3.3};
      for (double k : {-10.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 10.0})
        vgs_list.push_back(c.vt(-vbs) + k * c.eps);
      for (double vgs : vgs_list) {
        const double vdsat = c.vdsat(vgs, vbs);
        std::vector<double> vds_list = {1e-5, 1e-4, 1e-3, 0.05, 0.4, 0.9, 1.8};
        if (vdsat > 0.0) {
          vds_list.push_back(vdsat - 1e-4);
          vds_list.push_back(vdsat + 1e-4);
        }
        for (double vds : vds_list) {
          if (vds < 10.0 * h) continue;
          if (c.vdsat_is_kink ? std::fabs(vds - vdsat) < 10.0 * h
                              : vdsat < 5e-3 && vds < 3.0 * vdsat)
            continue;
          const MosfetEval a = c.model->evaluate(vgs, vds, vbs);
          const MosfetEval fd =
              ssnkit::reference::finite_difference_evaluate(*c.model, vgs, vds, vbs);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a.ids),
                    std::bit_cast<std::uint64_t>(c.model->ids(vgs, vds, vbs)))
              << "vgs " << vgs << " vds " << vds << " vbs " << vbs;
          const double scale =
              std::fabs(a.gm) + std::fabs(a.gds) + std::fabs(a.gmb);
          const double err =
              std::max({std::fabs(a.gm - fd.gm), std::fabs(a.gds - fd.gds),
                        std::fabs(a.gmb - fd.gmb)});
          EXPECT_LE(err, tol * scale)
              << "vgs " << vgs << " vds " << vds << " vbs " << vbs << ": gm "
              << a.gm << "/" << fd.gm << " gds " << a.gds << "/" << fd.gds
              << " gmb " << a.gmb << "/" << fd.gmb;
          if (scale > 0.0) worst = std::max(worst, err / scale);
          ++points;
        }
      }
    }
    EXPECT_GT(points, 500);
    char worst_text[32];
    std::snprintf(worst_text, sizeof worst_text, "%.2e", worst);
    RecordProperty(c.name, worst_text);
  }
}

TEST(AnalyticJacobian, ClampedVdsTakesTheFlatSide) {
  // The models clamp vds at 0 (the element reflects reverse operation
  // before calling them), and at vds <= 0, vds = 0 included, gds is the
  // flat side's 0. A golden device sitting exactly at vds = 0 then carries
  // no current and stamps nothing at all; just above 0 it has its triode
  // conductance.
  for (const JacobianCase& c : jacobian_cases()) {
    SCOPED_TRACE(c.name);
    for (double vds : {-0.2, 0.0}) EXPECT_EQ(c.model->evaluate(1.2, vds, -0.1).gds, 0.0);
    if (c.name == "asdm") continue;  // a pure saturation model: no vds at all
    const MosfetEval at0 = c.model->evaluate(1.2, 0.0, -0.1);
    EXPECT_EQ(at0.ids, 0.0);
    EXPECT_EQ(at0.gm, 0.0);
    EXPECT_EQ(at0.gmb, 0.0);
    EXPECT_GT(c.model->evaluate(1.2, 1e-9, -0.1).gds, 1e-3);
  }
}

}  // namespace
