// Parameter extraction: the ASDM least-squares fit (the paper's Fig. 1
// claim) and the alpha-power calibration used by the baselines.
#include "devices/fit.hpp"
#include "process/technology.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit::devices;
using ssnkit::process::GoldenKind;
using ssnkit::process::tech_180nm;
using ssnkit::process::tech_250nm;
using ssnkit::process::tech_350nm;

AsdmFitRegion region_for(double vdd) {
  AsdmFitRegion r;
  r.vd = vdd;
  r.vg_lo = 0.45 * vdd;
  r.vg_hi = vdd;
  r.vs_lo = 0.0;
  r.vs_hi = 0.45 * vdd;
  return r;
}

TEST(FitAsdm, RecoversExactAsdmDevice) {
  // Fitting the fit model itself must reproduce it to rounding error.
  const AsdmParams truth{.k = 6e-3, .lambda = 1.25, .vx = 0.62};
  AsdmModel golden(truth);
  const auto fit = fit_asdm(golden, region_for(1.8));
  EXPECT_NEAR(fit.params.k, truth.k, 1e-9);
  EXPECT_NEAR(fit.params.lambda, truth.lambda, 1e-6);
  EXPECT_NEAR(fit.params.vx, truth.vx, 1e-6);
  EXPECT_LT(fit.rms_error, 1e-12);
}

TEST(FitAsdm, AlphaPowerGoldenFitsWell) {
  // The paper's Fig. 1: the linear model captures the SSN region within a
  // few percent of the peak current.
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kAlphaPower);
  const auto fit = fit_asdm(*golden, region_for(tech.vdd));
  EXPECT_LT(fit.max_rel_error, 0.09);
  EXPECT_GT(fit.samples, 50u);
}

TEST(FitAsdm, LambdaExceedsOneWithBodyEffect) {
  // The body effect of the bouncing source makes lambda > 1 (paper:
  // "always greater than 1 in real processes").
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kAlphaPower);
  const auto fit = fit_asdm(*golden, region_for(tech.vdd));
  EXPECT_GT(fit.params.lambda, 1.05);
  EXPECT_LT(fit.params.lambda, 2.0);
}

TEST(FitAsdm, VxExceedsThreshold) {
  // The paper: V_x (0.61 V) is a fitted displacement, above the true
  // threshold (~0.5 V) because the tangent of a super-linear I(V) curve
  // intercepts the axis beyond V_T.
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kAlphaPower);
  const auto fit = fit_asdm(*golden, region_for(tech.vdd));
  EXPECT_GT(fit.params.vx, tech.alpha_power.vt0);
  EXPECT_LT(fit.params.vx, tech.vdd / 2.0);
}

TEST(FitAsdm, WorksOnBsimLiteGolden) {
  // The extraction is model-agnostic: a structurally different golden
  // surface still fits to a few percent.
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kBsimLite);
  const auto fit = fit_asdm(*golden, region_for(tech.vdd));
  EXPECT_LT(fit.max_rel_error, 0.10);
  EXPECT_GT(fit.params.lambda, 1.0);
}

TEST(FitAsdm, ScalesLinearlyWithWidth) {
  const auto tech = tech_180nm();
  const auto g1 = tech.make_golden(GoldenKind::kAlphaPower, 1.0);
  const auto g2 = tech.make_golden(GoldenKind::kAlphaPower, 2.0);
  const auto f1 = fit_asdm(*g1, region_for(tech.vdd));
  const auto f2 = fit_asdm(*g2, region_for(tech.vdd));
  EXPECT_NEAR(f2.params.k, 2.0 * f1.params.k, 1e-3 * f2.params.k);
  EXPECT_NEAR(f2.params.lambda, f1.params.lambda, 1e-6);
  EXPECT_NEAR(f2.params.vx, f1.params.vx, 1e-6);
}

TEST(FitAsdm, OtherProcessNodes) {
  // The paper reports similar quality for 0.25 um and 0.35 um processes.
  // Larger alpha (longer channel) means more I-V curvature, so the linear
  // fit's worst corner (near the region's low-current edge) grows a little.
  for (const auto& tech : {tech_250nm(), tech_350nm()}) {
    const auto golden = tech.make_golden(GoldenKind::kAlphaPower);
    const auto fit = fit_asdm(*golden, region_for(tech.vdd));
    EXPECT_LT(fit.max_rel_error, 0.13) << tech.name;
    EXPECT_GT(fit.params.lambda, 1.0) << tech.name;
  }
}

TEST(FitAsdm, RegionValidation) {
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kAlphaPower);
  AsdmFitRegion bad = region_for(tech.vdd);
  bad.vg_hi = bad.vg_lo;
  EXPECT_THROW(fit_asdm(*golden, bad), std::invalid_argument);
  AsdmFitRegion few = region_for(tech.vdd);
  few.n_vg = 1;
  EXPECT_THROW(fit_asdm(*golden, few), std::invalid_argument);
}

TEST(FitAsdm, NonConductingRegionThrows) {
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kAlphaPower);
  AsdmFitRegion off;
  off.vd = tech.vdd;
  off.vg_lo = 0.0;
  off.vg_hi = 0.2;  // below threshold everywhere
  off.vs_lo = 0.0;
  off.vs_hi = 0.1;
  EXPECT_THROW(fit_asdm(*golden, off), std::runtime_error);
}

TEST(FitAlphaPower, RecoversOwnParameters) {
  const auto tech = tech_180nm();
  AlphaPowerParams truth = tech.alpha_power;
  truth.gamma = 0.0;        // fit is at vs = 0; body effect not exercised
  truth.lambda_clm = 0.0;   // pure saturation law
  AlphaPowerModel golden(truth);
  const auto fit = fit_alpha_power(golden, tech.vdd, tech.alpha_power);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params.id0, truth.id0, 0.02 * truth.id0);
  EXPECT_NEAR(fit.params.vt0, truth.vt0, 0.05);
  EXPECT_NEAR(fit.params.alpha, truth.alpha, 0.1);
  EXPECT_LT(fit.max_rel_error, 0.02);
}

TEST(FitAlphaPower, FitsBsimLiteSurface) {
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kBsimLite);
  const auto fit = fit_alpha_power(*golden, tech.vdd, tech.alpha_power);
  EXPECT_LT(fit.max_rel_error, 0.05);
  // Velocity saturation pulls alpha well below 2.
  EXPECT_LT(fit.params.alpha, 1.8);
  EXPECT_GE(fit.params.alpha, 1.0);
}

TEST(FitAlphaPower, InputValidation) {
  const auto tech = tech_180nm();
  const auto golden = tech.make_golden(GoldenKind::kAlphaPower);
  EXPECT_THROW(fit_alpha_power(*golden, -1.0, tech.alpha_power),
               std::invalid_argument);
  EXPECT_THROW(fit_alpha_power(*golden, tech.vdd, tech.alpha_power, 3),
               std::invalid_argument);
}

}  // namespace
