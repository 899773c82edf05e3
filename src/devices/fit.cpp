#include "devices/fit.hpp"

#include "numeric/least_squares.hpp"
#include "numeric/levenberg_marquardt.hpp"
#include "numeric/matrix.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ssnkit::devices {

using numeric::Matrix;
using numeric::Vector;

namespace {

// fit_asdm keeps samples above this fraction of the region's peak current.
constexpr double kOnCurrentFloor = 0.02;

}  // namespace

void AsdmFitRegion::validate() const {
  if (!(vg_hi > vg_lo)) throw std::invalid_argument("AsdmFitRegion: vg range empty");
  if (!(vs_hi >= vs_lo)) throw std::invalid_argument("AsdmFitRegion: vs range empty");
  if (n_vg < 2 || n_vs < 1)
    throw std::invalid_argument("AsdmFitRegion: need n_vg >= 2 and n_vs >= 1");
}

AsdmFitResult fit_asdm(const MosfetModel& golden, const AsdmFitRegion& region) {
  region.validate();

  // Sample the golden surface over the SSN region: vds = vd - vs,
  // vgs = vg - vs, vbs = -vs (bulk at true ground).
  struct Sample {
    double vg = 0.0, vs = 0.0, id = 0.0;
  };
  std::vector<Sample> samples;
  samples.reserve(std::size_t(region.n_vg) * std::size_t(region.n_vs));
  double id_max = 0.0;
  for (int i = 0; i < region.n_vg; ++i) {
    const double vg = region.vg_lo + (region.vg_hi - region.vg_lo) * double(i) /
                                         double(region.n_vg - 1);
    for (int j = 0; j < region.n_vs; ++j) {
      const double vs =
          region.n_vs == 1
              ? region.vs_lo
              : region.vs_lo + (region.vs_hi - region.vs_lo) * double(j) /
                                   double(region.n_vs - 1);
      const double id = golden.ids(vg - vs, region.vd - vs, -vs);
      samples.push_back({vg, vs, id});
      id_max = std::max(id_max, id);
    }
  }
  if (id_max <= 0.0)
    throw std::runtime_error("fit_asdm: golden device never conducts in region");

  // Keep conducting samples only (the paper's near-threshold exclusion).
  const double floor_current = kOnCurrentFloor * id_max;
  std::erase_if(samples, [&](const Sample& s) { return s.id < floor_current; });
  if (samples.size() < 4)
    throw std::runtime_error("fit_asdm: too few conducting samples in region");

  // Linear model I = a*vg + b*vs + c  ->  K = a, lambda = -b/a, vx = -c/a.
  Matrix design(samples.size(), 3);
  Vector rhs(samples.size());
  for (std::size_t r = 0; r < samples.size(); ++r) {
    design(r, 0) = samples[r].vg;
    design(r, 1) = samples[r].vs;
    design(r, 2) = 1.0;
    rhs[r] = samples[r].id;
  }
  const auto ls = numeric::solve_least_squares(design, rhs);
  const double a = ls.coefficients[0];
  const double b = ls.coefficients[1];
  const double c = ls.coefficients[2];
  if (!(a > 0.0))
    throw std::runtime_error("fit_asdm: non-physical fit (K <= 0); widen the region");

  AsdmFitResult out;
  out.params.k = a;
  out.params.lambda = std::max(1.0, -b / a);
  out.params.vx = -c / a;
  if (!(out.params.vx > 0.0))
    throw std::runtime_error(
        "fit_asdm: non-physical fit (V_x <= 0); the region likely contains no "
        "meaningful conduction");
  out.params.validate();
  out.samples = samples.size();
  out.rms_error = ls.residual_rms;
  for (const Sample& s : samples) {
    const double model = out.params.k * (s.vg - out.params.lambda * s.vs - out.params.vx);
    out.max_abs_error = std::max(out.max_abs_error, std::fabs(model - s.id));
  }
  out.max_rel_error = out.max_abs_error / id_max;
  return out;
}

AlphaPowerFitResult fit_alpha_power(const MosfetModel& golden, double vdd,
                                    const AlphaPowerParams& seed,
                                    int n_samples) {
  if (!(vdd > 0.0)) throw std::invalid_argument("fit_alpha_power: vdd must be > 0");
  if (n_samples < 5) throw std::invalid_argument("fit_alpha_power: need >= 5 samples");

  // Sample the golden saturation curve I(V_G) at V_S = V_B = 0, V_D = vdd,
  // from a little above the seed threshold to vdd.
  const double vg_lo = std::min(seed.vt0 + 0.15, 0.75 * vdd);
  std::vector<double> vgs(n_samples), ids(n_samples);
  double id_max = 0.0;
  for (int i = 0; i < n_samples; ++i) {
    vgs[i] = vg_lo + (vdd - vg_lo) * double(i) / double(n_samples - 1);
    ids[i] = golden.ids(vgs[i], vdd, 0.0);
    id_max = std::max(id_max, ids[i]);
  }
  if (id_max <= 0.0)
    throw std::runtime_error("fit_alpha_power: golden device never conducts");

  // Parameters p = (id0, vt0, alpha); residual in units of id_max.
  const auto residual = [&](const Vector& p, Vector& r) {
    const double id0 = p[0];
    const double vt0 = p[1];
    const double alpha = p[2];
    for (int i = 0; i < n_samples; ++i) {
      const double vgt = std::max(vgs[i] - vt0, 0.0);
      const double model = id0 * std::pow(vgt / (vdd - vt0), alpha);
      r[std::size_t(i)] = (model - ids[i]) / id_max;
    }
  };

  numeric::LmOptions opts;
  opts.lower_bounds = Vector{1e-9, 0.05, 1.0};
  opts.upper_bounds = Vector{1.0, vdd - 0.2, 2.0};
  Vector p0{id_max, seed.vt0, seed.alpha};
  const auto lm = numeric::levenberg_marquardt(residual, p0,
                                               std::size_t(n_samples), opts);

  AlphaPowerFitResult out;
  out.params = seed;
  out.params.vdd = vdd;
  out.params.id0 = lm.parameters[0];
  out.params.vt0 = lm.parameters[1];
  out.params.alpha = lm.parameters[2];
  out.params.validate();
  out.converged = lm.converged;
  out.rms_error = lm.residual_norm / std::sqrt(double(n_samples)) * id_max;
  for (int i = 0; i < n_samples; ++i) {
    const double vgt = std::max(vgs[i] - out.params.vt0, 0.0);
    const double model =
        out.params.id0 * std::pow(vgt / (vdd - out.params.vt0), out.params.alpha);
    out.max_rel_error =
        std::max(out.max_rel_error, std::fabs(model - ids[i]) / id_max);
  }
  return out;
}

}  // namespace ssnkit::devices
