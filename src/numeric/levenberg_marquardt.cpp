#include "numeric/levenberg_marquardt.hpp"

#include "numeric/lu.hpp"
#include "support/contracts.hpp"

#include <cmath>
#include <stdexcept>

namespace ssnkit::numeric {

namespace {

constexpr int kMaxIterations = 200;
constexpr double kGradientTol = 1e-10;   // stop when ||J^T r||_inf is below this
constexpr double kStepTol = 1e-12;       // stop when the step is this small
constexpr double kInitialLambda = 1e-3;  // initial damping
constexpr double kFdStep = 1e-6;         // relative finite-difference step for J

void clamp_to_bounds(Vector& p, const LmOptions& opts) {
  if (!opts.lower_bounds.empty())
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = std::max(p[i], opts.lower_bounds[i]);
  if (!opts.upper_bounds.empty())
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = std::min(p[i], opts.upper_bounds[i]);
}

}  // namespace

LmResult levenberg_marquardt(const ResidualFn& residual, Vector p0,
                             std::size_t residual_size, const LmOptions& opts) {
  const std::size_t n = p0.size();
  const std::size_t m = residual_size;
  SSN_REQUIRE(m >= n, "levenberg_marquardt: fewer residuals than parameters");
  SSN_REQUIRE(opts.lower_bounds.empty() || opts.lower_bounds.size() == n,
              "levenberg_marquardt: lower bound size mismatch");
  SSN_REQUIRE(opts.upper_bounds.empty() || opts.upper_bounds.size() == n,
              "levenberg_marquardt: upper bound size mismatch");
  SSN_ASSERT_FINITE(p0);

  LmResult out;
  Vector p = std::move(p0);
  clamp_to_bounds(p, opts);

  Vector r(m), r_trial(m), rp(m);
  residual(p, r);
  double cost = r.dot(r);
  // Fail fast on a poisoned starting point: with a non-finite initial cost
  // every trial comparison below is false, the damping loop runs dry, and
  // the fit would exit with converged=true while p never moved.
  SSN_REQUIRE(std::isfinite(cost),
              "levenberg_marquardt: residual is non-finite at the initial "
              "parameters (NaN/Inf cost)");
  double lambda = kInitialLambda;
  Matrix jac(m, n);

  for (out.iterations = 0; out.iterations < kMaxIterations; ++out.iterations) {
    // Forward-difference Jacobian.
    for (std::size_t j = 0; j < n; ++j) {
      const double h = kFdStep * std::max(std::fabs(p[j]), 1e-8);
      Vector pj = p;
      pj[j] += h;
      clamp_to_bounds(pj, opts);
      const double hj = pj[j] - p[j];
      if (hj == 0.0) {  // pinned at a bound: step downward instead  ssnlint-ignore(SSN-L001)
        pj = p;
        pj[j] -= h;
        clamp_to_bounds(pj, opts);
      }
      const double dh = pj[j] - p[j];
      residual(pj, rp);
      const double inv = dh != 0.0 ? 1.0 / dh : 0.0;  // ssnlint-ignore(SSN-L001)
      for (std::size_t i = 0; i < m; ++i) jac(i, j) = (rp[i] - r[i]) * inv;
    }

    // Normal equations: (J^T J + lambda diag(J^T J)) dp = -J^T r.
    // n is the (tiny, fixed) parameter count of a device fit, not a circuit
    // size; a per-iteration dense build is the right tool here.
    Matrix jtj(n, n);  // ssnlint-ignore(SSN-L008)
    Vector jtr(n);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a; b < n; ++b) {
        double s = 0.0;
        for (std::size_t i = 0; i < m; ++i) s += jac(i, a) * jac(i, b);
        jtj(a, b) = s;
        jtj(b, a) = s;
      }
      double s = 0.0;
      for (std::size_t i = 0; i < m; ++i) s += jac(i, a) * r[i];
      jtr[a] = s;
    }

    double grad_inf = 0.0;
    for (std::size_t a = 0; a < n; ++a) grad_inf = std::max(grad_inf, std::fabs(jtr[a]));
    if (grad_inf < kGradientTol) {
      out.converged = true;
      break;
    }

    bool improved = false;
    for (int tries = 0; tries < 30 && !improved; ++tries) {
      Matrix damped = jtj;
      for (std::size_t a = 0; a < n; ++a)
        damped(a, a) += lambda * std::max(jtj(a, a), 1e-30);
      LuFactorization lu(std::move(damped));
      if (lu.singular()) {
        lambda *= 10.0;
        continue;
      }
      Vector neg_jtr(n);
      for (std::size_t a = 0; a < n; ++a) neg_jtr[a] = -jtr[a];
      Vector dp = lu.solve(neg_jtr);

      Vector p_trial = p + dp;
      clamp_to_bounds(p_trial, opts);
      residual(p_trial, r_trial);
      const double cost_trial = r_trial.dot(r_trial);
      if (std::isfinite(cost_trial) && cost_trial < cost) {
        const double step_norm = dp.norm_inf();
        p = p_trial;
        r = r_trial;
        cost = cost_trial;
        SSN_ASSERT_FINITE(cost);
        lambda = std::max(lambda * 0.3, 1e-14);
        improved = true;
        if (step_norm < kStepTol) {
          out.converged = true;
          out.iterations++;
          goto done;
        }
      } else {
        lambda *= 10.0;
      }
    }
    if (!improved) {
      out.converged = true;  // stuck: local minimum within damping budget
      break;
    }
  }
done:
  out.parameters = std::move(p);
  out.residual_norm = std::sqrt(cost);
  SSN_ENSURE(std::isfinite(out.residual_norm),
             "levenberg_marquardt: non-finite residual norm at exit");
  SSN_ASSERT_FINITE(out.parameters);
  return out;
}

}  // namespace ssnkit::numeric
