#include "analysis/batch.hpp"

#include "support/faultinject.hpp"
#include "support/parallel.hpp"

#include <stdexcept>
#include <utility>

namespace ssnkit::analysis {

namespace {

/// A completed point in journal form: exactly the fields the replay reads
/// (fidelity, V_max bits, error kind, trust verdict), which is what makes a
/// resumed batch bit-identical to an uninterrupted one.
support::PointRecord encode_point(const PointOutcome& o) {
  support::PointRecord rec;
  rec.fidelity = int(o.fidelity);
  rec.v_bits = support::double_bits(o.v_max);
  rec.error_kind = o.error ? int(o.error->kind()) : -1;
  rec.trust = int(o.trust.verdict);
  return rec;
}

/// Restore a point from its journal record. False when an enum field is out
/// of range (a corrupt or future-version journal that still parsed).
bool decode_point(const support::PointRecord& rec, PointOutcome& o) {
  if (rec.fidelity < 0 || rec.fidelity > int(sim::Fidelity::kFailed))
    return false;
  if (rec.error_kind < -1 ||
      rec.error_kind > int(support::SolverErrorKind::kResidualDegraded))
    return false;
  // -1 = no verdict recorded (a journal older than the trust layer); the
  // point replays as kUnverified, since nothing recorded how it was checked.
  if (rec.trust < -1 || rec.trust > int(verify::Verdict::kDegraded))
    return false;
  o.fidelity = sim::Fidelity(rec.fidelity);
  o.v_max = support::bits_double(rec.v_bits);
  o.trust.verdict = rec.trust >= 0 ? verify::Verdict(rec.trust)
                                   : verify::Verdict::kUnverified;
  if (rec.error_kind >= 0)
    o.error.emplace(support::SolverErrorKind(rec.error_kind),
                    "restored from journal");
  return true;
}

}  // namespace

void BatchSummary::record(const std::string& label, sim::Fidelity fidelity,
                          const std::optional<support::SolverError>& error) {
  ++total;
  ++by_fidelity[sim::to_string(fidelity)];
  switch (fidelity) {
    case sim::Fidelity::kFullDevice: ++full_fidelity; break;
    case sim::Fidelity::kAnalytic: ++analytic; break;
    case sim::Fidelity::kFailed: ++failed; break;
    default: ++recovered; break;
  }
  if (error) ++by_error[support::to_string(error->kind())];
  if (fidelity != sim::Fidelity::kFullDevice) {
    std::string note = label;
    note += ": ";
    note += sim::to_string(fidelity);
    if (error) {
      note += " [";
      note += support::to_string(error->kind());
      note += "]";
    }
    notes.push_back(std::move(note));
  }
}

std::string BatchSummary::to_string() const {
  std::string s = std::to_string(total) + " runs: " +
                  std::to_string(full_fidelity) + " full-fidelity";
  if (recovered > 0) s += ", " + std::to_string(recovered) + " recovered";
  if (analytic > 0) s += ", " + std::to_string(analytic) + " analytic";
  if (failed > 0) s += ", " + std::to_string(failed) + " failed";
  if (not_run > 0) {
    s += ", " + std::to_string(not_run) + " not run (" +
         support::to_string(stop) + ")";
  }
  if (!by_error.empty()) {
    s += "; errors:";
    for (const auto& [kind, count] : by_error)
      s += " " + kind + "=" + std::to_string(count);
  }
  return s;
}

BatchPoint bench_point(const Calibration& cal, const process::Package& package,
                       int n_drivers, double input_rise_time, bool include_c,
                       std::string label) {
  BatchPoint p;
  p.spec.tech = cal.tech;
  p.spec.package = package;
  p.spec.golden = cal.golden;
  p.spec.n_drivers = n_drivers;
  p.spec.input_rise_time = input_rise_time;
  p.spec.include_package_c = include_c;
  p.scenario =
      make_scenario(cal, package, n_drivers, input_rise_time, include_c);
  p.label = std::move(label);
  return p;
}

BatchRun run_batch(const std::vector<BatchPoint>& points,
                   const BatchOptions& opts, bool analytic_fallback) {
  std::vector<PointOutcome> out(points.size());
  support::parallel_for_index(
      opts.threads, points.size(),
      [&](std::size_t i) {
        PointOutcome& o = out[i];
        if (opts.resume != nullptr) {
          const auto it = opts.resume->find(i);
          if (it != opts.resume->end()) {
            if (!decode_point(it->second, o))
              throw std::invalid_argument(
                  "run_batch: journal record for point " + std::to_string(i) +
                  " has out-of-range fields");
            o.state = PointOutcome::State::kResumed;
            if (opts.journal != nullptr) opts.journal->record(i, it->second);
            return;
          }
        }
        if (opts.run_ctx != nullptr && !opts.run_ctx->try_start_item()) return;

        const support::FaultSampleScope fault_scope(i);
        const BatchPoint& p = points[i];
        MeasureOptions mopts;
        mopts.transient = opts.transient;
        // Resolve the ramp whatever the adaptive step controller would do.
        if (mopts.transient.dt_max <= 0.0)
          mopts.transient.dt_max = p.spec.input_rise_time / 200.0;
        mopts.transient.run_ctx = opts.run_ctx;
        ResilientMeasurement rm = measure_ssn(
            p.spec, mopts, analytic_fallback ? &p.scenario : nullptr);
        // An interrupted transient is not a result: the point stays not-run
        // and unjournaled, so a resume re-simulates it from scratch.
        if (rm.error && support::is_stop_kind(rm.error->kind())) return;
        o.state = PointOutcome::State::kRan;
        o.fidelity = rm.fidelity;
        o.v_max = rm.measurement.v_max;
        o.trust = std::move(rm.measurement.trust);
        o.error = std::move(rm.error);
        if (opts.journal != nullptr) opts.journal->record(i, encode_point(o));
      },
      opts.run_ctx);

  BatchRun run;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const PointOutcome& o = out[i];
    if (o.state == PointOutcome::State::kNotRun) {
      ++run.summary.not_run;
      continue;
    }
    if (o.state == PointOutcome::State::kResumed) ++run.resumed;
    run.summary.record(points[i].label, o.fidelity, o.error);
    if (!o.ok()) continue;
    // The first survivor seeds the report (a default one says kUnverified,
    // which merge() could never improve on); the rest merge worst-wins.
    if (survivors++ == 0)
      run.trust = o.trust;
    else
      run.trust.merge(o.trust);
  }
  // Report the stop only when it cost points: a deadline that expires just
  // after the last point finished did not stop anything.
  if (run.summary.not_run > 0 && opts.run_ctx != nullptr)
    run.summary.stop = opts.run_ctx->stop_reason();
  run.points = std::move(out);
  return run;
}

}  // namespace ssnkit::analysis
