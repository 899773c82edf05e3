// Fixture: results consumed blind. Both shapes of SSN-L013 must fire —
// the chained temporary (the result object dies before anything could
// inspect it) and the named result whose only uses read value members.

struct Measurement {
  double v_max = 0.0;
  double t_at_max = 0.0;
};

struct McResult {
  double mean = 0.0;
  double p95 = 0.0;
};

struct TransientResult {
  double final_value = 0.0;
};

struct TransientRun {
  TransientResult result;
};

Measurement measure_ssn(int spec);
McResult monte_carlo_vmax(int scenario);
TransientRun run_transient_ex(int circuit);

namespace fixture {

double chained_temporary(int spec) {
  // (a) reading v_max straight off the temporary: nothing can ever check
  // the verdict this measurement earned.
  return measure_ssn(spec).v_max;
}

double named_but_blind(int scenario) {
  // (b) mc's only uses are .mean/.p95; .stop and .trust are never looked
  // at, so a cancelled or degraded batch reads like a good one.
  const auto mc = monte_carlo_vmax(scenario);
  const double headline = mc.mean;
  return headline + mc.p95;
}

double chained_transient(int circuit) {
  // (a) on the transient entry: a failed run still returns its partial
  // waveform, so reading .result blind mistakes a prefix for a full run.
  return run_transient_ex(circuit).result.final_value;
}

}  // namespace fixture
