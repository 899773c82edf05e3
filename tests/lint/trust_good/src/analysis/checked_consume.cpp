// Fixture: the same consumption patterns as trust_bad, made legitimate —
// each result's status is inspected (or the result is forwarded to code
// that can inspect it) before its values are read. SSN-L013 must stay
// quiet on every site here.

struct Trust {
  int verdict = 0;
};

struct Measurement {
  double v_max = 0.0;
  Trust trust;
};

struct McResult {
  double mean = 0.0;
  double p95 = 0.0;
  int stop = 0;
};

struct TransientResult {
  double final_value = 0.0;
};

struct TransientRun {
  TransientResult result;
  bool ok() const { return true; }
};

Measurement measure_ssn(int spec);
McResult monte_carlo_vmax(int scenario);
TransientRun run_transient_ex(int circuit);
void verify_measurement(Measurement& m);

namespace fixture {

double trust_checked(int spec) {
  const auto m = measure_ssn(spec);
  if (m.trust.verdict > 1) return 0.0;
  return m.v_max;
}

double stop_checked(int scenario) {
  const auto mc = monte_carlo_vmax(scenario);
  if (mc.stop != 0) return 0.0;
  return mc.mean + mc.p95;
}

double forwarded(int spec) {
  // Handing the result to verify_measurement delegates the status check.
  auto m = measure_ssn(spec);
  verify_measurement(m);
  return m.v_max;
}

double transient_checked(int circuit) {
  const auto run = run_transient_ex(circuit);
  if (!run.ok()) return 0.0;
  return run.result.final_value;
}

Measurement returned_whole(int spec) {
  // Returning the producer's result forwards the obligation to the caller.
  return measure_ssn(spec);
}

}  // namespace fixture
