#include "selftest.hpp"

#include "gen.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <set>
#include <string>

namespace ssnbench {

namespace {

struct Checks {
  std::ostream& os;
  int failed = 0;

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    os << "self-test FAILED: " << what << "\n";
  }
  void near(double got, double want, const std::string& what) {
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + " (got " + std::to_string(got) + ", want " +
               std::to_string(want) + ")");
  }
};

void percentile_rule(Checks& c) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  c.near(percentile(v, 0.99), 990, "p99 of 1..1000");
  c.near(percentile(v, 0.50), 500, "p50 of 1..1000");
  c.expect(samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  c.expect(percentile_supported(1000, 0.99), "p99 reportable at n=1000");
  c.expect(!percentile_supported(999, 0.99), "p99 not reportable at n=999");
  c.expect(percentile_supported(100, 0.90), "p90 reportable at n=100");
  c.near(median({3, 1, 2}), 2, "odd median");
  c.near(median({4, 1, 3, 2}), 2.5, "even median");
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const Quartiles q = quartiles(ten);
  c.near(q.q1, 2.75, "q1 of 1..10");
  c.near(q.q2, 5.5, "q2 of 1..10");
  c.near(q.q3, 8.25, "q3 of 1..10");
  c.near(relative_iqr(ten), 1.0, "relative IQR of 1..10");
  c.near(quartiles({1, 2}).q1, 0.75, "q1 of [1, 2] (exclusive method)");
}

void span_self_time(Checks& c) {
  const auto span = [](const char* name, long long b, long long e, int parent) {
    Span s;
    s.name = name;
    s.start_ns = b;
    s.end_ns = e;
    s.parent = parent;
    s.item = 0;
    return s;
  };
  // item [0,100] > a.x [10,30], b.y [40,90] > c.z [50,60], d.w [55,70]
  const std::vector<Span> spans = {
      span("item", 0, 100, -1), span("a.x", 10, 30, 0), span("b.y", 40, 90, 0),
      span("c.z", 50, 60, 2), span("serve.execute.sim", 55, 70, 2)};
  const std::vector<std::int64_t> self = self_times(spans);
  c.expect(self[0] == 30, "root self time excludes both children");
  c.expect(self[1] == 20, "leaf self time is its duration");
  c.expect(self[2] == 30, "overlapping grandchildren counted once");
  c.expect(self[3] == 10 && self[4] == 15, "grandchild self times");
  const auto layers = self_ns_by_layer(spans);
  c.expect(layers.count("item") == 0, "root item spans are not a layer");
  c.near(layers.at("serve.execute"), 15, "layer is the first two name parts");
  c.near(layers.at("b.y"), 30, "layer self time");

  Tracer on(true);
  const int outer = on.begin("item", 7);
  { const Scope inner(on, "x.y", 7); }
  on.end(outer);
  c.expect(on.spans().size() == 2 && on.spans()[1].parent == 0 &&
               on.spans()[0].parent == -1 && on.spans()[1].item == 7,
           "tracer nests spans under the open one");
  c.expect(on.spans()[1].start_ns >= on.spans()[0].start_ns &&
               on.spans()[1].end_ns <= on.spans()[0].end_ns,
           "child span lies inside its parent");
  Tracer off(false);
  c.expect(off.begin("item", 1) == -1 && off.spans().empty(),
           "a disabled tracer records nothing");
}

void bound_comparator(Checks& c) {
  const std::vector<double> steady = {100, 101, 99, 100, 102,
                                      98,  100, 101, 99, 100};
  const auto scaled = [&](double f) {
    std::vector<double> v;
    for (const double x : steady) v.push_back(x * f);
    return v;
  };
  c.expect(judge(steady, steady, 0.1, false) == Verdict::kWithin,
           "identical runs are within");
  c.expect(judge(steady, scaled(1.2), 0.1, false) == Verdict::kWorse,
           "20% slower is worse at a 10% bound");
  c.expect(judge(steady, scaled(1.05), 0.1, false) == Verdict::kWithin,
           "5% slower is within a 10% bound");
  c.expect(judge(steady, scaled(0.8), 0.1, false) == Verdict::kBetter,
           "20% faster in every pair is better");
  c.expect(judge(steady, scaled(1.2), 0.1, true) == Verdict::kBetter,
           "20% higher is better when higher is better");
  c.expect(judge(steady, scaled(0.8), 0.1, true) == Verdict::kWorse,
           "20% lower is worse when higher is better");
  const std::vector<double> noisy = {100, 150, 60, 130, 70,
                                     120, 80,  140, 90, 110};
  std::vector<double> noisy_change;
  for (const double x : noisy) noisy_change.push_back(x * 1.05);
  c.expect(judge(noisy, noisy_change, 0.1, false) == Verdict::kUnresolved,
           "a spread wider than the bound is unresolved");
  c.expect(judge(noisy, std::vector<double>(10, 10.0), 0.1, false) ==
               Verdict::kBetter,
           "every run better than every parent run resolves a wide spread");
  c.expect(judge(noisy, std::vector<double>(10, 500.0), 0.1, false) ==
               Verdict::kWorse,
           "every run worse than every parent run resolves a wide spread");
  c.expect(judge(steady, noisy, 0.1, false) == Verdict::kUnresolved,
           "a change whose own spread is wider than the bound is unresolved");
}

void hit_ratio_math(Checks& c) {
  c.near(hit_ratio(50, 100), 0.5, "hit ratio");
  c.near(hit_ratio(1, 0), 0.0, "hit ratio of nothing");
  c.expect(hit_ratio_matches(0.54, 0.5), "0.54 matches a 0.5 share");
  c.expect(!hit_ratio_matches(0.56, 0.5), "0.56 does not match a 0.5 share");
  c.expect(!hit_ratio_matches(0.976, 0.5),
           "a generator that folds fresh configs onto old ones is caught");

  // Generator honesty: the realised repeat share matches the configured
  // one, fresh configs are never accidental repeats, and a seed fixes the
  // stream.
  const ServeParams p{/*mc_share=*/0.15, /*sim_share=*/0.25,
                      /*repeat_share=*/0.5};
  RequestStream a(p, 42), b(p, 42);
  long repeats = 0;
  std::set<std::string> fresh_bodies;
  bool same = true;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Request ra = a.next();
    same = same && ra.line == b.next().line;
    if (ra.repeat) {
      ++repeats;
    } else {
      const std::string body = ra.line.substr(ra.line.find(",\"cmd\""));
      c.expect(fresh_bodies.insert(body).second,
               "fresh request " + std::to_string(i) + " repeats a config");
    }
  }
  c.expect(same, "one seed gives one request stream");
  c.expect(hit_ratio_matches(double(repeats) / n, 0.5, 0.01),
           "realised repeat share within 0.01 of 0.5");
}

void reference_tolerance(Checks& c) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  c.expect(matches_reference(1.0009, 1.0), "0.09% deviation passes 1e-3");
  c.expect(!matches_reference(1.0011, 1.0), "0.11% deviation fails 1e-3");
  c.expect(!matches_reference(nan, 1.0), "NaN output fails");
  c.expect(!matches_reference(1.0, nan), "NaN reference fails");
  c.expect(matches_reference(0.0, 0.0), "zero matches a zero reference");
  c.near(relative_deviation(2.0, 1.0), 1.0, "relative deviation");
  c.near(relative_deviation(-0.5, -1.0), 0.5, "deviation from a negative");
}

}  // namespace

bool run_self_test(std::ostream& os) {
  Checks c{os};
  percentile_rule(c);
  span_self_time(c);
  bound_comparator(c);
  hit_ratio_math(c);
  reference_tolerance(c);
  return c.failed == 0;
}

}  // namespace ssnbench
