// ssnbench: the end-to-end and per-layer benchmark of ssnkit.
//
//   ssnbench [--workload W|all] [--seed S] [--seconds T] [--trace [0|1]]
//            [--repeat K] [--write-reference]
//   ssnbench compare A.json B.json
//   ssnbench compare A1.json A2.json ... -- B1.json B2.json ...
//   ssnbench --self-test
//   ssnbench cli <ssnkit argv...>      (the system under test)
//
// Run from the root of a checkout (ssnbench/run.sh does); see
// ssnbench/README.md.
#include "json.hpp"
#include "layers.hpp"
#include "proc.hpp"
#include "selftest.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <sys/stat.h>

using namespace ssnbench;

namespace {

const char* const kSpec = "ssnbench/spec.json";
const char* const kBenchmark = "BENCHMARK.json";
const char* const kOutDir = "ssnbench/out";
const char* const kRefDir = "ssnbench/reference";
/// A workload still running this long after it started fails: its child
/// is killed.
constexpr double kRunLimitS = 170.0;

struct Options {
  std::string workload = "all";
  long seed = -1;
  double seconds = -1;
  bool trace = false;
  int repeat = 1;
  bool write_reference = false;
};

[[noreturn]] void usage() {
  std::cerr << "usage: ssnbench [--workload W|all] [--seed S] [--seconds T]\n"
               "                [--trace [0|1]] [--repeat K] "
               "[--write-reference]\n"
               "       ssnbench compare A.json B.json\n"
               "       ssnbench compare A1.json ... -- B1.json ...\n"
               "       ssnbench --self-test\n";
  std::exit(2);
}

long to_long(const std::string& s) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') usage();
  return v;
}

Options parse(const std::vector<std::string>& args) {
  Options o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage();
      return args[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = to_long(value());
    else if (a == "--seconds") o.seconds = double(to_long(value()));
    else if (a == "--repeat") o.repeat = int(to_long(value()));
    else if (a == "--write-reference") o.write_reference = true;
    else if (a == "--trace") {
      o.trace = true;
      if (i + 1 < args.size() && (args[i + 1] == "0" || args[i + 1] == "1"))
        o.trace = args[++i] == "1";
    } else {
      usage();
    }
  }
  if (o.repeat < 1 || o.seconds == 0) usage();
  return o;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string reference_path(long seed) {
  return std::string(kRefDir) + "/seed" + std::to_string(seed) + ".json";
}

/// The seed's committed reference, or an empty document when it has none.
Json read_reference(long seed) {
  const std::string path = reference_path(seed);
  return std::ifstream(path) ? read_json_file(path) : Json{};
}

/// One workload's committed values in a reference document (may be empty).
std::vector<double> committed(const Json& reference, const std::string& name) {
  std::vector<double> out;
  if (reference.has("workloads") && reference.at("workloads").has(name))
    for (const Json& v : reference.at("workloads").at(name).array)
      out.push_back(v.number);
  return out;
}

std::vector<std::string> contract_names(const Json& benchmark, bool trace) {
  std::vector<std::string> names;
  for (const Json& m : benchmark.at(trace ? "per_layer" : "end_to_end").array)
    names.push_back(m.str("name"));
  return names;
}

/// The last stdout line the benchmark contract asks for.
std::string contract_line(const RunReport& r,
                          const std::vector<std::string>& names) {
  std::string s = "{\"correct\":" + std::string(r.correct ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = r.find(name);
    if (m == nullptr) continue;
    s += (first ? "" : ",") + json_str(name) + ":{\"value\":" +
         json_num(m->value) + ",\"unit\":" + json_str(m->unit) + "}";
    first = false;
  }
  return s + "}}";
}

std::string run_json(const RunReport& r, int repeat) {
  std::string s = "{\"workload\":" + json_str(r.workload) +
                  ",\"repeat\":" + std::to_string(repeat) +
                  ",\"trace\":" + (r.trace ? "true" : "false") +
                  ",\"correct\":" + (r.correct ? "true" : "false") +
                  ",\"valid\":" + (r.invalid.empty() ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) + ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    s += (i ? "," : "") + json_str(r.problems[i]);
  s += "],\"invalid\":[";
  for (std::size_t i = 0; i < r.invalid.size(); ++i)
    s += (i ? "," : "") + json_str(r.invalid[i]);
  s += "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += std::string(i ? "," : "") + "\n    " + json_str(m.name) +
         ":{\"value\":" + json_num(m.value) + ",\"unit\":" + json_str(m.unit) +
         ",\"n\":" + std::to_string(m.n) + "}";
  }
  return s + "}}";
}

int run(const Options& opt) {
  const Json spec = read_json_file(kSpec);
  const Json benchmark = read_json_file(kBenchmark);
  ::mkdir(kOutDir, 0755);

  std::vector<std::string> workloads;
  for (const auto& [name, w] : spec.at("workloads").object) {
    (void)w;
    if (opt.workload == "all" || opt.workload == name) workloads.push_back(name);
  }
  if (workloads.empty()) {
    std::cerr << "ssnbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  RunContext ctx;
  ctx.spec = &spec;
  ctx.out_dir = kOutDir;
  ctx.seed = std::uint64_t(opt.seed >= 0 ? opt.seed
                                         : long(spec.at("seeds").num("dev")));
  ctx.seconds = opt.seconds > 0 ? opt.seconds : benchmark.num("run_seconds");
  const Json reference = read_reference(long(ctx.seed));

  if (opt.write_reference) {
    // Recompute the selected workloads; keep the others' committed values.
    std::string s = "{\"seed\":" + std::to_string(ctx.seed) + ",\"workloads\":{";
    bool first = true;
    for (const auto& [name, w] : spec.at("workloads").object) {
      (void)w;
      std::vector<double> values = committed(reference, name);
      if (std::find(workloads.begin(), workloads.end(), name) !=
          workloads.end()) {
        set_hard_deadline_ns(now_ns() + to_ns(kRunLimitS));
        values = reference_values(ctx, name);
      }
      if (values.empty()) continue;
      s += std::string(first ? "" : ",") + "\n  " + json_str(name) + ":[";
      for (std::size_t i = 0; i < values.size(); ++i)
        s += (i ? "," : "") + json_num(values[i]);
      s += "]";
      first = false;
    }
    const std::string path = reference_path(long(ctx.seed));
    write_file(path, s + "\n}}\n");
    std::cout << "wrote " << path << "\n";
    return 0;
  }

  const std::vector<std::string> names = contract_names(benchmark, opt.trace);
  std::string results = "{\"seed\":" + std::to_string(ctx.seed) +
                        ",\"seconds\":" + json_num(ctx.seconds) +
                        ",\"trace\":" + (opt.trace ? "true" : "false") +
                        ",\"runs\":[";
  bool all_correct = true;
  int runs = 0;
  for (int k = 0; k < opt.repeat; ++k) {
    for (const std::string& name : workloads) {
      ctx.reference = committed(reference, name);
      set_hard_deadline_ns(now_ns() + to_ns(kRunLimitS));
      std::cout << "== " << name << " seed " << ctx.seed
                << (opt.trace ? " traced" : "") << " run " << k + 1 << "/"
                << opt.repeat
                << (ctx.reference.empty() ? " (no committed reference)" : "")
                << "\n";
      RunReport r;
      try {
        r = run_workload(ctx, name, opt.trace);
      } catch (const std::exception& e) {
        r.workload = name;
        r.trace = opt.trace;
        r.problem(e.what());
      }
      for (const std::string& m : names)
        if (r.find(m) == nullptr) r.problem("metric " + m + " was not measured");
      for (const Metric& m : r.metrics)
        std::cout << name << " " << m.name << " " << fmt(m.value) << " "
                  << m.unit << " n=" << m.n << "\n";
      for (const std::string& p : r.problems)
        std::cerr << "ssnbench: " << name << ": " << p << "\n";
      for (const std::string& why : r.invalid) {
        std::cerr << "ssnbench: " << name << ": invalid run: " << why << "\n";
        std::cout << name << " invalid: " << why << "\n";
      }
      all_correct = all_correct && r.correct;
      results += std::string(runs++ ? "," : "") + "\n  " + run_json(r, k);
      write_file(std::string(kOutDir) + "/results.json", results + "\n]}\n");
      std::cout << contract_line(r, names) << std::endl;
    }
  }
  return all_correct ? 0 : 1;
}

// --- compare -------------------------------------------------------------------

struct Bound {
  double bound = -1;  ///< < 0: no bound (a per-layer metric)
  bool higher = false;
};

/// The gated end-to-end metrics' bounds, and the direction of every
/// contract metric.
std::map<std::string, Bound> bounds() {
  std::map<std::string, Bound> out;
  const Json benchmark = read_json_file(kBenchmark);
  for (const char* list : {"end_to_end", "per_layer"})
    for (const Json& m : benchmark.at(list).array)
      out[m.str("name")] = Bound{m.has("bound") ? m.num("bound") : -1.0,
                                 m.str("better") == "higher"};
  return out;
}

/// workload -> the metrics of each of its runs, in file order; a run that
/// is invalid or incorrect keeps its place with no metrics, so run i of
/// one side still pairs with run i of the other.
using RunSeries =
    std::map<std::string, std::vector<std::map<std::string, double>>>;

RunSeries collect(const std::vector<std::string>& paths,
                  std::map<std::string, std::vector<std::string>>& order) {
  RunSeries out;
  for (const std::string& path : paths) {
    const Json doc = read_json_file(path);
    for (const Json& run : doc.at("runs").array) {
      const std::string& workload = run.str("workload");
      std::map<std::string, double>& values = out[workload].emplace_back();
      if (!run.at("valid").boolean || !run.at("correct").boolean) continue;
      std::vector<std::string>& names = order[workload];
      for (const auto& [name, m] : run.at("metrics").object) {
        if (std::find(names.begin(), names.end(), name) == names.end())
          names.push_back(name);
        values[name] = m.num("value");
      }
    }
  }
  return out;
}

/// Each side is one or more results.json files. Run i of A pairs with run
/// i of B, so A's files and B's files should come from runs that
/// alternated between the two sides.
int compare(const std::vector<std::string>& a_paths,
            const std::vector<std::string>& b_paths) {
  const std::map<std::string, Bound> bound = bounds();
  std::map<std::string, std::vector<std::string>> order;
  const RunSeries sa = collect(a_paths, order);
  const RunSeries sb = collect(b_paths, order);
  std::printf("%-20s %-30s %26s %26s %8s %5s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "delta", "pairs",
              "verdict");
  for (const auto& [workload, names] : order) {
    if (!sa.count(workload) || !sb.count(workload)) continue;
    const auto& ra = sa.at(workload);
    const auto& rb = sb.at(workload);
    for (const std::string& name : names) {
      // Only pairs in which both runs measured the metric.
      std::vector<double> va, vb;
      for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
        const auto ia = ra[i].find(name);
        const auto ib = rb[i].find(name);
        if (ia == ra[i].end() || ib == rb[i].end()) continue;
        va.push_back(ia->second);
        vb.push_back(ib->second);
      }
      if (va.empty()) continue;
      const Quartiles qa = quartiles(va);
      const Quartiles qb = quartiles(vb);
      const double ma = median(va), mb = median(vb);
      const auto it = bound.find(name);
      std::string verdict = "no bound";
      if (it != bound.end() && it->second.bound >= 0)
        verdict = to_string(judge(va, vb, it->second.bound, it->second.higher));
      const std::string delta =
          ma != 0.0 ? fmt(100.0 * (mb - ma) / std::fabs(ma)) + "%" : "-";
      std::printf("%-20s %-30s %10s [%6s, %6s] %10s [%6s, %6s] %8s %5zu  %s\n",
                  workload.c_str(), name.c_str(), fmt(ma).c_str(),
                  fmt(qa.q1).c_str(), fmt(qa.q3).c_str(), fmt(mb).c_str(),
                  fmt(qb.q1).c_str(), fmt(qb.q3).c_str(), delta.c_str(),
                  va.size(), verdict.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "cli")
    return layers::cli_main({args.begin() + 1, args.end()});
  try {
    if (!args.empty() && args[0] == "--self-test") {
      const bool ok = run_self_test(std::cerr);
      std::cerr << "ssnbench self-test " << (ok ? "passed" : "FAILED") << "\n";
      return ok ? 0 : 1;
    }
    if (!args.empty() && args[0] == "compare") {
      const auto sep = std::find(args.begin() + 1, args.end(), "--");
      std::vector<std::string> a(args.begin() + 1, sep), b;
      if (sep != args.end()) {
        b.assign(sep + 1, args.end());
      } else if (a.size() == 2) {
        b = {a[1]};
        a.pop_back();
      }
      if (a.empty() || b.empty()) usage();
      return compare(a, b);
    }
    return run(parse(args));
  } catch (const std::exception& e) {
    std::cerr << "ssnbench: " << e.what() << "\n";
    return 1;
  }
}
