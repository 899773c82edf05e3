// Spans for the traced run. The benchmark records them from its own code,
// around each call into a layer of the program (layers.cpp), so they are
// outside-in only: a span ends where the called function returns and sees
// nothing inside it. Spans are kept in memory and written out at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ssnbench {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

inline std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

struct Span {
  const char* name = "";  ///< static string: "<layer>.<function>" or "item"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  long item = -1;         ///< workload item the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Open a span under the innermost open one; returns its index, or -1
  /// when tracing is off (then the call costs one branch).
  int begin(const char* name, long item);
  void end(int span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, long item)
      : tracer_(tracer), span_(tracer.begin(name, item)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Total self time per layer, where a span's layer is the first two
/// dot-separated parts of its name ("serve.execute.sim" -> "serve.execute").
/// Root "item" spans are the benchmark's own glue and are left out.
std::map<std::string, double> self_ns_by_layer(const std::vector<Span>& spans);

/// Write the spans as {"workload":...,"spans":[{name,item,start_ns,end_ns,
/// parent,self_ns},...]} with times relative to the first span.
void write_trace_file(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans);

}  // namespace ssnbench
