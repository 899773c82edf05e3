#include "trace.hpp"

#include "json.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace ssnbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(const char* name, long item) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_;
  s.item = item;
  spans_.push_back(s);
  open_ = int(spans_.size()) - 1;
  // Read the clock last, so the bookkeeping above is not charged to the
  // span.
  spans_.back().start_ns = now_ns();
  return open_;
}

void Tracer::end(int span) {
  if (span < 0) return;
  Span& s = spans_[std::size_t(span)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[std::size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union so far
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end_ns));
    }
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::map<std::string, double> self_ns_by_layer(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "item") continue;
    const std::size_t first = name.find('.');
    const std::size_t second =
        first == std::string::npos ? first : name.find('.', first + 1);
    out[name.substr(0, second)] += double(self[i]);
  }
  return out;
}

void write_trace_file(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::vector<std::int64_t> self = self_times(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  os << "{\"workload\":" << json_str(workload) << ",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_str(s.name)
       << ",\"item\":" << s.item << ",\"start_ns\":" << s.start_ns - t0
       << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
       << ",\"self_ns\":" << self[i] << "}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace ssnbench
