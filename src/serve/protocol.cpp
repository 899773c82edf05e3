#include "serve/protocol.hpp"

#include "process/package.hpp"
#include "process/technology.hpp"
#include "support/journal.hpp"

#include <cmath>
#include <utility>
#include <vector>

namespace ssnkit::serve {

namespace {

// SSN-E064 retry hint: jittered per id into [0.5, 1.5) of this base.
constexpr double kRetryAfterMs = 50.0;
// Mixed into the per-id retry jitter (jittered_retry_after_ms).
constexpr unsigned kRetryJitterSeed = 1;

/// Field-level validation helper: accumulates the first error and stops
/// looking at further fields (one precise message beats a wall of them on a
/// one-line protocol).
class Validator {
 public:
  explicit Validator(const JsonValue& object) : object_(object) {}

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  void fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }

  /// Mark `key` as known; returns its value or nullptr.
  const JsonValue* known(const std::string& key) {
    seen_.push_back(key);
    return object_.find(key);
  }

  void string_field(const std::string& key, std::string& out) {
    const JsonValue* v = known(key);
    if (v == nullptr || failed()) return;
    if (v->kind != JsonValue::Kind::kString)
      return fail("field '" + key + "' must be a string");
    out = v->string;
  }

  void bool_field(const std::string& key, bool& out) {
    const JsonValue* v = known(key);
    if (v == nullptr || failed()) return;
    if (v->kind != JsonValue::Kind::kBool)
      return fail("field '" + key + "' must be true or false");
    out = v->boolean;
  }

  void int_field(const std::string& key, int& out, int lo, int hi) {
    const JsonValue* v = known(key);
    if (v == nullptr || failed()) return;
    if (v->kind != JsonValue::Kind::kNumber)
      return fail("field '" + key + "' must be a number");
    const double d = v->number;
    if (d != std::floor(d))
      return fail("field '" + key + "' must be an integer");
    if (d < double(lo) || d > double(hi))
      return fail("field '" + key + "' must be in [" + std::to_string(lo) +
                  ", " + std::to_string(hi) + "]");
    out = int(d);
  }

  void double_field(const std::string& key, double& out, double lo,
                    double hi) {
    const JsonValue* v = known(key);
    if (v == nullptr || failed()) return;
    if (v->kind != JsonValue::Kind::kNumber)
      return fail("field '" + key + "' must be a number");
    if (!(v->number >= lo && v->number <= hi))
      return fail("field '" + key + "' out of range");
    out = v->number;
  }

  /// After all fields were declared: reject any member not in `seen_`.
  void reject_unknown() {
    for (const auto& [name, value] : object_.members) {
      (void)value;
      bool found = false;
      for (const auto& s : seen_)
        if (s == name) {
          found = true;
          break;
        }
      if (!found) return fail("unknown field '" + name + "'");
    }
  }

 private:
  const JsonValue& object_;
  std::vector<std::string> seen_;
  std::string error_;
};

}  // namespace

RequestParse parse_request(const std::string& line) {
  RequestParse out;
  const JsonParse parsed = parse_json(line);
  if (!parsed.ok) {
    out.error = "bad JSON at byte " + std::to_string(parsed.offset) + ": " +
                parsed.error;
    return out;
  }
  if (!parsed.value.is_object()) {
    out.error = "request must be a JSON object";
    return out;
  }

  Validator v(parsed.value);
  ServeRequest& req = out.request;
  v.string_field("id", req.id);
  out.id = req.id;  // recoverable even if a later field fails
  v.string_field("cmd", req.cmd);
  v.string_field("tech", req.tech);
  v.string_field("golden", req.golden);
  v.string_field("package", req.package);
  v.int_field("pads", req.pads, 1, 64);
  v.double_field("l", req.inductance, 1e-15, 1e-3);
  v.double_field("c", req.capacitance, 0.0, 1e-6);
  v.int_field("n", req.n_drivers, 1, 256);
  v.double_field("tr", req.rise_time, 1e-15, 1e-6);
  v.bool_field("include_c", req.include_c);
  v.bool_field("sim", req.sim);
  v.int_field("samples", req.samples, 1, 200000);
  v.int_field("seed", req.seed, 0, kMaxSeed);
  v.int_field("max_n", req.max_n, 1, 64);
  v.double_field("deadline", req.deadline_s, 0.0, kMaxDeadlineS);
  v.reject_unknown();

  if (!v.failed()) {
    if (req.cmd != "estimate" && req.cmd != "mc" && req.cmd != "sweep-n")
      v.fail(req.cmd.empty()
                 ? std::string("missing 'cmd'")
                 : "unknown command '" + req.cmd +
                       "' (expected estimate, mc, or sweep-n)");
  }
  if (!v.failed() && req.golden != "alpha" && req.golden != "bsim")
    v.fail("field 'golden' must be 'alpha' or 'bsim'");
  if (!v.failed()) {
    // Resolve the names now so a typo is an admission-time SSN-E063, not a
    // worker-side SSN-E065 dressed up as a solver failure.
    try {
      (void)process::technology_by_name(req.tech);
      (void)process::package_by_name(req.package);
    } catch (const std::invalid_argument& e) {
      v.fail(e.what());
    }
  }
  if (v.failed()) {
    out.error = v.error();
    return out;
  }
  out.ok = true;
  return out;
}

std::string cache_key_string(const ServeRequest& r) {
  // Doubles enter as exact bit patterns (same convention as the journal's
  // batch_config_hash): "the same request" means the same IEEE values.
  // v2: simulated results come from the folded testbench, whose V_max bits
  // differ from v1's per-driver circuit. v3: the MOSFETs stamp analytic
  // Jacobians, which changes Newton's path and so v2's last digits. v4: the
  // sparse LU eliminates columns in a minimum-degree order, which rounds
  // v3's last bits differently. Spill entries under an older prefix never
  // hit.
  std::string s = "serve-v4|";
  s += r.cmd;
  s += '|';
  s += r.tech;
  s += '|';
  s += r.golden;
  s += '|';
  s += r.package;
  s += '|';
  s += std::to_string(r.pads);
  s += '|';
  s += support::hex_u64(support::double_bits(r.inductance));
  s += '|';
  s += support::hex_u64(support::double_bits(r.capacitance));
  s += '|';
  s += std::to_string(r.n_drivers);
  s += '|';
  s += support::hex_u64(support::double_bits(r.rise_time));
  s += '|';
  s += r.include_c ? 'c' : '-';
  s += r.sim ? 's' : '-';
  s += '|';
  s += std::to_string(r.samples);
  s += '|';
  s += std::to_string(r.seed);
  s += '|';
  s += std::to_string(r.max_n);
  return s;
}

std::uint64_t cache_key(const ServeRequest& request) {
  return support::fnv1a(cache_key_string(request));
}

std::string render_request(const ServeRequest& r) {
  std::string out = "{\"id\":\"" + json_escape(r.id) + "\"";
  out += ",\"cmd\":\"" + json_escape(r.cmd) + "\"";
  out += ",\"tech\":\"" + json_escape(r.tech) + "\"";
  out += ",\"golden\":\"" + json_escape(r.golden) + "\"";
  out += ",\"package\":\"" + json_escape(r.package) + "\"";
  out += ",\"pads\":" + std::to_string(r.pads);
  // The l/c overrides default to -1 ("use the package value"), which is
  // outside their wire ranges — omit them so the parse-side defaults apply.
  if (r.inductance >= 0.0) out += ",\"l\":" + json_number(r.inductance);
  if (r.capacitance >= 0.0) out += ",\"c\":" + json_number(r.capacitance);
  out += ",\"n\":" + std::to_string(r.n_drivers);
  out += ",\"tr\":" + json_number(r.rise_time);
  out += r.include_c ? ",\"include_c\":true" : ",\"include_c\":false";
  out += r.sim ? ",\"sim\":true" : ",\"sim\":false";
  out += ",\"samples\":" + std::to_string(r.samples);
  out += ",\"seed\":" + std::to_string(r.seed);
  out += ",\"max_n\":" + std::to_string(r.max_n);
  out += ",\"deadline\":" + json_number(r.deadline_s);
  out += "}";
  return out;
}

std::string render_trust(const verify::TrustReport& trust) {
  std::string out = "{\"verdict\":\"";
  out += verify::to_string(trust.verdict);
  out += "\",\"residual\":" + json_number_or_null(trust.residual);
  out += ",\"cond\":" + json_number_or_null(trust.cond_estimate);
  out += ",\"ci95\":" + json_number_or_null(trust.ci95);
  if (trust.refinements > 0)
    out += ",\"refinements\":" + std::to_string(trust.refinements);
  if (!trust.notes.empty()) {
    out += ",\"notes\":[";
    bool first = true;
    for (const std::string& note : trust.notes) {
      if (!first) out += ',';
      first = false;
      out += '"' + json_escape(note) + '"';
    }
    out += ']';
  }
  out += "}";
  return out;
}

bool extract_trust_verdict(const std::string& result_fragment,
                           verify::Verdict& out) {
  const JsonParse parsed = parse_json(result_fragment);
  if (!parsed.ok || !parsed.value.is_object()) return false;
  const JsonValue* trust = parsed.value.find("trust");
  if (trust == nullptr || !trust->is_object()) return false;
  const JsonValue* verdict = trust->find("verdict");
  if (verdict == nullptr || verdict->kind != JsonValue::Kind::kString)
    return false;
  return verify::verdict_from_name(verdict->string, out);
}

std::string render_ok(const std::string& id,
                      const std::string& result_fragment, bool cached,
                      std::int64_t elapsed_us) {
  std::string out = "{\"id\":\"" + json_escape(id) + "\",\"ok\":true";
  out += cached ? ",\"cached\":true" : ",\"cached\":false";
  out += ",\"elapsed_us\":" + std::to_string(elapsed_us);
  out += ",\"result\":" + result_fragment + "}";
  return out;
}

std::string render_error(const std::string& id, const std::string& code,
                         const std::string& message) {
  return "{\"id\":\"" + json_escape(id) + "\",\"ok\":false,\"code\":\"" +
         code + "\",\"error\":\"" + json_escape(message) + "\"}";
}

std::string render_overloaded(const std::string& id, double retry_after_ms) {
  return "{\"id\":\"" + json_escape(id) +
         "\",\"ok\":false,\"code\":\"SSN-E064\",\"error\":\"admission queue "
         "full, retry later\",\"retry_after_ms\":" +
         json_number(retry_after_ms) + "}";
}

double jittered_retry_after_ms(const std::string& id) {
  // FNV-1a over the id, mixed with the seed, mapped onto [0.5, 1.5). 2^20
  // buckets keep the quotient exact in double, so the hint is reproducible
  // across platforms.
  std::uint64_t h =
      support::fnv1a(id) ^ (std::uint64_t(kRetryJitterSeed) * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  const double unit = double(h & ((std::uint64_t(1) << 20) - 1)) /
                      double(std::uint64_t(1) << 20);
  return kRetryAfterMs * (0.5 + unit);
}

std::string render_solver_error(const std::string& id,
                                const support::SolverError& error) {
  const bool stopped = support::is_stop_kind(error.kind());
  std::string out = "{\"id\":\"" + json_escape(id) +
                    "\",\"ok\":false,\"code\":\"";
  out += stopped ? "SSN-E066" : "SSN-E065";
  out += "\",\"error\":\"" + json_escape(error.what()) + "\",\"kind\":\"";
  out += support::to_string(error.kind());
  out += "\",\"retryable\":";
  // A cancelled/deadlined request is retryable from the *client's* point of
  // view (resubmit with a larger budget or to a less loaded daemon), unlike
  // a genuinely non-retryable solver failure.
  out += (stopped || error.retryable()) ? "true" : "false";
  out += "}";
  return out;
}

bool split_response_line(const std::string& line, ResponseView& out) {
  const JsonParse parsed = parse_json(line);
  if (!parsed.ok || !parsed.value.is_object()) return false;
  const JsonValue* ok = parsed.value.find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) return false;
  out = ResponseView{};
  out.ok = ok->boolean;
  if (!out.ok) {
    const JsonValue* code = parsed.value.find("code");
    if (code == nullptr || code->kind != JsonValue::Kind::kString) return false;
    out.code = code->string;
    out.cancelled = (out.code == "SSN-E066");
    return true;
  }
  // Recover the fragment textually: render_ok emits `,"result":` as the
  // last member, so the fragment is everything between that marker and the
  // final close brace. parse_json already vouched the line is well-formed,
  // and the comma-quote marker cannot occur inside an escaped string (every
  // quote there is backslash-prefixed), so the first hit is the real one.
  const std::string marker = ",\"result\":";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos || line.empty() || line.back() != '}')
    return false;
  out.fragment = line.substr(at + marker.size(),
                             line.size() - 1 - (at + marker.size()));
  return !out.fragment.empty();
}

std::string render_stats(const ServerStats& s) {
  std::string out = "{\"event\":\"stats\"";
  out += ",\"accepted\":" + std::to_string(s.accepted);
  out += ",\"responded\":" + std::to_string(s.responded);
  out += ",\"ok\":" + std::to_string(s.ok);
  out += ",\"solver_errors\":" + std::to_string(s.solver_errors);
  out += ",\"cancelled\":" + std::to_string(s.cancelled);
  out += ",\"shed\":" + std::to_string(s.shed);
  out += ",\"malformed\":" + std::to_string(s.malformed);
  out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  out += ",\"worker_timeouts\":" + std::to_string(s.worker_timeouts);
  out += ",\"worker_crashes\":" + std::to_string(s.worker_crashes);
  out += ",\"quarantined\":" + std::to_string(s.quarantined);
  out += "}";
  return out;
}

}  // namespace ssnkit::serve
