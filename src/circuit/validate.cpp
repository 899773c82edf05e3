#include "circuit/validate.hpp"

#include "io/table.hpp"

#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <vector>

namespace ssnkit::circuit {

namespace {

using io::DiagnosticSink;
using support::SrcLoc;

// SSN-W106 thresholds: values above these are suspicious for an on-package
// parasitic netlist (the paper's domain: pF / nH / ohms).
constexpr double kMaxPlausibleCapacitance = 1e-3;  // farads
constexpr double kMaxPlausibleInductance = 1.0;    // henries
constexpr double kMaxPlausibleResistance = 1e12;   // ohms

SrcLoc loc_of(const ValidateOptions& opt) { return SrcLoc{opt.source_name, 0, 0}; }

/// Minimal union-find over node ids for the inductor/voltage-source loop
/// check: merging the endpoints of every DC-short branch (V sources,
/// inductors, coupled-inductor windings); an edge whose endpoints are
/// already connected closes a loop of shorts, which makes the DC operating
/// point singular.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t a) {
    while (parent_[a] != a) a = parent_[a] = parent_[parent_[a]];
    return a;
  }
  /// Returns false when a and b were already connected (a loop).
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

void check_value(const ValidateOptions& opt, DiagnosticSink& sink,
                 const std::string& name, const char* quantity, double value,
                 double warn_above) {
  if (!std::isfinite(value) || value <= 0.0) {
    sink.error(loc_of(opt), "SSN-E103",
               "element '" + name + "' has non-physical " + quantity + " " +
                   io::si_format(value),
               name);
    return;
  }
  if (value > warn_above) {
    sink.warning(loc_of(opt), "SSN-W106",
                 "element '" + name + "' has an implausible " + quantity +
                     " of " + io::si_format(value) +
                     " — check the unit suffix",
                 name);
  }
}

}  // namespace

bool validate_circuit(const Circuit& circuit, DiagnosticSink& sink,
                      const ValidateOptions& opt) {
  const std::size_t errors_before = sink.error_count();
  const auto& elements = circuit.elements();

  if (elements.empty()) {
    sink.error(loc_of(opt), "SSN-E105", "circuit has no elements");
    return sink.error_count() == errors_before;
  }

  // Duplicate element names. Circuit::add_* rejects duplicates, so this
  // only fires for exotic construction paths — but validation must not
  // assume its input came through those factories.
  std::set<std::string> names;
  for (const auto& e : elements) {
    if (!names.insert(e->name()).second)
      sink.error(loc_of(opt), "SSN-E101",
                 "duplicate element name '" + e->name() + "'", e->name());
  }

  // Terminal-count connectivity. A non-ground node touched by fewer than
  // two element terminals is either a typo'd net name or a probe point
  // someone forgot to wire up.
  std::map<NodeId, int> touch_count;
  for (const auto& e : elements)
    for (const NodeId n : e->nodes()) ++touch_count[n];
  for (NodeId n = 1; n < circuit.node_count(); ++n) {
    const auto it = touch_count.find(n);
    const int touches = it == touch_count.end() ? 0 : it->second;
    if (touches < 2)
      sink.warning(loc_of(opt), "SSN-W102",
                   "node '" + circuit.node_name(n) + "' is dangling (" +
                       std::to_string(touches) +
                       " connection" + (touches == 1 ? "" : "s") +
                       ") — typo'd net name?",
                   circuit.node_name(n));
  }

  // Per-element value sanity.
  for (const auto& e : elements) {
    if (const auto* r = dynamic_cast<const Resistor*>(e.get())) {
      check_value(opt, sink, r->name(), "resistance", r->resistance(),
                  kMaxPlausibleResistance);
    } else if (const auto* c = dynamic_cast<const Capacitor*>(e.get())) {
      check_value(opt, sink, c->name(), "capacitance", c->capacitance(),
                  kMaxPlausibleCapacitance);
    } else if (const auto* l = dynamic_cast<const Inductor*>(e.get())) {
      check_value(opt, sink, l->name(), "inductance", l->inductance(),
                  kMaxPlausibleInductance);
    } else if (const auto* k = dynamic_cast<const CoupledInductors*>(e.get())) {
      if (!std::isfinite(k->coupling()) || std::abs(k->coupling()) >= 1.0)
        sink.error(loc_of(opt), "SSN-E103",
                   "coupled inductors '" + k->name() +
                       "' have non-physical coupling |k| >= 1",
                   k->name());
    } else if (const auto* d = dynamic_cast<const Diode*>(e.get())) {
      if (!std::isfinite(d->saturation_current()) ||
          d->saturation_current() <= 0.0 || !std::isfinite(d->ideality()) ||
          d->ideality() <= 0.0)
        sink.error(loc_of(opt), "SSN-E103",
                   "diode '" + d->name() +
                       "' has non-physical Is or emission coefficient",
                   d->name());
    }
  }

  // Inductor / voltage-source loops: every winding and V source is a DC
  // short; a cycle of shorts leaves the DC system singular (the homotopy's
  // gmin rescue usually digs it out, hence warning rather than error).
  UnionFind uf(std::size_t(circuit.node_count()));
  const auto short_edge = [&](const std::string& name, NodeId a, NodeId b) {
    if (a == b) return;  // self-shorted element is caught by its own row
    if (!uf.unite(std::size_t(a), std::size_t(b)))
      sink.warning(loc_of(opt), "SSN-W104",
                   "element '" + name +
                       "' closes an inductor/voltage-source loop — the DC "
                       "operating point is singular without gmin rescue",
                   name);
  };
  for (const auto& e : elements) {
    if (const auto* l = dynamic_cast<const Inductor*>(e.get())) {
      short_edge(l->name(), l->node1(), l->node2());
    } else if (const auto* v = dynamic_cast<const VoltageSource*>(e.get())) {
      short_edge(v->name(), v->positive(), v->negative());
    } else if (const auto* k = dynamic_cast<const CoupledInductors*>(e.get())) {
      const auto n = k->nodes();
      short_edge(k->name(), n[0], n[1]);
      short_edge(k->name(), n[2], n[3]);
    }
  }

  return sink.error_count() == errors_before;
}

}  // namespace ssnkit::circuit
