// The Circuit owns nodes and elements and hands the simulator a finalized
// view (node count, branch count, element list). Build programmatically via
// the add_* methods or from text via circuit::parse_netlist_ex().
#pragma once

#include "circuit/elements.hpp"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ssnkit::circuit {

class Circuit {
 public:
  Circuit();

  /// Get or create a named node. "0" and "gnd" map to ground.
  NodeId node(const std::string& name);
  /// Look up an existing node; throws std::out_of_range when unknown.
  NodeId find_node(const std::string& name) const;
  const std::string& node_name(NodeId id) const;

  /// Total node count including ground.
  int node_count() const { return int(node_names_.size()); }

  // --- element factories (all return a reference to the new element) -------
  Resistor& add_resistor(const std::string& name, NodeId n1, NodeId n2,
                         double ohms);
  Capacitor& add_capacitor(const std::string& name, NodeId n1, NodeId n2,
                           double farads,
                           std::optional<double> ic = std::nullopt);
  Inductor& add_inductor(const std::string& name, NodeId n1, NodeId n2,
                         double henries,
                         std::optional<double> ic = std::nullopt);
  CoupledInductors& add_coupled_inductors(const std::string& name, NodeId n1a,
                                          NodeId n1b, NodeId n2a, NodeId n2b,
                                          double l1, double l2, double k);
  VoltageSource& add_vsource(const std::string& name, NodeId p, NodeId m,
                             waveform::SourceSpec spec);
  CurrentSource& add_isource(const std::string& name, NodeId p, NodeId m,
                             waveform::SourceSpec spec);
  Vccs& add_vccs(const std::string& name, NodeId out_p, NodeId out_m,
                 NodeId ctl_p, NodeId ctl_m, double gm);
  Diode& add_diode(const std::string& name, NodeId anode, NodeId cathode,
                   double is = 1e-14, double n = 1.0);
  Mosfet& add_mosfet(const std::string& name, NodeId d, NodeId g, NodeId s,
                     NodeId b, std::shared_ptr<const devices::MosfetModel> model,
                     MosfetPolarity polarity = MosfetPolarity::kNmos);
  /// Take ownership of an element of any Element type; every factory above
  /// ends here. Throws std::invalid_argument on a duplicate name.
  Element& add_element(std::unique_ptr<Element> el);

  const std::vector<std::unique_ptr<Element>>& elements() const {
    return elements_;
  }
  /// Find an element by name; nullptr when absent.
  Element* find_element(const std::string& name) const;
  /// Remove an element by name (used by the netlist front end to fuse
  /// K-coupled inductor pairs); throws std::invalid_argument when absent.
  void remove_element(const std::string& name);

  /// Assign branch indices and element node counts. Called by the solvers;
  /// idempotent. Returns the number of unknowns (nodes-1 + branches).
  int finalize();
  int branch_count() const { return branch_total_; }
  int unknown_count() const { return node_count() - 1 + branch_total_; }

  /// Unknown index of an element's branch current; the element must own a
  /// branch (throws std::invalid_argument otherwise).
  int branch_unknown_index(const Element& e) const;

 private:
  template <typename T, typename... Args>
  T& emplace(Args&&... args);

  std::map<std::string, NodeId> node_ids_;
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<Element>> elements_;
  int branch_total_ = 0;
  bool finalized_ = false;
};

}  // namespace ssnkit::circuit
