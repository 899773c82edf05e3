#include "circuit/circuit.hpp"

#include "support/contracts.hpp"

#include <stdexcept>

namespace ssnkit::circuit {

Circuit::Circuit() {
  node_ids_["0"] = kGround;
  node_names_.push_back("0");
}

NodeId Circuit::node(const std::string& name) {
  const std::string key = (name == "gnd" || name == "GND") ? "0" : name;
  const auto it = node_ids_.find(key);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = NodeId(node_names_.size());
  node_ids_[key] = id;
  node_names_.push_back(key);
  finalized_ = false;
  return id;
}

NodeId Circuit::find_node(const std::string& name) const {
  const std::string key = (name == "gnd" || name == "GND") ? "0" : name;
  const auto it = node_ids_.find(key);
  if (it == node_ids_.end())
    throw std::out_of_range("Circuit::find_node: unknown node '" + name + "'");
  return it->second;
}

const std::string& Circuit::node_name(NodeId id) const {
  if (id < 0 || id >= node_count())
    throw std::out_of_range("Circuit::node_name: bad node id");
  return node_names_[std::size_t(id)];
}

Element& Circuit::add_element(std::unique_ptr<Element> el) {
  SSN_REQUIRE(el != nullptr, "Circuit::add_element: null element");
  if (find_element(el->name()) != nullptr)
    throw std::invalid_argument("Circuit: duplicate element name '" + el->name() +
                                "'");
  Element& ref = *el;
  elements_.push_back(std::move(el));
  finalized_ = false;
  return ref;
}

template <typename T, typename... Args>
T& Circuit::emplace(Args&&... args) {
  return static_cast<T&>(
      add_element(std::make_unique<T>(std::forward<Args>(args)...)));
}

Resistor& Circuit::add_resistor(const std::string& name, NodeId n1, NodeId n2,
                                double ohms) {
  return emplace<Resistor>(name, n1, n2, ohms);
}

Capacitor& Circuit::add_capacitor(const std::string& name, NodeId n1, NodeId n2,
                                  double farads, std::optional<double> ic) {
  return emplace<Capacitor>(name, n1, n2, farads, ic);
}

Inductor& Circuit::add_inductor(const std::string& name, NodeId n1, NodeId n2,
                                double henries, std::optional<double> ic) {
  return emplace<Inductor>(name, n1, n2, henries, ic);
}

CoupledInductors& Circuit::add_coupled_inductors(const std::string& name,
                                                 NodeId n1a, NodeId n1b,
                                                 NodeId n2a, NodeId n2b,
                                                 double l1, double l2, double k) {
  return emplace<CoupledInductors>(name, n1a, n1b, n2a, n2b, l1, l2, k);
}

VoltageSource& Circuit::add_vsource(const std::string& name, NodeId p, NodeId m,
                                    waveform::SourceSpec spec) {
  return emplace<VoltageSource>(name, p, m, std::move(spec));
}

CurrentSource& Circuit::add_isource(const std::string& name, NodeId p, NodeId m,
                                    waveform::SourceSpec spec) {
  return emplace<CurrentSource>(name, p, m, std::move(spec));
}

Vccs& Circuit::add_vccs(const std::string& name, NodeId out_p, NodeId out_m,
                        NodeId ctl_p, NodeId ctl_m, double gm) {
  return emplace<Vccs>(name, out_p, out_m, ctl_p, ctl_m, gm);
}

Diode& Circuit::add_diode(const std::string& name, NodeId anode, NodeId cathode,
                          double is, double n) {
  return emplace<Diode>(name, anode, cathode, is, n);
}

Mosfet& Circuit::add_mosfet(const std::string& name, NodeId d, NodeId g,
                            NodeId s, NodeId b,
                            std::shared_ptr<const devices::MosfetModel> model,
                            MosfetPolarity polarity) {
  return emplace<Mosfet>(name, d, g, s, b, std::move(model), polarity);
}

Element* Circuit::find_element(const std::string& name) const {
  for (const auto& el : elements_)
    if (el->name() == name) return el.get();
  return nullptr;
}

void Circuit::remove_element(const std::string& name) {
  for (auto it = elements_.begin(); it != elements_.end(); ++it) {
    if ((*it)->name() == name) {
      elements_.erase(it);
      finalized_ = false;
      return;
    }
  }
  throw std::invalid_argument("Circuit::remove_element: no element '" + name + "'");
}

int Circuit::finalize() {
  if (!finalized_) {
    branch_total_ = 0;
    for (auto& el : elements_) {
      el->set_node_count(node_count());
      if (el->branch_count() > 0) {
        el->set_branch_index(branch_total_);
        branch_total_ += el->branch_count();
      }
    }
    finalized_ = true;
  }
  return unknown_count();
}

int Circuit::branch_unknown_index(const Element& e) const {
  if (e.branch_count() == 0)
    throw std::invalid_argument("Circuit::branch_unknown_index: element '" +
                                e.name() + "' has no branch");
  return node_count() - 1 + e.branch_index();
}

}  // namespace ssnkit::circuit
