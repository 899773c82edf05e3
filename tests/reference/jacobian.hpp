// Finite-difference Jacobians: the central-difference schemes the device
// models and the MOSFET element used before their derivatives were written
// in closed form. They are NOT used by the simulator; the tests hold
// MosfetModel::evaluate and Mosfet::stamp against them.
#pragma once

#include "circuit/elements.hpp"
#include "devices/mosfet_model.hpp"
#include "numeric/matrix.hpp"

namespace ssnkit::reference {

/// Voltage step of both schemes [V].
inline constexpr double kJacobianStep = 1e-6;

/// ids() and its central differences in vgs, vds and vbs.
devices::MosfetEval finite_difference_evaluate(
    const devices::MosfetModel& model, double vgs, double vds, double vbs);

/// Central differences of m.drain_current(x) in each node voltage of x:
/// entry k is d i_drain / d x[k] (zero for nodes m does not touch). Branch
/// unknowns are left out of the perturbation.
numeric::Vector drain_current_gradient(const circuit::Mosfet& m,
                                       const numeric::Vector& x,
                                       int node_count);

}  // namespace ssnkit::reference
