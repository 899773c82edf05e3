#include "reference/jacobian.hpp"

namespace ssnkit::reference {

devices::MosfetEval finite_difference_evaluate(
    const devices::MosfetModel& model, double vgs, double vds, double vbs) {
  const double h = kJacobianStep;
  devices::MosfetEval out;
  out.ids = model.ids(vgs, vds, vbs);
  out.gm = (model.ids(vgs + h, vds, vbs) - model.ids(vgs - h, vds, vbs)) / (2.0 * h);
  out.gds = (model.ids(vgs, vds + h, vbs) - model.ids(vgs, vds - h, vbs)) / (2.0 * h);
  out.gmb = (model.ids(vgs, vds, vbs + h) - model.ids(vgs, vds, vbs - h)) / (2.0 * h);
  return out;
}

numeric::Vector drain_current_gradient(const circuit::Mosfet& m,
                                       const numeric::Vector& x,
                                       int node_count) {
  const double h = kJacobianStep;
  numeric::Vector grad(x.size());
  numeric::Vector xp = x;
  for (std::size_t k = 0; k + 1 < std::size_t(node_count); ++k) {
    xp[k] = x[k] + h;
    const double up = m.drain_current(xp, node_count);
    xp[k] = x[k] - h;
    const double down = m.drain_current(xp, node_count);
    xp[k] = x[k];
    grad[k] = (up - down) / (2.0 * h);
  }
  return grad;
}

}  // namespace ssnkit::reference
