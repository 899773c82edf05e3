#include "circuit/mna.hpp"

namespace ssnkit::circuit {

void StampContext::stamp_current(NodeId from, NodeId to, double i) const {
  if (from != kGround) (*b)[std::size_t(from - 1)] -= i;
  if (to != kGround) (*b)[std::size_t(to - 1)] += i;
}

void StampContext::stamp_vccs(NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
                              double g) const {
  stamp_jacobian(out_p, cp, +g);
  stamp_jacobian(out_p, cm, -g);
  stamp_jacobian(out_m, cp, -g);
  stamp_jacobian(out_m, cm, +g);
}

void StampContext::stamp_branch_incidence(int node_count, int branch, NodeId p,
                                          NodeId m) const {
  const std::size_t row = std::size_t(branch_row(node_count, branch));
  // KCL: branch current leaves p, enters m.
  if (p != kGround) add_a(std::size_t(p - 1), row, 1.0);
  if (m != kGround) add_a(std::size_t(m - 1), row, -1.0);
  // Branch equation voltage terms v(p) - v(m).
  if (p != kGround) add_a(row, std::size_t(p - 1), 1.0);
  if (m != kGround) add_a(row, std::size_t(m - 1), -1.0);
}

void StampContext::stamp_branch_current_coeff(int node_count, int branch,
                                              double coeff) const {
  const std::size_t row = std::size_t(branch_row(node_count, branch));
  add_a(row, row, coeff);
}

void StampContext::stamp_branch_cross(int node_count, int row_branch,
                                      int col_branch, double coeff) const {
  add_a(std::size_t(branch_row(node_count, row_branch)),
        std::size_t(branch_row(node_count, col_branch)), coeff);
}

void StampContext::stamp_branch_rhs(int node_count, int branch,
                                    double value) const {
  (*b)[std::size_t(branch_row(node_count, branch))] += value;
}

// --- AcStampContext ----------------------------------------------------------

void AcStampContext::stamp_admittance(NodeId n1, NodeId n2,
                                      numeric::Complex y) const {
  if (n1 != kGround) {
    (*a)(std::size_t(n1 - 1), std::size_t(n1 - 1)) += y;
    if (n2 != kGround) (*a)(std::size_t(n1 - 1), std::size_t(n2 - 1)) -= y;
  }
  if (n2 != kGround) {
    (*a)(std::size_t(n2 - 1), std::size_t(n2 - 1)) += y;
    if (n1 != kGround) (*a)(std::size_t(n2 - 1), std::size_t(n1 - 1)) -= y;
  }
}

void AcStampContext::stamp_jacobian(NodeId row_node, NodeId col_node,
                                    numeric::Complex y) const {
  if (row_node == kGround || col_node == kGround) return;
  (*a)(std::size_t(row_node - 1), std::size_t(col_node - 1)) += y;
}

void AcStampContext::stamp_current(NodeId from, NodeId to,
                                   numeric::Complex i) const {
  if (from != kGround) (*b)[std::size_t(from - 1)] -= i;
  if (to != kGround) (*b)[std::size_t(to - 1)] += i;
}

void AcStampContext::stamp_vccs(NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
                                double g) const {
  stamp_jacobian(out_p, cp, +g);
  stamp_jacobian(out_p, cm, -g);
  stamp_jacobian(out_m, cp, -g);
  stamp_jacobian(out_m, cm, +g);
}

void AcStampContext::stamp_branch_incidence(int node_count, int branch, NodeId p,
                                            NodeId m) const {
  const std::size_t row = std::size_t(branch_row(node_count, branch));
  if (p != kGround) (*a)(std::size_t(p - 1), row) += 1.0;
  if (m != kGround) (*a)(std::size_t(m - 1), row) -= 1.0;
  if (p != kGround) (*a)(row, std::size_t(p - 1)) += 1.0;
  if (m != kGround) (*a)(row, std::size_t(m - 1)) -= 1.0;
}

void AcStampContext::stamp_branch_current_coeff(int node_count, int branch,
                                                numeric::Complex coeff) const {
  const std::size_t row = std::size_t(branch_row(node_count, branch));
  (*a)(row, row) += coeff;
}

void AcStampContext::stamp_branch_cross(int node_count, int row_branch,
                                        int col_branch,
                                        numeric::Complex coeff) const {
  (*a)(std::size_t(branch_row(node_count, row_branch)),
       std::size_t(branch_row(node_count, col_branch))) += coeff;
}

void AcStampContext::stamp_branch_rhs(int node_count, int branch,
                                      numeric::Complex value) const {
  (*b)[std::size_t(branch_row(node_count, branch))] += value;
}

}  // namespace ssnkit::circuit
