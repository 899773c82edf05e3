// Low-degree polynomial root helpers. The LC SSN model classifies its
// damping region from the discriminant of the characteristic quadratic
// L·C·s² + N·L·K·λ·s + 1 = 0; the numerically stable quadratic solver here
// avoids catastrophic cancellation when the two real roots are far apart
// (heavily over-damped systems).
#pragma once

#include <array>
#include <optional>

namespace ssnkit::numeric {

/// Real roots of a·x² + b·x + c = 0, returned in increasing order.
/// Uses the Kahan/Goldberg formulation q = -(b + sign(b)·sqrt(disc))/2.
/// Returns std::nullopt when the roots are complex (disc < 0) or when the
/// equation is degenerate with no root. A linear equation (a == 0) returns
/// its single root twice.
std::optional<std::array<double, 2>> quadratic_real_roots(double a, double b,
                                                          double c);

/// Discriminant b² − 4ac evaluated with a fused style that limits
/// cancellation: uses the identity via difference-of-products.
double quadratic_discriminant(double a, double b, double c);

}  // namespace ssnkit::numeric
