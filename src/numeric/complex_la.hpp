// Complex dense linear algebra for small-signal (AC) analysis: the MNA
// system at a frequency point is (G + j*omega*C) x = b with complex x, b.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ssnkit::numeric {

using Complex = std::complex<double>;

/// Dense complex vector.
class CVector {
 public:
  CVector() = default;
  explicit CVector(std::size_t n, Complex fill = {}) : data_(n, fill) {}

  std::size_t size() const { return data_.size(); }
  Complex& operator[](std::size_t i) { return data_[i]; }
  const Complex& operator[](std::size_t i) const { return data_[i]; }
  void fill(Complex value);

 private:
  std::vector<Complex> data_;
};

/// Dense row-major complex matrix.
class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols, Complex fill = {})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  Complex& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const Complex& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  void fill(Complex value);

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<Complex> data_;
};

/// LU with partial pivoting over the complex field (pivot by magnitude).
class CLuFactorization {
 public:
  explicit CLuFactorization(CMatrix a);
  bool singular() const { return singular_; }
  std::size_t size() const { return lu_.rows(); }
  /// Solve A x = b; throws std::runtime_error when singular.
  CVector solve(const CVector& b) const;

 private:
  CMatrix lu_;
  std::vector<std::size_t> perm_;
  bool singular_ = false;
};

}  // namespace ssnkit::numeric
