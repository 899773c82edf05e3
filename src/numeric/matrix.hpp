// Dense linear algebra primitives used by the MNA simulator and the
// fitting routines. Sized for circuit problems with tens to a few hundred
// unknowns; everything is double precision and row-major.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace ssnkit::numeric {

/// Dense column vector.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> values) : data_(values) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked access; throws std::out_of_range.
  double& at(std::size_t i);

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  void resize(std::size_t n, double fill = 0.0) { data_.resize(n, fill); }
  void fill(double value);

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);

  /// Euclidean norm.
  double norm2() const;
  /// Maximum absolute entry (infinity norm).
  double norm_inf() const;
  /// Dot product; both vectors must have equal size.
  double dot(const Vector& rhs) const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(double s, Vector v);

/// Dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  Matrix transposed() const;

  /// Matrix-vector product; x.size() must equal cols().
  Vector mul(const Vector& x) const;
  /// Matrix-matrix product; rhs.rows() must equal cols().
  Matrix mul(const Matrix& rhs) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Vector operator*(const Matrix& m, const Vector& x);
Matrix operator*(const Matrix& a, const Matrix& b);

}  // namespace ssnkit::numeric
