#include "numeric/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssnkit::numeric {

double& Vector::at(std::size_t i) {
  if (i >= data_.size()) throw std::out_of_range("Vector::at: index out of range");
  return data_[i];
}

void Vector::fill(double value) {
  for (double& x : data_) x = value;
}

Vector& Vector::operator+=(const Vector& rhs) {
  if (rhs.size() != size()) throw std::invalid_argument("Vector::operator+=: size mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  if (rhs.size() != size()) throw std::invalid_argument("Vector::operator-=: size mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Vector::norm2() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Vector::norm_inf() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::fabs(x));
  return acc;
}

double Vector::dot(const Vector& rhs) const {
  if (rhs.size() != size()) throw std::invalid_argument("Vector::dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(double s, Vector v) { return v *= s; }

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Vector Matrix::mul(const Vector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("Matrix::mul: size mismatch");
  Vector y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::mul(const Matrix& rhs) const {
  if (rhs.rows_ != cols_) throw std::invalid_argument("Matrix::mul: shape mismatch");
  Matrix y(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      for (std::size_t c = 0; c < rhs.cols_; ++c) y(r, c) += a * rhs(k, c);
    }
  return y;
}

Vector operator*(const Matrix& m, const Vector& x) { return m.mul(x); }
Matrix operator*(const Matrix& a, const Matrix& b) { return a.mul(b); }

}  // namespace ssnkit::numeric
