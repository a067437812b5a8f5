// Dense row-major double matrix with the small set of kernels the neural
// network substrate needs (GEMM, transpose-GEMM variants, elementwise ops).
// Models in this system are tiny (hundreds to low-thousands of parameters),
// so clarity and determinism are preferred over SIMD cleverness; the inner
// GEMM loop is still written cache-friendly (ikj order).
#ifndef NEUROSKETCH_TENSOR_MATRIX_H_
#define NEUROSKETCH_TENSOR_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace neurosketch {

/// \brief Elementwise nonlinearity applied by the dense kernels. Lives at
/// tensor level (not nn/) so the fused forward kernel below can dispatch on
/// it without a std::function indirection; nn/activation.h aliases it into
/// namespace nn and adds training-side helpers (gradients, names).
enum class Activation {
  kIdentity,
  kRelu,
  kTanh,
  kSigmoid,
};

/// \brief Row-major dense matrix of double.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(size_t r) { return data_.data() + r * cols_; }
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  void Fill(double v);
  void Zero() { Fill(0.0); }

  /// \brief In-place elementwise transform.
  void Apply(const std::function<double(double)>& fn);

  /// \brief this += alpha * other (shapes must match).
  void Axpy(double alpha, const Matrix& other);

  /// \brief this *= alpha.
  void Scale(double alpha);

  /// \brief Frobenius-norm squared.
  double SquaredNorm() const;

  Matrix Transposed() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// \brief out = a * b. Shapes: (m,k) x (k,n) -> (m,n). out is resized.
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// \brief out = a^T * b. Shapes: (k,m)^T x (k,n) -> (m,n).
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// \brief out = a * b^T. Shapes: (m,k) x (n,k)^T -> (m,n).
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// \brief Add a row vector (1,n) to every row of m (batch bias add).
void AddRowVector(Matrix* m, const Matrix& row);

/// \brief out(0,j) = sum_i m(i,j): column sums as a (1,n) matrix.
void ColumnSums(const Matrix& m, Matrix* out);

/// \brief Fused dense-layer forward on raw row-major buffers:
/// y = act(x * w + b), with x (m,k), w (k,n), b (n), y (m,n). Performs no
/// heap allocation — callers own every buffer — and uses the exact same
/// accumulation order as Gemm + AddRowVector + elementwise activation
/// (zero-initialized ikj accumulation, bias added last), so results are
/// bit-identical to the unfused three-pass pipeline. y must not alias x.
///
/// The float overload serves the opt-in f32 compiled-plan tier from the
/// same kernel source: half the memory traffic and twice the SIMD lanes,
/// same accumulation order (in float). It is not bit-comparable to the
/// f64 kernel; core/NeuroSketch validates the f32 tier against the f64
/// reference and falls back when the divergence exceeds its error bound.
void FusedDenseForward(const double* x, size_t m, size_t k, const double* w,
                       const double* b, Activation act, double* y, size_t n);
void FusedDenseForward(const float* x, size_t m, size_t k, const float* w,
                       const float* b, Activation act, float* y, size_t n);

}  // namespace neurosketch

#endif  // NEUROSKETCH_TENSOR_MATRIX_H_
