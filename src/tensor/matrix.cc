#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

// Runtime-dispatched SIMD clones for the GEMM kernels: the same source
// loop is compiled per ISA (AVX-512 / AVX2 / baseline) and glibc's ifunc
// resolver picks the widest one the CPU supports. The element-wise
// accumulation order is identical in every clone and the build pins
// -ffp-contract=off, so results are bit-identical across ISAs — serving
// batches answer exactly what the scalar per-query path answers.
//
// NEUROSKETCH_NO_SIMD_CLONES disables the dispatch (plain baseline
// codegen). ThreadSanitizer builds need this: the dynamic linker runs
// ifunc resolvers while processing relocations, before libtsan's
// .preinit_array initializes its thread state, and GCC's libtsan
// segfaults on the first intercepted call from that window. Results are
// unchanged either way — every clone computes the same bits.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(NEUROSKETCH_NO_SIMD_CLONES) && !defined(__SANITIZE_THREAD__)
#define NS_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define NS_TARGET_CLONES
#endif

namespace neurosketch {

namespace {

NS_TARGET_CLONES
void GemmKernel(const double* a, const double* b, double* o, size_t m,
                size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    for (size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

NS_TARGET_CLONES
void GemmTransAKernel(const double* a, const double* b, double* o, size_t k,
                      size_t m, size_t n) {
  for (size_t p = 0; p < k; ++p) {
    const double* arow = a + p * m;
    const double* brow = b + p * n;
    for (size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = o + i * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

NS_TARGET_CLONES
void GemmTransBKernel(const double* a, const double* b, double* o, size_t m,
                      size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    for (size_t j = 0; j < n; ++j) {
      const double* brow = b + j * k;
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
}

// Bias + activation epilogue of the fused kernel. Kept as per-activation
// loops (not a switch in the inner loop) so each case auto-vectorizes; the
// arithmetic matches AddRowVector followed by ApplyActivation exactly.
//
// The fused kernel and its epilogue are templates over the element type:
// one source serves the f64 and f32 plan tiers. GCC applies target_clones
// to each template instantiation, so double and float each get their own
// per-ISA clones and ifunc resolver (`nm -C` on the object lists them).
template <typename T>
NS_TARGET_CLONES void FusedEpilogue(T* yrow, const T* b, size_t n,
                                    Activation act) {
  switch (act) {
    case Activation::kIdentity:
      for (size_t j = 0; j < n; ++j) yrow[j] += b[j];
      return;
    case Activation::kRelu:
      for (size_t j = 0; j < n; ++j) {
        const T v = yrow[j] + b[j];
        yrow[j] = v > T(0) ? v : T(0);
      }
      return;
    case Activation::kTanh:
      for (size_t j = 0; j < n; ++j) yrow[j] = std::tanh(yrow[j] + b[j]);
      return;
    case Activation::kSigmoid:
      for (size_t j = 0; j < n; ++j) {
        yrow[j] = T(1) / (T(1) + std::exp(-(yrow[j] + b[j])));
      }
      return;
  }
}

template <typename T>
NS_TARGET_CLONES void FusedDenseKernel(const T* x, size_t m, size_t k,
                                       const T* w, const T* b, Activation act,
                                       T* y, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const T* xrow = x + i * k;
    T* yrow = y + i * n;
    for (size_t j = 0; j < n; ++j) yrow[j] = T(0);
    for (size_t p = 0; p < k; ++p) {
      const T xv = xrow[p];
      if (xv == T(0)) continue;
      const T* wrow = w + p * n;
      for (size_t j = 0; j < n; ++j) yrow[j] += xv * wrow[j];
    }
    FusedEpilogue(yrow, b, n, act);
  }
}

}  // namespace

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::Apply(const std::function<double(double)>& fn) {
  for (double& x : data_) x = fn(x);
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(double alpha) {
  for (double& x : data_) x *= alpha;
}

double Matrix::SquaredNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return acc;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  *out = Matrix(m, n, 0.0);
  GemmKernel(a.data(), b.data(), out->data(), m, k, n);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  *out = Matrix(m, n, 0.0);
  GemmTransAKernel(a.data(), b.data(), out->data(), k, m, n);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  *out = Matrix(m, n, 0.0);
  GemmTransBKernel(a.data(), b.data(), out->data(), m, k, n);
}

void AddRowVector(Matrix* m, const Matrix& rowvec) {
  assert(rowvec.rows() == 1 && rowvec.cols() == m->cols());
  for (size_t r = 0; r < m->rows(); ++r) {
    double* mr = m->row(r);
    const double* v = rowvec.row(0);
    for (size_t c = 0; c < m->cols(); ++c) mr[c] += v[c];
  }
}

void FusedDenseForward(const double* x, size_t m, size_t k, const double* w,
                       const double* b, Activation act, double* y, size_t n) {
  FusedDenseKernel(x, m, k, w, b, act, y, n);
}

void FusedDenseForward(const float* x, size_t m, size_t k, const float* w,
                       const float* b, Activation act, float* y, size_t n) {
  FusedDenseKernel(x, m, k, w, b, act, y, n);
}

void ColumnSums(const Matrix& m, Matrix* out) {
  *out = Matrix(1, m.cols(), 0.0);
  double* o = out->row(0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* mr = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) o[c] += mr[c];
  }
}

}  // namespace neurosketch
