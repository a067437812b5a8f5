// Compiled zero-allocation inference plans. A trained Mlp is a training
// structure: per-layer Matrix objects, cached activations, gradient
// buffers. CompiledMlpT<T> is its serving form — all layer weights and
// biases packed into one contiguous flat buffer (in serialization order:
// per layer, weights then bias) plus fixed layer metadata — executed with
// the fused GEMM+bias+activation kernel (tensor/matrix.h) against a
// reusable Workspace arena. After warm-up a forward pass performs zero heap
// allocations.
//
// The element type is the precision tier. CompiledMlp (T = double) is the
// reference: bit-identical to Mlp::Predict / Mlp::PredictOne, and the only
// form that converts to and from a trainable Mlp or serializes.
// CompiledMlpT<float> is the opt-in single-precision tier: the same
// layout narrowed to float (half the footprint, twice the SIMD lanes). It
// is NOT bit-identical to the f64 reference; core/NeuroSketch validates
// its divergence against an error bound before serving from it.
#ifndef NEUROSKETCH_NN_INFERENCE_PLAN_H_
#define NEUROSKETCH_NN_INFERENCE_PLAN_H_

#include <cstddef>
#include <tuple>
#include <vector>

#include "nn/mlp.h"

namespace neurosketch {
namespace nn {

/// \brief Per-layer geometry of a compiled plan: shapes, flat-buffer
/// offsets, and the activation. Shared by the f64 and f32 tiers (offsets
/// are element counts, so they are precision-agnostic).
struct PlanLayer {
  size_t in = 0, out = 0;
  size_t w_off = 0, b_off = 0;  // offsets into the flat parameter buffer
  Activation act = Activation::kIdentity;
};

/// \brief Reusable scratch arena for compiled-plan execution. Buffers grow
/// monotonically and are never shrunk, so a serving thread stops allocating
/// once it has seen its largest batch. Each element type (double for the
/// f64 tier, float for the f32 tier) has its own set of buffers. Not
/// thread-safe; use ThreadLocal() (one arena per thread) or own one per
/// worker.
class Workspace {
 public:
  /// \brief Ping/pong layer-activation buffers of at least n elements each.
  template <typename T>
  T* Ping(size_t n) { return Ensure(&Bufs<T>().ping, n); }
  template <typename T>
  T* Pong(size_t n) { return Ensure(&Bufs<T>().pong, n); }
  /// \brief Input-marshalling buffer (batch gather) of at least n elements.
  template <typename T>
  T* Input(size_t n) { return Ensure(&Bufs<T>().input, n); }
  /// \brief Output staging buffer of at least n elements.
  template <typename T>
  T* Output(size_t n) { return Ensure(&Bufs<T>().output, n); }

  /// \brief Per-leaf bucketing scratch for vectorized batch answering: at
  /// least n index buckets, the first n cleared (capacity retained), so a
  /// warm thread re-buckets arbitrarily many batches without allocating.
  std::vector<std::vector<size_t>>& Buckets(size_t n) {
    if (buckets_.size() < n) buckets_.resize(n);
    for (size_t i = 0; i < n; ++i) buckets_[i].clear();
    return buckets_;
  }

  /// \brief The calling thread's arena (constructed on first use).
  static Workspace& ThreadLocal();

 private:
  template <typename T>
  struct Buffers {
    std::vector<T> ping, pong, input, output;
  };
  template <typename T>
  Buffers<T>& Bufs() { return std::get<Buffers<T>>(buffers_); }
  template <typename T>
  static T* Ensure(std::vector<T>* v, size_t n) {
    if (v->size() < n) v->resize(n);
    return v->data();
  }
  std::tuple<Buffers<double>, Buffers<float>> buffers_;
  std::vector<std::vector<size_t>> buckets_;
};

/// \brief Execution plan with parameters of type T: flat parameter
/// buffer + per-layer geometry, no per-call allocation, enum-dispatched
/// activations. Inputs arrive as doubles (narrowed into the arena when T
/// is float) and results are returned as doubles.
template <typename T>
class CompiledMlpT {
 public:
  CompiledMlpT() = default;

  /// \brief f64 only: pack `model`'s parameters into a plan
  /// (bit-identical copies of the source model).
  static CompiledMlpT FromMlp(const Mlp& model);

  /// \brief Lay out a plan for `config` with zeroed parameters; the caller
  /// fills params() afterwards (deserialization path).
  static CompiledMlpT FromConfig(const MlpConfig& config);

  /// \brief Narrow (or copy) an f64 plan's parameters into a T plan. Each
  /// parameter is static_cast<T> of the f64 one (round-to-nearest), a
  /// deterministic function of the f64 plan, so rebuilding from the f64
  /// reference always reproduces the same plan.
  static CompiledMlpT FromPlan(const CompiledMlpT<double>& plan);

  /// \brief f64 only: reconstruct the trainable form; parameters
  /// round-trip bit-exactly. Used to rehydrate the scalar reference path
  /// after Load.
  Mlp ToMlp() const;

  /// \brief Single-input forward pass; x has in_dim() doubles. Zero heap
  /// allocations once `ws` is warm. out_dim() must be 1.
  double PredictOne(const double* x, Workspace* ws) const;

  /// \brief Batched forward pass over `rows` row-major double inputs
  /// (rows x in_dim); writes rows x out_dim results to `out`. out must not
  /// alias x. Row r is bit-identical to PredictOne on row r; for T = double
  /// the batch is bit-identical to Mlp::Predict on the same batch.
  void PredictBatch(const double* x, size_t rows, Workspace* ws,
                    double* out) const;

  /// \brief Batched forward pass whose inputs are already of type T — the
  /// batched serving path gathers bucket inputs straight into the arena's
  /// Input<T> buffer, skipping a staging copy (and, for float, a separate
  /// narrowing pass). Same bits as PredictBatch on the same (narrowed)
  /// inputs. x may be the workspace's Input<T> buffer.
  void PredictBatchNative(const T* x, size_t rows, Workspace* ws,
                          double* out) const;

  bool empty() const { return layers_.empty(); }
  size_t in_dim() const { return config_.in_dim; }
  size_t out_dim() const { return config_.out_dim; }
  size_t num_params() const { return params_.size(); }
  /// \brief Resident flat-buffer footprint (the f32 plan's is half the
  /// f64 plan's).
  size_t SizeBytes() const { return params_.size() * sizeof(T); }
  const MlpConfig& config() const { return config_; }
  const std::vector<PlanLayer>& layers() const { return layers_; }
  size_t max_width() const { return max_width_; }

  /// \brief Flat parameter buffer in serialization order (per layer:
  /// weights row-major, then bias) — what SaveCompiledMlp streams.
  const std::vector<T>& params() const { return params_; }
  std::vector<T>& mutable_params() { return params_; }

 private:
  MlpConfig config_;
  std::vector<PlanLayer> layers_;
  std::vector<T> params_;
  size_t max_width_ = 0;  // widest layer output, sizes the ping/pong pair
};

// The Mlp conversions exist for the f64 reference tier only.
template <>
CompiledMlpT<double> CompiledMlpT<double>::FromMlp(const Mlp& model);
template <>
Mlp CompiledMlpT<double>::ToMlp() const;

extern template class CompiledMlpT<double>;
extern template class CompiledMlpT<float>;

// CompiledMlp names the f64 reference plan throughout the code base; the
// CompiledMlpF32 alias keeps perfbench/, which names the f32 plan by it,
// building unchanged.
using CompiledMlp = CompiledMlpT<double>;
using CompiledMlpF32 = CompiledMlpT<float>;

}  // namespace nn
}  // namespace neurosketch

#endif  // NEUROSKETCH_NN_INFERENCE_PLAN_H_
