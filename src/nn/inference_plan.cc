#include "nn/inference_plan.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace neurosketch {
namespace nn {

Workspace& Workspace::ThreadLocal() {
  thread_local Workspace ws;
  return ws;
}

template <typename T>
CompiledMlpT<T> CompiledMlpT<T>::FromConfig(const MlpConfig& config) {
  CompiledMlpT plan;
  plan.config_ = config;
  size_t prev = config.in_dim;
  size_t off = 0;
  auto add_layer = [&](size_t out, Activation act) {
    PlanLayer meta;
    meta.in = prev;
    meta.out = out;
    meta.act = act;
    meta.w_off = off;
    off += prev * out;
    meta.b_off = off;
    off += out;
    plan.layers_.push_back(meta);
    plan.max_width_ = std::max(plan.max_width_, out);
    prev = out;
  };
  for (size_t h : config.hidden) add_layer(h, config.hidden_act);
  add_layer(config.out_dim, Activation::kIdentity);
  plan.params_.assign(off, T(0));
  return plan;
}

template <>
CompiledMlp CompiledMlp::FromMlp(const Mlp& model) {
  CompiledMlp plan = FromConfig(model.config());
  assert(plan.layers_.size() == model.layers().size());
  for (size_t i = 0; i < plan.layers_.size(); ++i) {
    const DenseLayer& layer = model.layers()[i];
    const PlanLayer& meta = plan.layers_[i];
    assert(layer.in_dim() == meta.in && layer.out_dim() == meta.out);
    std::copy(layer.weight().data(), layer.weight().data() + meta.in * meta.out,
              plan.params_.data() + meta.w_off);
    std::copy(layer.bias().data(), layer.bias().data() + meta.out,
              plan.params_.data() + meta.b_off);
  }
  return plan;
}

template <>
Mlp CompiledMlp::ToMlp() const {
  Mlp model(config_);
  assert(model.layers().size() == layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    DenseLayer& layer = model.layers()[i];
    const PlanLayer& meta = layers_[i];
    std::copy(params_.data() + meta.w_off,
              params_.data() + meta.w_off + meta.in * meta.out,
              layer.weight().data());
    std::copy(params_.data() + meta.b_off,
              params_.data() + meta.b_off + meta.out, layer.bias().data());
  }
  return model;
}

template <typename T>
CompiledMlpT<T> CompiledMlpT<T>::FromPlan(const CompiledMlp& plan) {
  CompiledMlpT out = FromConfig(plan.config());
  for (size_t i = 0; i < out.params_.size(); ++i) {
    out.params_[i] = static_cast<T>(plan.params()[i]);
  }
  return out;
}

namespace {

// The caller's double inputs as T: read in place for the f64 tier,
// narrowed once into the arena's Input<T> buffer otherwise.
template <typename T>
const T* NativeInput(const double* x, size_t n, Workspace* ws) {
  if constexpr (std::is_same_v<T, double>) {
    return x;
  } else {
    T* xin = ws->Input<T>(n);
    for (size_t i = 0; i < n; ++i) xin[i] = static_cast<T>(x[i]);
    return xin;
  }
}

}  // namespace

template <typename T>
double CompiledMlpT<T>::PredictOne(const double* x, Workspace* ws) const {
  assert(!layers_.empty() && config_.out_dim == 1);
  T* ping = ws->Ping<T>(max_width_);
  T* pong = ws->Pong<T>(max_width_);
  // The first layer reads the (native) input; subsequent layers ping-pong
  // between the two arena buffers.
  const T* cur = NativeInput<T>(x, config_.in_dim, ws);
  for (const PlanLayer& L : layers_) {
    FusedDenseForward(cur, 1, L.in, params_.data() + L.w_off,
                      params_.data() + L.b_off, L.act, ping, L.out);
    cur = ping;
    std::swap(ping, pong);
  }
  return static_cast<double>(cur[0]);
}

template <typename T>
void CompiledMlpT<T>::PredictBatch(const double* x, size_t rows,
                                   Workspace* ws, double* out) const {
  if (rows == 0) return;
  PredictBatchNative(NativeInput<T>(x, rows * config_.in_dim, ws), rows, ws,
                     out);
}

template <typename T>
void CompiledMlpT<T>::PredictBatchNative(const T* x, size_t rows,
                                         Workspace* ws, double* out) const {
  assert(!layers_.empty());
  if (rows == 0) return;
  T* ping = ws->Ping<T>(rows * max_width_);
  T* pong = ws->Pong<T>(rows * max_width_);
  // The f64 tier writes its last layer straight into `out`; other tiers
  // stage it in the arena and widen.
  T* last = nullptr;
  if constexpr (std::is_same_v<T, double>) {
    last = out;
  } else {
    last = ws->Output<T>(rows * config_.out_dim);
  }
  const T* cur = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const PlanLayer& L = layers_[i];
    T* dst = (i + 1 == layers_.size()) ? last : ping;
    FusedDenseForward(cur, rows, L.in, params_.data() + L.w_off,
                      params_.data() + L.b_off, L.act, dst, L.out);
    cur = dst;
    std::swap(ping, pong);
  }
  if constexpr (!std::is_same_v<T, double>) {
    for (size_t i = 0; i < rows * config_.out_dim; ++i) {
      out[i] = static_cast<double>(last[i]);
    }
  }
}

template class CompiledMlpT<double>;
template class CompiledMlpT<float>;

}  // namespace nn
}  // namespace neurosketch
