#include "nn/inference_plan.h"

#include <algorithm>
#include <cassert>

namespace neurosketch {
namespace nn {

Workspace& Workspace::ThreadLocal() {
  thread_local Workspace ws;
  return ws;
}

CompiledMlp CompiledMlp::FromConfig(const MlpConfig& config) {
  CompiledMlp plan;
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
  plan.params_.assign(off, 0.0);
  return plan;
}

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

double CompiledMlp::PredictOne(const double* x, Workspace* ws) const {
  assert(!layers_.empty() && config_.out_dim == 1);
  double* ping = ws->Ping(max_width_);
  double* pong = ws->Pong(max_width_);
  // The first layer reads the caller's input in place; subsequent layers
  // ping-pong between the two arena buffers.
  const double* cur = x;
  for (const PlanLayer& L : layers_) {
    FusedDenseForward(cur, 1, L.in, params_.data() + L.w_off,
                      params_.data() + L.b_off, L.act, ping, L.out);
    cur = ping;
    std::swap(ping, pong);
  }
  return cur[0];
}

void CompiledMlp::PredictBatch(const double* x, size_t rows, Workspace* ws,
                               double* out) const {
  assert(!layers_.empty());
  if (rows == 0) return;
  double* ping = ws->Ping(rows * max_width_);
  double* pong = ws->Pong(rows * max_width_);
  const double* cur = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const PlanLayer& L = layers_[i];
    double* dst = (i + 1 == layers_.size()) ? out : ping;
    FusedDenseForward(cur, rows, L.in, params_.data() + L.w_off,
                      params_.data() + L.b_off, L.act, dst, L.out);
    cur = dst;
    std::swap(ping, pong);
  }
}

CompiledMlpF32 CompiledMlpF32::FromPlan(const CompiledMlp& plan) {
  CompiledMlpF32 f32;
  f32.config_ = plan.config();
  f32.layers_ = plan.layers();
  f32.max_width_ = plan.max_width();
  f32.params_.resize(plan.params().size());
  for (size_t i = 0; i < f32.params_.size(); ++i) {
    f32.params_[i] = static_cast<float>(plan.params()[i]);
  }
  return f32;
}

double CompiledMlpF32::PredictOne(const double* x, Workspace* ws) const {
  assert(!layers_.empty() && config_.out_dim == 1);
  float* ping = ws->PingF(max_width_);
  float* pong = ws->PongF(max_width_);
  // Narrow the caller's doubles into the arena once; the layer loop then
  // runs entirely in float.
  float* xin = ws->InputF(config_.in_dim);
  for (size_t i = 0; i < config_.in_dim; ++i) {
    xin[i] = static_cast<float>(x[i]);
  }
  const float* cur = xin;
  for (const PlanLayer& L : layers_) {
    FusedDenseForwardF32(cur, 1, L.in, params_.data() + L.w_off,
                         params_.data() + L.b_off, L.act, ping, L.out);
    cur = ping;
    std::swap(ping, pong);
  }
  return static_cast<double>(cur[0]);
}

void CompiledMlpF32::PredictBatch(const double* x, size_t rows, Workspace* ws,
                                  double* out) const {
  if (rows == 0) return;
  float* xin = ws->InputF(rows * config_.in_dim);
  for (size_t i = 0; i < rows * config_.in_dim; ++i) {
    xin[i] = static_cast<float>(x[i]);
  }
  PredictBatchF32In(xin, rows, ws, out);
}

void CompiledMlpF32::PredictBatchF32In(const float* x, size_t rows,
                                       Workspace* ws, double* out) const {
  assert(!layers_.empty());
  if (rows == 0) return;
  float* ping = ws->PingF(rows * max_width_);
  float* pong = ws->PongF(rows * max_width_);
  float* staged = ws->OutputF(rows * config_.out_dim);
  const float* cur = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const PlanLayer& L = layers_[i];
    float* dst = (i + 1 == layers_.size()) ? staged : ping;
    FusedDenseForwardF32(cur, rows, L.in, params_.data() + L.w_off,
                         params_.data() + L.b_off, L.act, dst, L.out);
    cur = dst;
    std::swap(ping, pong);
  }
  for (size_t i = 0; i < rows * config_.out_dim; ++i) {
    out[i] = static_cast<double>(staged[i]);
  }
}

}  // namespace nn
}  // namespace neurosketch
