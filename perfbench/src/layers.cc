// Per-layer probes of a traced run: each module's public entry point is
// called directly, one call per span, on the workload's own sketch, store
// and exact engine. The nn/tensor probes build plans with the sketch's own
// layer shapes (the sketch does not expose its compiled plans) and time
// them at the batch size a leaf sees in the engine.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "query/aggregate.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using neurosketch::AggregateAccumulator;
using neurosketch::ExactEngine;
using neurosketch::QueryInstance;
using neurosketch::Rng;
namespace nn = neurosketch::nn;

// Keeps timed results observable so the calls are not optimized away.
volatile double g_sink = 0.0;

/// Times `fn(i)` once per i in [0, n) as a span named `name`; returns the
/// per-call durations in ns.
template <typename Fn>
std::vector<double> TimeCalls(const char* name, size_t n, SpanLog* log,
                              const Fn& fn) {
  std::vector<double> ns(n);
  double sink = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    sink += fn(i);
    const int64_t t1 = NowNs();
    ns[i] = static_cast<double>(t1 - t0);
    if (log != nullptr) log->Add(name, i, -1, t0, t1);
  }
  g_sink = g_sink + sink;
  return ns;
}

/// Median over `reps` repetitions of (one call's ns / rows).
template <typename Fn>
double NsPerRow(const char* name, size_t reps, size_t rows, SpanLog* log,
                const Fn& fn) {
  std::vector<double> ns = TimeCalls(name, reps, log, fn);
  return Median(ns) / static_cast<double>(std::max<size_t>(1, rows));
}

}  // namespace

void ProbeLayers(const LayerProbe& in, Report* report) {
  const auto& qs = *in.queries;
  const size_t nq = qs.size();
  constexpr size_t kCalls = 20000;
  const auto* sketch = in.sketch;

  // serve.store: the lookups the engine makes per micro-batch.
  report->Add("serve.store.lookup_served_ns",
              Median(TimeCalls("serve.store.LookupServed", kCalls, in.log,
                               [&](size_t) {
                                 return in.store->LookupServed(in.key).sketch
                                                ? 1.0
                                                : 0.0;
                               })),
              "ns");
  double snap_ns = 0.0;
  if (in.store->Delta(in.key.dataset) != nullptr) {
    snap_ns = Median(TimeCalls("serve.store.DeltaSnap", kCalls, in.log, [&](size_t) {
      return static_cast<double>(in.store->Delta(in.key.dataset)->Snap().end());
    }));
  }
  report->Add("serve.store.delta_snap_ns", snap_ns, "ns");

  // core + index: single answers and the route they start with.
  report->Add("core.answer_ns_p50",
              Median(TimeCalls("core.Answer", kCalls, in.log,
                               [&](size_t i) { return sketch->Answer(qs[i % nq]); })),
              "ns");
  report->Add("index.route_ns_p50",
              Median(TimeCalls("index.Route", kCalls, in.log, [&](size_t i) {
                const auto* leaf = sketch->tree().Route(qs[i % nq]);
                return leaf != nullptr ? static_cast<double>(leaf->leaf_id) : -1.0;
              })),
              "ns");

  // core: the vectorized batch path at the engine's mean batch size.
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(in.mean_batch)));
  std::vector<std::vector<QueryInstance>> batches;
  for (size_t b = 0; b < 64; ++b) {
    std::vector<QueryInstance> v;
    for (size_t i = 0; i < batch; ++i) v.push_back(qs[(b * batch + i) % nq]);
    batches.push_back(std::move(v));
  }
  std::vector<double> out(batch);
  const size_t batch_reps = std::max<size_t>(200, kCalls / batch);
  report->Add("core.batch_ns_per_query",
              NsPerRow("core.AnswerBatchVectorizedTo", batch_reps, batch, in.log,
                       [&](size_t i) {
                         sketch->AnswerBatchVectorizedTo(batches[i % batches.size()],
                                                         out.data());
                         return out[0];
                       }),
              "ns");

  const auto& bs = sketch->stats();
  report->Add("core.build.partition_s", bs.partition_seconds, "s");
  report->Add("core.build.train_s", bs.train_seconds, "s");
  report->Add("core.build.calibrate_s", bs.calibrate_seconds, "s");

  // nn + tensor: a plan with the sketch's layer shapes and random weights,
  // run at the rows one leaf receives from a mean-size micro-batch.
  const size_t rows = std::max<size_t>(
      1, (batch + sketch->num_partitions() - 1) / std::max<size_t>(1, sketch->num_partitions()));
  nn::CompiledMlp plan = nn::CompiledMlp::FromConfig(nn::MlpConfig::Paper(
      sketch->query_dim(), in.config.n_layers, in.config.l_first, in.config.l_rest));
  Rng rng(7);
  for (double& p : plan.mutable_params()) p = rng.Uniform(-0.5, 0.5);
  const nn::CompiledMlpF32 plan32 = nn::CompiledMlpF32::FromPlan(plan);
  std::vector<double> x(rows * plan.in_dim());
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  std::vector<double> y(rows * plan.out_dim());
  nn::Workspace ws;
  const size_t plan_reps = std::max<size_t>(2000, kCalls / rows);
  report->Add("nn.predict_batch_ns_per_row.f64",
              NsPerRow("nn.CompiledMlp.PredictBatch", plan_reps, rows, in.log,
                       [&](size_t) {
                         plan.PredictBatch(x.data(), rows, &ws, y.data());
                         return y[0];
                       }),
              "ns");
  report->Add("nn.predict_batch_ns_per_row.f32",
              NsPerRow("nn.CompiledMlpF32.PredictBatch", plan_reps, rows, in.log,
                       [&](size_t) {
                         plan32.PredictBatch(x.data(), rows, &ws, y.data());
                         return y[0];
                       }),
              "ns");
  // One figure per dense layer of the plan (l0 = input layer).
  const auto& layers = plan.layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const nn::PlanLayer& L = layers[l];
    std::vector<double> lx(rows * L.in);
    for (double& v : lx) v = rng.Uniform(0.0, 1.0);
    std::vector<double> ly(rows * L.out);
    const double ns =
        Median(TimeCalls("tensor.FusedDenseForward", plan_reps, in.log, [&](size_t) {
          neurosketch::FusedDenseForward(lx.data(), rows, L.in,
                                         plan.params().data() + L.w_off,
                                         plan.params().data() + L.b_off, L.act,
                                         ly.data(), L.out);
          return ly[0];
        }));
    report->Add("tensor.fused_dense_ns.l" + std::to_string(l), ns, "ns");
  }

  // query: the exact engine's scan, the accumulation the streaming path
  // composes, and the base pin every micro-batch takes.
  constexpr size_t kExactCalls = 400;
  report->Add("query.exact_answer_us",
              Median(TimeCalls("query.ExactEngine.Answer", kExactCalls, in.log,
                               [&](size_t i) {
                                 return in.engine->Answer(in.exact_spec, qs[i % nq]);
                               })) / 1e3,
              "us");
  const ExactEngine::PinnedBase pinned = in.engine->Pin();
  report->Add("query.accumulate_us",
              Median(TimeCalls("query.AccumulateOver", kExactCalls, in.log,
                               [&](size_t i) {
                                 AggregateAccumulator acc(in.exact_spec.agg);
                                 ExactEngine::AccumulateOver(*pinned.table, in.exact_spec,
                                                             qs[i % nq], &acc);
                                 return acc.Finalize();
                               })) / 1e3,
              "us");
  report->Add("query.pin_ns",
              Median(TimeCalls("query.ExactEngine.Pin", kCalls, in.log, [&](size_t) {
                return static_cast<double>(in.engine->Pin().folded);
              })),
              "ns");
}

}  // namespace perfbench
