// Fig. 19 (Appendix A.5): using the Theorem-3.4 construction in practice.
// Compares CS (the construction as-is), CS+SGD (construction as SGD
// initialization) and randomly initialized FNN+SGD at several depths, for
// a 2-D and a 4-D query function on VS-like data, with roughly matched
// parameter budgets.
//
// Expected shape (paper): for the 2-D query CS+SGD is competitive or
// better and CS is close to FNNs; for the 4-D query CS degrades badly and
// FNN+SGD wins.
#include "bench_common.h"
#include "nn/construction.h"

using namespace neurosketch;
using namespace neurosketch::bench;

namespace {

struct Series {
  std::vector<QueryInstance> train_q, test_q;
  std::vector<double> train_a, test_a;
  size_t qdim;
};

Series MakeSeries(bool four_d) {
  Dataset d = MakeVerasetLike(20000, 1400);
  Normalizer norm = Normalizer::Fit(d.table);
  Table table = norm.Transform(d.table);
  ExactEngine engine(&table);
  QueryFunctionSpec spec = AxisSpec(Aggregate::kAvg, 2);
  WorkloadConfig wc;
  wc.num_active = 2;
  wc.fixed_attrs = {0, 1};
  wc.min_matches = 3;
  wc.seed = 1401;
  if (four_d) {
    wc.range_frac_lo = 0.1;
    wc.range_frac_hi = 0.5;
  } else {
    wc.range_frac_lo = wc.range_frac_hi = 0.2;  // fixed range -> 2-D input
  }
  WorkloadGenerator gen(3, wc);
  Series s;
  auto full_train = gen.GenerateMany(1500, &engine, &spec);
  s.train_a = engine.AnswerBatch(spec, full_train, 8);
  wc.seed = 1402;
  WorkloadGenerator tg(3, wc);
  auto full_test = tg.GenerateMany(250, &engine, &spec);
  s.test_a = engine.AnswerBatch(spec, full_test, 8);
  // Project the full 6-D (c, r) encoding down to the active inputs:
  // 2-D query: (c0, c1); 4-D query: (c0, c1, r0, r1).
  auto project = [&](const QueryInstance& q) {
    std::vector<double> v = {q[0], q[1]};
    if (four_d) {
      v.push_back(q[3 + 0]);
      v.push_back(q[3 + 1]);
    }
    return QueryInstance(v);
  };
  for (const auto& q : full_train) s.train_q.push_back(project(q));
  for (const auto& q : full_test) s.test_q.push_back(project(q));
  s.qdim = four_d ? 4 : 2;
  return s;
}

double NormMae(const Series& s, const std::function<double(
                                    const QueryInstance&)>& answer) {
  std::vector<double> truth, pred;
  for (size_t i = 0; i < s.test_q.size(); ++i) {
    if (std::isnan(s.test_a[i])) continue;
    truth.push_back(s.test_a[i]);
    pred.push_back(answer(s.test_q[i]));
  }
  return stats::NormalizedMae(truth, pred);
}

void RunSeries(const char* title, bool four_d) {
  std::printf("\n-- %s --\n", title);
  Series s = MakeSeries(four_d);
  // Grid resolution so the construction has a moderate parameter count.
  const size_t t = four_d ? 4 : 14;
  auto lookup = [&](const std::vector<double>& x) {
    // Nearest-training-query value as the construction's target f: the
    // construction needs f at grid vertices, which we estimate from the
    // training set (exact engine re-query would also work; this mirrors
    // learning from the training set only).
    double best = 1e300, val = 0.0;
    for (size_t i = 0; i < s.train_q.size(); ++i) {
      if (std::isnan(s.train_a[i])) continue;
      double d2 = 0.0;
      for (size_t j = 0; j < x.size(); ++j) {
        const double dd = x[j] - s.train_q[i][j];
        d2 += dd * dd;
      }
      if (d2 < best) {
        best = d2;
        val = s.train_a[i];
      }
    }
    return val;
  };
  auto cs = nn::GUnitNetwork::Construct(lookup, s.qdim, t, 1.0);
  if (cs.ok()) {
    std::printf("%-14s params=%-7zu norm_MAE=%.4f\n", "CS",
                cs.value().num_params(),
                NormMae(s, [&](const QueryInstance& q) {
                  return cs.value().Evaluate(q.q);
                }));
    // CS+SGD.
    Matrix inputs(s.train_q.size(), s.qdim), targets(s.train_q.size(), 1);
    size_t rows = 0;
    for (size_t i = 0; i < s.train_q.size(); ++i) {
      if (std::isnan(s.train_a[i])) continue;
      for (size_t j = 0; j < s.qdim; ++j) inputs(rows, j) = s.train_q[i][j];
      targets(rows, 0) = s.train_a[i];
      ++rows;
    }
    Matrix in2(rows, s.qdim), tg2(rows, 1);
    for (size_t i = 0; i < rows; ++i) {
      std::copy(inputs.row(i), inputs.row(i) + s.qdim, in2.row(i));
      tg2(i, 0) = targets(i, 0);
    }
    nn::GUnitNetwork tuned = std::move(cs).value();
    tuned.TrainSgd(in2, tg2, /*epochs=*/80, /*batch=*/32, /*lr=*/0.02, 1403);
    std::printf("%-14s params=%-7zu norm_MAE=%.4f\n", "CS+SGD",
                tuned.num_params(), NormMae(s, [&](const QueryInstance& q) {
                  return tuned.Evaluate(q.q);
                }));
  }
  // FNN+SGD at matched parameter budgets, varying depth.
  const size_t budget = four_d ? 4 * 625 : 3 * 225;  // ~construction size
  for (size_t depth : {2u, 4u, 6u, 8u}) {
    // Choose a width so total params ~ budget.
    size_t width = 4;
    for (size_t w = 4; w <= 256; w += 2) {
      nn::MlpConfig probe = nn::MlpConfig::Paper(s.qdim, depth, w, w);
      nn::Mlp m(probe, 1);
      if (m.num_params() > budget) break;
      width = w;
    }
    NeuroSketchConfig cfg;
    cfg.tree_height = 0;
    cfg.target_partitions = 1;
    cfg.n_layers = depth;
    cfg.l_first = width;
    cfg.l_rest = width;
    cfg.train.epochs = 120;
    cfg.train.learning_rate = 2e-3;
    auto sketch = NeuroSketch::Train(s.train_q, s.train_a, cfg);
    if (!sketch.ok()) continue;
    std::printf("FNN+SGD(%zu)    params~%-6zu norm_MAE=%.4f\n", depth,
                budget, NormMae(s, [&](const QueryInstance& q) {
                  return sketch.value().Answer(q);
                }));
  }
}

// ------------------------------------------------------------------------
// Thread-scaling of the end-to-end construction pipeline: every phase of
// NeuroSketch::Train (kd-tree partition + AQC merge, per-leaf training,
// and the f32 compile-and-validate replay) runs on the shared pool
// under NeuroSketchConfig::train_threads, and the build is bit-identical
// at every thread count (construction_parallel_test pins this; SizeBytes
// is printed here as a cheap witness). Expected shape: all three phases
// shrink as threads grow, with end-to-end speedup >= 1.5x at 4 threads.
void RunThreadScaling() {
  std::printf("\n-- construction thread-scaling (paper-default sketch) --\n");
  // A default workload big enough that partition crosses the kd-tree
  // parallel cutoff and the f32 validation replays a few thousand queries.
  Dataset d = MakeVerasetLike(20000, 1400);
  Normalizer norm = Normalizer::Fit(d.table);
  Table table = norm.Transform(d.table);
  ExactEngine engine(&table);
  QueryFunctionSpec spec = AxisSpec(Aggregate::kAvg, 2);
  WorkloadConfig wc;
  wc.num_active = 2;
  wc.fixed_attrs = {0, 1};
  wc.min_matches = 3;
  wc.seed = 1405;
  WorkloadGenerator gen(3, wc);
  auto queries = gen.GenerateMany(5000, &engine, &spec);
  auto answers = engine.AnswerBatch(spec, queries, 8);

  NeuroSketchConfig cfg;  // paper defaults: height 4, 8 leaves, 5x(60,30)
  cfg.train.epochs = 25;
  cfg.plan_precision = PlanPrecision::kF32;  // exercises the calibrate phase
  cfg.seed = 1406;

  double base_total = 0.0;
  metrics::MetricsRegistry registry;
  std::printf("%8s %12s %12s %12s %12s %9s %12s\n", "threads", "partition_s",
              "train_s", "calibrate_s", "total_s", "speedup", "size_bytes");
  for (size_t threads : {1u, 2u, 4u, 0u}) {
    cfg.train_threads = threads;
    Timer total;
    auto sketch = NeuroSketch::Train(queries, answers, cfg);
    const double total_s = total.ElapsedSeconds();
    if (!sketch.ok()) continue;
    const auto& st = sketch.value().stats();
    if (threads == 1) base_total = total_s;
    std::printf("%8s %12.4f %12.4f %12.4f %12.4f %8.2fx %12zu\n",
                threads == 0 ? "hw" : std::to_string(threads).c_str(),
                st.partition_seconds, st.train_seconds, st.calibrate_seconds,
                total_s, base_total > 0.0 ? base_total / total_s : 0.0,
                sketch.value().SizeBytes());
    if (threads == 0) sketch.value().ExportBuildMetrics(&registry);
  }
  // The same uniform build-metrics document nsketch_cli train and the
  // serving bench emit (hw-thread build; see docs/OBSERVABILITY.md).
  std::printf("\n-- build metrics --\n%s", registry.TextExposition().c_str());
}

}  // namespace

int main() {
  PrintHeader("Figure 19: construction (CS) vs CS+SGD vs FNN+SGD");
  RunSeries("2-dimensional query function (fixed range)", false);
  RunSeries("4-dimensional query function (variable range)", true);
  RunThreadScaling();
  std::printf(
      "\nShape checks vs paper: CS is viable at 2-D (CS+SGD competitive);\n"
      "at 4-D CS degrades sharply and FNN+SGD dominates. Construction\n"
      "scales with train_threads across all phases, bit-identically.\n");
  return 0;
}
