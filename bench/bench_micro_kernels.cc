// Micro-benchmarks (google-benchmark) for the hot kernels behind the
// paper's query-time numbers: NeuroSketch forward pass (the few-microsecond
// claim), kd-tree routing, R-tree range queries, exact scans and GEMM.
#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace neurosketch;
using namespace neurosketch::bench;

namespace {

// Shared fixtures built once.
struct Fixtures {
  PreparedDataset data = Prepare("VS");
  Workbench wb;
  Result<NeuroSketch> sketch = Status::Unknown("unbuilt");
  TreeAgg tree_agg;
  Fixtures() : wb(MakeWorkbench(Prepare("VS"), Aggregate::kAvg,
                                DefaultWorkload("VS", 1500), 800, 100)) {
    NeuroSketchConfig cfg = DefaultSketchConfig();
    cfg.train.epochs = 40;
    sketch = NeuroSketch::Train(wb.train_q, wb.train_a, cfg);
    TreeAggConfig tc;
    tc.sample_size = 4000;
    tree_agg = TreeAgg::Build(wb.data.normalized, tc);
  }
};

Fixtures& F() {
  static Fixtures fixtures;
  return fixtures;
}

void BM_NeuroSketchAnswer(benchmark::State& state) {
  auto& f = F();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.sketch.value().Answer(f.wb.test_q[i++ % f.wb.test_q.size()]));
  }
}
BENCHMARK(BM_NeuroSketchAnswer);

void BM_MlpForward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictOne(x));
  }
}
BENCHMARK(BM_MlpForward)->Arg(3)->Arg(5)->Arg(10);

void BM_CompiledMlpForward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);
  nn::Workspace ws;
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.PredictOne(x.data(), &ws));
  }
}
BENCHMARK(BM_CompiledMlpForward)->Arg(3)->Arg(5)->Arg(10);

void BM_CompiledMlpForwardF32(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  const auto plan =
      nn::CompiledMlpT<float>::FromPlan(nn::CompiledMlp::FromMlp(model));
  nn::Workspace ws;
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.PredictOne(x.data(), &ws));
  }
}
BENCHMARK(BM_CompiledMlpForwardF32)->Arg(3)->Arg(5)->Arg(10);

void BM_TreeAggAnswer(benchmark::State& state) {
  auto& f = F();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree_agg.Answer(f.wb.spec, f.wb.test_q[i++ % f.wb.test_q.size()]));
  }
}
BENCHMARK(BM_TreeAggAnswer);

void BM_ExactScan(benchmark::State& state) {
  auto& f = F();
  ExactEngine engine(&f.wb.data.normalized);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Answer(f.wb.spec, f.wb.test_q[i++ % f.wb.test_q.size()]));
  }
}
BENCHMARK(BM_ExactScan);

void BM_RTreeRangeQuery(benchmark::State& state) {
  Rng rng(1600);
  std::vector<std::vector<double>> points(
      static_cast<size_t>(state.range(0)), std::vector<double>(3));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  RTree tree = RTree::BulkLoad(points);
  std::vector<double> lo = {0.3, 0.3, 0.3}, hi = {0.5, 0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeQuery(lo, hi));
  }
}
BENCHMARK(BM_RTreeRangeQuery)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Gemm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1601);
  Matrix a(n, n), b(n, n), out;
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform();
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Uniform();
  for (auto _ : state) {
    Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Gemm)->Arg(16)->Arg(64)->Arg(128);

void BM_KdTreeRoute(benchmark::State& state) {
  Rng rng(1602);
  std::vector<QueryInstance> queries;
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> v(6);
    for (auto& x : v) x = rng.Uniform();
    queries.emplace_back(std::move(v));
  }
  auto tree = QuerySpaceKdTree::Build(queries, 4);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Route(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_KdTreeRoute);

}  // namespace

BENCHMARK_MAIN();
