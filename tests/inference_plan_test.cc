// Golden equivalence tests for the compiled inference-plan layer: the
// CompiledMlp flat-buffer path must be bit-identical to the Matrix-based
// scalar path on every surface (PredictOne, batches, sketch Answer*,
// serialization), parallel construction must reproduce the sequential
// build exactly, and the serve hot path must not allocate per query.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "core/neurosketch.h"
#include "data/generators.h"
#include "nn/inference_plan.h"
#include "nn/serialize.h"
#include "query/predicate.h"
#include "util/random.h"

// Global allocation counter for the zero-allocation test. Counting every
// operator new in the binary is coarse but exact: a hot path that performs
// zero allocations leaves the counter untouched.
namespace {
std::atomic<size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t sz) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz == 0 ? 1 : sz);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz == 0 ? 1 : sz);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// Out of line so GCC never inlines the free() into a caller holding a
// new-expression's pointer, which -Wmismatched-new-delete (seen in
// sanitizer builds) would misread as a new/free mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace neurosketch {
namespace {

std::vector<double> RandomInput(Rng* rng, size_t dim) {
  std::vector<double> x(dim);
  for (double& v : x) v = rng->Uniform(-1.0, 1.0);
  return x;
}

// Compare a compiled-plan answer against the f64 scalar reference. At the
// default precision the contract is bitwise equality; when the CI matrix
// forces the f32 tier (NEUROSKETCH_FORCE_F32_PLANS=1) the compiled path
// legitimately diverges within that tier's validated error bound, so
// compare with an answer-space tolerance instead. The bound is in
// standardized units; answer-space divergence is bound x the leaf's
// target scale, so callers pass `answer_scale` = 1 + the workload's max
// |answer| (an upper proxy for any leaf's target stddev).
void ExpectMatchesScalar(const NeuroSketch& sketch, double compiled,
                         double scalar, double answer_scale) {
  if (sketch.plan_precision() == PlanPrecision::kF32) {
    EXPECT_NEAR(compiled, scalar, sketch.f32_error_bound() * answer_scale);
  } else {
    EXPECT_EQ(compiled, scalar);
  }
}

double AnswerScale(const NeuroSketch& sketch,
                   const std::vector<QueryInstance>& probes) {
  double max_abs = 0.0;
  for (const auto& q : probes) {
    const double a = sketch.AnswerScalar(q);
    if (std::isfinite(a)) max_abs = std::max(max_abs, std::fabs(a));
  }
  return 1.0 + max_abs;
}

TEST(CompiledMlpTest, PredictOneBitIdenticalAcrossActivations) {
  Rng rng(101);
  for (nn::Activation act : {nn::Activation::kRelu, nn::Activation::kTanh,
                             nn::Activation::kSigmoid}) {
    for (size_t in_dim : {1u, 3u, 7u}) {
      nn::MlpConfig cfg;
      cfg.in_dim = in_dim;
      cfg.hidden = {13, 5};
      cfg.hidden_act = act;
      nn::Mlp model(cfg, /*seed=*/900 + in_dim);
      nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);
      EXPECT_EQ(plan.num_params(), model.num_params());
      nn::Workspace ws;
      for (int trial = 0; trial < 20; ++trial) {
        const std::vector<double> x = RandomInput(&rng, in_dim);
        // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the claim is bitwise equality.
        EXPECT_EQ(plan.PredictOne(x.data(), &ws), model.PredictOne(x));
      }
    }
  }
}

TEST(CompiledMlpTest, PredictBatchBitIdenticalToMlpPredict) {
  Rng rng(202);
  nn::Mlp model(nn::MlpConfig::Paper(4, 5, 32, 16), 7);
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);
  nn::Workspace ws;
  for (size_t rows : {1u, 2u, 17u, 64u}) {
    Matrix inputs(rows, 4);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < 4; ++c) inputs(r, c) = rng.Uniform();
    }
    Matrix expect;
    model.Predict(inputs, &expect);
    std::vector<double> got(rows);
    plan.PredictBatch(inputs.data(), rows, &ws, got.data());
    for (size_t r = 0; r < rows; ++r) EXPECT_EQ(got[r], expect(r, 0));
  }
}

TEST(CompiledMlpTest, SerializationMatchesMlpByteForByte) {
  nn::Mlp model(nn::MlpConfig::Paper(3, 4, 20, 10), 55);
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);

  std::ostringstream via_mlp, via_plan;
  ASSERT_TRUE(nn::SaveMlp(model, &via_mlp).ok());
  ASSERT_TRUE(nn::SaveCompiledMlp(plan, &via_plan).ok());
  EXPECT_EQ(via_mlp.str(), via_plan.str());

  std::istringstream in(via_plan.str());
  auto loaded = nn::LoadCompiledMlp(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().params(), plan.params());

  // ToMlp rehydrates the trainable form bit-exactly.
  nn::Mlp back = loaded.value().ToMlp();
  Rng rng(66);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> x = RandomInput(&rng, 3);
    EXPECT_EQ(back.PredictOne(x), model.PredictOne(x));
  }
}

// Both precision tiers share one plan template; every tier must keep the
// batch/single-row and native-input contracts on every activation.
template <typename T>
class CompiledMlpTierTest : public ::testing::Test {};
using PlanElementTypes = ::testing::Types<double, float>;
TYPED_TEST_SUITE(CompiledMlpTierTest, PlanElementTypes);

TYPED_TEST(CompiledMlpTierTest, BatchNativeAndNarrowingContracts) {
  using T = TypeParam;
  Rng rng(303);
  for (nn::Activation act :
       {nn::Activation::kIdentity, nn::Activation::kRelu,
        nn::Activation::kTanh, nn::Activation::kSigmoid}) {
    nn::MlpConfig cfg;
    cfg.in_dim = 3;
    cfg.hidden = {11, 6};
    cfg.hidden_act = act;
    const nn::CompiledMlp ref = nn::CompiledMlp::FromMlp(
        nn::Mlp(cfg, /*seed=*/40 + static_cast<uint64_t>(act)));
    const auto plan = nn::CompiledMlpT<T>::FromPlan(ref);

    // FromPlan narrows (or, for double, copies) every parameter.
    ASSERT_EQ(plan.params().size(), ref.params().size());
    for (size_t i = 0; i < ref.params().size(); ++i) {
      EXPECT_EQ(plan.params()[i], static_cast<T>(ref.params()[i])) << i;
    }

    nn::Workspace ws;
    for (size_t rows : {1u, 2u, 7u, 64u}) {
      std::vector<double> x(rows * cfg.in_dim);
      for (double& v : x) v = rng.Uniform(-1.0, 1.0);
      std::vector<double> batch(rows);
      plan.PredictBatch(x.data(), rows, &ws, batch.data());
      // Row r of a batch is bit-identical to the single-row pass.
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(batch[r], plan.PredictOne(x.data() + r * cfg.in_dim, &ws))
            << "act " << static_cast<int>(act) << " rows " << rows << " row "
            << r;
      }
      // The native-input entry point serves the same bits on the same
      // narrowed inputs.
      std::vector<T> xn(x.size());
      for (size_t i = 0; i < x.size(); ++i) xn[i] = static_cast<T>(x[i]);
      std::vector<double> native(rows);
      plan.PredictBatchNative(xn.data(), rows, &ws, native.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(native[r], batch[r]) << "rows " << rows << " row " << r;
      }
    }
  }
}

// Build a sketch over a real (synthetic-data) query function, as the
// serving path would.
Result<NeuroSketch> BuildSketch(uint64_t seed, size_t train_threads,
                                std::vector<QueryInstance>* probes) {
  Table t = MakeUniformTable(4000, 2, seed);
  ExactEngine engine(&t);
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  WorkloadConfig wc;
  wc.num_active = 1;
  wc.seed = seed + 1;
  WorkloadGenerator gen(2, wc);
  auto queries = gen.GenerateMany(500, &engine, &spec);
  auto answers = engine.AnswerBatch(spec, queries);

  NeuroSketchConfig cfg;
  cfg.tree_height = 2;
  cfg.target_partitions = 4;
  cfg.n_layers = 4;
  cfg.l_first = 24;
  cfg.l_rest = 16;
  cfg.train.epochs = 40;
  cfg.seed = seed + 2;
  cfg.train_threads = train_threads;

  if (probes != nullptr) {
    WorkloadConfig pc = wc;
    pc.seed = seed + 3;
    WorkloadGenerator pgen(2, pc);
    *probes = pgen.GenerateMany(200, &engine, &spec);
  }
  return NeuroSketch::Train(queries, answers, cfg);
}

TEST(InferencePlanGoldenTest, AnswerSurfacesBitIdentical) {
  // Several randomly-built sketches: every answering surface (compiled
  // Answer, scalar reference, batch) must return the exact same doubles.
  for (uint64_t seed : {11u, 223u, 4999u}) {
    std::vector<QueryInstance> probes;
    auto sketch = BuildSketch(seed, /*train_threads=*/0, &probes);
    ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
    EXPECT_TRUE(sketch.value().compiled());

    const auto batch = sketch.value().AnswerBatch(probes);
    ASSERT_EQ(batch.size(), probes.size());
    const double scale = AnswerScale(sketch.value(), probes);
    for (size_t i = 0; i < probes.size(); ++i) {
      const double compiled = sketch.value().Answer(probes[i]);
      const double scalar = sketch.value().AnswerScalar(probes[i]);
      // All compiled surfaces serve the same bits as Answer regardless of
      // tier; only the scalar-reference comparison is precision-aware.
      ExpectMatchesScalar(sketch.value(), compiled, scalar, scale);
      EXPECT_EQ(compiled, batch[i]) << "probe " << i << " seed " << seed;
    }
  }
}

TEST(InferencePlanGoldenTest, ParallelConstructionReproducesSequential) {
  std::vector<QueryInstance> probes;
  auto sequential = BuildSketch(31, /*train_threads=*/1, &probes);
  ASSERT_TRUE(sequential.ok());
  for (size_t threads : {0u, 2u, 5u}) {
    auto parallel = BuildSketch(31, threads, nullptr);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel.value().SizeBytes(), sequential.value().SizeBytes());
    EXPECT_EQ(parallel.value().num_partitions(),
              sequential.value().num_partitions());
    for (const auto& q : probes) {
      EXPECT_EQ(parallel.value().Answer(q), sequential.value().Answer(q));
    }
  }
}

TEST(InferencePlanGoldenTest, SaveLoadServesIdenticalAnswers) {
  std::vector<QueryInstance> probes;
  auto sketch = BuildSketch(77, 0, &probes);
  ASSERT_TRUE(sketch.ok());

  const std::string path = "/tmp/ns_plan_roundtrip.sketch";
  ASSERT_TRUE(sketch.value().Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.value().compiled());
  EXPECT_EQ(loaded.value().SizeBytes(), sketch.value().SizeBytes());
  const double scale = AnswerScale(loaded.value(), probes);
  for (const auto& q : probes) {
    EXPECT_EQ(loaded.value().Answer(q), sketch.value().Answer(q));
    ExpectMatchesScalar(loaded.value(), sketch.value().Answer(q),
                        loaded.value().AnswerScalar(q), scale);
  }
}

TEST(InferencePlanGoldenTest, AnswerIsZeroAllocationWhenWarm) {
  std::vector<QueryInstance> probes;
  auto sketch = BuildSketch(55, 0, &probes);
  ASSERT_TRUE(sketch.ok());

  // Warm the calling thread's workspace, then demand allocation silence.
  double sink = 0.0;
  for (const auto& q : probes) sink += sketch.value().Answer(q);

  const size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    for (const auto& q : probes) sink += sketch.value().Answer(q);
  }
  const size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "Answer allocated on the hot path";
  // Keep `sink` observable so the loop cannot be optimized away.
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(InferencePlanGoldenTest, BatchVectorizedIsZeroAllocationWhenWarm) {
  std::vector<QueryInstance> probes;
  auto sketch = BuildSketch(56, 0, &probes);
  ASSERT_TRUE(sketch.ok());

  // The allocation-free surface takes a caller-owned output buffer; the
  // bucketing scratch and all model math live in the thread-local arena.
  std::vector<double> out(probes.size());
  for (int rep = 0; rep < 3; ++rep) {
    sketch.value().AnswerBatchVectorizedTo(probes, out.data());
  }

  const size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    sketch.value().AnswerBatchVectorizedTo(probes, out.data());
  }
  const size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "AnswerBatchVectorizedTo allocated on the warm batch path";

  // And it answers exactly what per-query Answer answers.
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(out[i], sketch.value().Answer(probes[i])) << "probe " << i;
  }
}

}  // namespace
}  // namespace neurosketch
