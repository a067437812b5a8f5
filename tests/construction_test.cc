// Tests for the Theorem 3.4 / Algorithm 1 constructive network: exact
// memorization at grid vertices (Lemma A.1), constant behaviour inside the
// inner cell region (Lemma A.2a), the 1-norm error bound (Eq. 7), and the
// CS+SGD trainable variant (Appendix A.5) — plus the NeuroSketch
// construction-pipeline phase accounting (BuildStats).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "core/neurosketch.h"
#include "nn/construction.h"
#include "util/random.h"

namespace neurosketch {
namespace nn {
namespace {

TEST(VertexDigitsTest, MatchesPaperExample) {
  // Paper: t = 3, pi^6 = (1, 2) since 6 = 1*(t+1) + 2.
  auto digits = GUnitNetwork::VertexDigits(6, /*d=*/2, /*t=*/3);
  ASSERT_EQ(digits.size(), 2u);
  EXPECT_EQ(digits[0], 1u);
  EXPECT_EQ(digits[1], 2u);
}

TEST(VertexDigitsTest, EnumeratesAllVertices) {
  const size_t d = 3, t = 2;
  std::set<std::vector<size_t>> seen;
  for (size_t i = 0; i < 27; ++i) {
    seen.insert(GUnitNetwork::VertexDigits(i, d, t));
  }
  EXPECT_EQ(seen.size(), 27u);
}

TEST(ConstructTest, RejectsBadArguments) {
  auto f = [](const std::vector<double>&) { return 0.0; };
  EXPECT_FALSE(GUnitNetwork::Construct(f, 0, 3).ok());
  EXPECT_FALSE(GUnitNetwork::Construct(f, 2, 0).ok());
  EXPECT_FALSE(GUnitNetwork::Construct(f, 2, 3, 0.5).ok());
  // (t+1)^d unit blow-up guard.
  EXPECT_FALSE(GUnitNetwork::Construct(f, 10, 10).ok());
}

// Lemma A.1 (memorization): f(p) == f̂(p) for all grid vertices, across
// dimensions and resolutions.
class MemorizationTest
    : public testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MemorizationTest, AllVerticesExact) {
  auto [d, t] = GetParam();
  // A non-trivial smooth target.
  auto f = [](const std::vector<double>& x) {
    double acc = 0.3;
    for (size_t i = 0; i < x.size(); ++i) {
      acc += std::sin(3.0 * x[i] + static_cast<double>(i));
    }
    return acc;
  };
  auto net = GUnitNetwork::Construct(f, d, t, /*big_m=*/1.0);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const size_t k = static_cast<size_t>(
      std::pow(static_cast<double>(t + 1), static_cast<double>(d)));
  for (size_t i = 0; i < k; ++i) {
    auto digits = GUnitNetwork::VertexDigits(i, d, t);
    std::vector<double> x(d);
    for (size_t r = 0; r < d; ++r) {
      x[r] = static_cast<double>(digits[r]) / static_cast<double>(t);
    }
    EXPECT_NEAR(net.value().Evaluate(x), f(x), 1e-9)
        << "vertex " << i << " d=" << d << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, MemorizationTest,
    testing::Combine(testing::Values<size_t>(1, 2, 3),
                     testing::Values<size_t>(1, 2, 3, 4, 6)));

// Lemma A.2 (a): with M > 1, f̂ is constant on the sub-cell
// C_i = { pi/t + z, z in [0, 1/t - 1/(Mt)]^d } and equals f(pi/t).
TEST(BoundedChangeTest, ConstantInsideInnerCell) {
  const size_t d = 2, t = 4;
  const double M = 4.0;
  auto f = [](const std::vector<double>& x) {
    return x[0] * x[0] + 0.5 * x[1];
  };
  auto net = GUnitNetwork::Construct(f, d, t, M);
  ASSERT_TRUE(net.ok());
  Rng rng(77);
  const double inner = 1.0 / t - 1.0 / (M * t);
  for (int cell = 0; cell < 16; ++cell) {
    const size_t cx = rng.Index(t), cy = rng.Index(t);
    const std::vector<double> vertex = {static_cast<double>(cx) / t,
                                        static_cast<double>(cy) / t};
    const double at_vertex = net.value().Evaluate(vertex);
    EXPECT_NEAR(at_vertex, f(vertex), 1e-9);
    for (int s = 0; s < 8; ++s) {
      std::vector<double> x = {vertex[0] + rng.Uniform(0.0, inner),
                               vertex[1] + rng.Uniform(0.0, inner)};
      EXPECT_NEAR(net.value().Evaluate(x), at_vertex, 1e-9)
          << "cell (" << cx << "," << cy << ")";
    }
  }
}

// Eq. 7: the 1-norm error is bounded by ~3 rho d / t for Lipschitz f.
// Monte-Carlo integrate the error and compare against the bound.
class ErrorBoundTest : public testing::TestWithParam<size_t> {};

TEST_P(ErrorBoundTest, OneNormErrorWithinTheoremBound) {
  const size_t t = GetParam();
  const size_t d = 2;
  const double rho = 2.0;  // f below is rho-Lipschitz in the 1-norm
  auto f = [](const std::vector<double>& x) {
    return std::fabs(x[0] - 0.4) + std::fabs(x[1] - 0.6);
  };
  auto net_r = GUnitNetwork::Construct(f, d, t, 1.0);
  ASSERT_TRUE(net_r.ok());
  const auto& net = net_r.value();
  Rng rng(t);
  double acc = 0.0;
  const int samples = 4000;
  for (int i = 0; i < samples; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    acc += std::fabs(net.Evaluate(x) - f(x));
  }
  const double mc_error = acc / samples;
  const double bound =
      3.0 * rho * static_cast<double>(d) / static_cast<double>(t);
  EXPECT_LE(mc_error, bound) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(Resolutions, ErrorBoundTest,
                         testing::Values<size_t>(2, 4, 8, 16));

TEST(ErrorBoundTest, ErrorShrinksWithResolution) {
  const size_t d = 1;
  auto f = [](const std::vector<double>& x) { return std::sin(4.0 * x[0]); };
  double prev = 1e9;
  for (size_t t : {2, 4, 8, 16, 32}) {
    auto net = GUnitNetwork::Construct(f, d, t, 1.0);
    ASSERT_TRUE(net.ok());
    Rng rng(t);
    double acc = 0.0;
    for (int i = 0; i < 2000; ++i) {
      std::vector<double> x = {rng.Uniform()};
      acc += std::fabs(net.value().Evaluate(x) - f(x));
    }
    const double err = acc / 2000.0;
    EXPECT_LT(err, prev * 1.05);  // monotone up to MC noise
    prev = err;
  }
  EXPECT_LT(prev, 0.05);
}

TEST(ParamCountTest, MatchesClosedForm) {
  auto f = [](const std::vector<double>&) { return 1.0; };
  auto net = GUnitNetwork::Construct(f, 2, 3, 1.0);
  ASSERT_TRUE(net.ok());
  // k = (t+1)^d - 1 = 15 g-units; params = k(d+1) + 1.
  EXPECT_EQ(net.value().num_units(), 15u);
  EXPECT_EQ(net.value().num_params(), 15u * 3 + 1);
}

TEST(ConstantFunctionTest, AllUnitScalesZero) {
  auto f = [](const std::vector<double>&) { return 7.5; };
  auto net = GUnitNetwork::Construct(f, 2, 3, 1.0);
  ASSERT_TRUE(net.ok());
  EXPECT_DOUBLE_EQ(net.value().output_bias(), 7.5);
  for (double a : net.value().unit_scales()) EXPECT_NEAR(a, 0.0, 1e-12);
  EXPECT_NEAR(net.value().Evaluate({0.123, 0.456}), 7.5, 1e-12);
}

TEST(CsSgdTest, SgdReducesLossFromConstructionInit) {
  // CS+SGD (Appendix A.5): construction as initialization, then SGD.
  const size_t d = 2, t = 3;
  auto f = [](const std::vector<double>& x) {
    return std::sin(5.0 * x[0]) * std::cos(3.0 * x[1]);
  };
  auto net_r = GUnitNetwork::Construct(f, d, t, 1.0);
  ASSERT_TRUE(net_r.ok());
  GUnitNetwork net = std::move(net_r).value();

  Rng rng(55);
  const size_t n = 400;
  Matrix inputs(n, d), targets(n, 1);
  for (size_t i = 0; i < n; ++i) {
    inputs(i, 0) = rng.Uniform();
    inputs(i, 1) = rng.Uniform();
    targets(i, 0) = f({inputs(i, 0), inputs(i, 1)});
  }
  auto eval_loss = [&]() {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double y = net.Evaluate({inputs(i, 0), inputs(i, 1)});
      acc += (y - targets(i, 0)) * (y - targets(i, 0));
    }
    return acc / n;
  };
  const double before = eval_loss();
  net.TrainSgd(inputs, targets, /*epochs=*/60, /*batch=*/32, /*lr=*/0.05,
               /*seed=*/56);
  const double after = eval_loss();
  EXPECT_LT(after, before);
}

TEST(CsSgdTest, TrainOnMismatchedDimsIsNoOp) {
  auto f = [](const std::vector<double>&) { return 0.0; };
  auto net = GUnitNetwork::Construct(f, 2, 2, 1.0);
  ASSERT_TRUE(net.ok());
  Matrix inputs(4, 3), targets(4, 1);  // wrong input dim
  EXPECT_DOUBLE_EQ(
      net.value().TrainSgd(inputs, targets, 5, 2, 0.01, 1), 0.0);
}

// BuildStats splits the construction pipeline into per-phase wall times:
// partition (kd-tree + AQC merge), train (per-leaf MLPs + plans), and
// calibrate (the f32 validation replay). An f32 build must populate all
// three; a default f64 build performs no validation replay and must
// report exactly 0 for that phase.
TEST(BuildStatsTest, AllThreePhaseTimesPopulated) {
  Rng rng(4100);
  std::vector<QueryInstance> queries;
  std::vector<double> answers;
  for (int i = 0; i < 800; ++i) {
    const double c = rng.Uniform(), r = rng.Uniform(0.0, 0.5);
    queries.push_back(QueryInstance(std::vector<double>{c, r}));
    answers.push_back(std::cos(3.0 * c) + 2.0 * r);
  }
  NeuroSketchConfig cfg;
  cfg.tree_height = 3;
  cfg.target_partitions = 4;
  cfg.n_layers = 3;
  cfg.l_first = 12;
  cfg.l_rest = 8;
  cfg.train.epochs = 10;
  cfg.seed = 4101;
  cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(queries, answers, cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const auto& stats = sketch.value().stats();
  EXPECT_GT(stats.partition_seconds, 0.0);
  EXPECT_GT(stats.train_seconds, 0.0);
  EXPECT_GT(stats.calibrate_seconds, 0.0);

  if (!ForceF32PlansFromEnv()) {
    cfg.plan_precision = PlanPrecision::kF64;
    auto plain = NeuroSketch::Train(queries, answers, cfg);
    ASSERT_TRUE(plain.ok());
    EXPECT_GT(plain.value().stats().partition_seconds, 0.0);
    EXPECT_GT(plain.value().stats().train_seconds, 0.0);
    EXPECT_EQ(plain.value().stats().calibrate_seconds, 0.0)
        << "f64 builds run no calibrate/validate replay";
  }
}

}  // namespace
}  // namespace nn
}  // namespace neurosketch
