// Cross-module property sweeps (TEST_P): invariants that must hold over
// wide parameter ranges rather than single hand-picked cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <tuple>

#include "baselines/spn.h"
#include "baselines/tree_agg.h"
#include "core/drift.h"
#include "core/neurosketch.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "data/streaming_table.h"
#include "index/kdtree.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/range_scan.h"
#include "query/workload.h"
#include "serve/delta_buffer.h"
#include "serve/refresh.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/stats.h"

namespace neurosketch {
namespace {

QueryFunctionSpec AxisSpec(Aggregate agg, size_t measure) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = agg;
  spec.measure_col = measure;
  return spec;
}

// ---------------------------------------------------------------------
// SPN COUNT must approximate the exact engine across dimensionalities and
// RDC thresholds on independent data (where the product decomposition is
// exact up to histogram resolution).
class SpnCountSweep
    : public testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(SpnCountSweep, CountNearExactOnUniform) {
  auto [dim, rdc] = GetParam();
  Table t = MakeUniformTable(15000, dim, 2000 + dim);
  ExactEngine engine(&t);
  SpnConfig cfg;
  cfg.rdc_threshold = rdc;
  Spn spn = Spn::Build(t, cfg);
  QueryFunctionSpec spec = AxisSpec(Aggregate::kCount, dim - 1);
  WorkloadConfig wc;
  wc.num_active = std::min<size_t>(2, dim);
  wc.range_frac_lo = 0.2;
  wc.range_frac_hi = 0.6;
  wc.seed = 2100 + dim;
  WorkloadGenerator gen(dim, wc);
  auto queries = gen.GenerateMany(25, &engine, &spec);
  std::vector<double> truth, pred;
  for (const auto& q : queries) {
    auto r = spn.Answer(spec, q);
    ASSERT_TRUE(r.ok());
    truth.push_back(engine.Answer(spec, q));
    pred.push_back(r.value());
  }
  EXPECT_LT(stats::NormalizedMae(truth, pred), 0.06)
      << "dim=" << dim << " rdc=" << rdc;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpnCountSweep,
    testing::Combine(testing::Values<size_t>(2, 3, 5),
                     testing::Values(0.1, 0.3, 1.01)));

// ---------------------------------------------------------------------
// TREE-AGG with a 100% sample must equal the exact engine for every
// aggregate and for each predicate family with a bounding box.
class TreeAggExactSweep : public testing::TestWithParam<Aggregate> {};

TEST_P(TreeAggExactSweep, FullSampleEqualsEngine) {
  const Aggregate agg = GetParam();
  Table t = MakeGmmDataset(3000, 3, 5, 2200).table;
  ExactEngine engine(&t);
  TreeAggConfig cfg;
  cfg.sample_size = t.num_rows();
  TreeAgg ta = TreeAgg::Build(t, cfg);
  QueryFunctionSpec spec = AxisSpec(agg, 2);
  WorkloadConfig wc;
  wc.num_active = 2;
  wc.range_frac_lo = 0.2;
  wc.range_frac_hi = 0.6;
  wc.min_matches = 1;
  wc.seed = 2300 + static_cast<uint64_t>(agg);
  WorkloadGenerator gen(3, wc);
  for (const auto& q : gen.GenerateMany(15, &engine, &spec)) {
    EXPECT_NEAR(ta.Answer(spec, q), engine.Answer(spec, q), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, TreeAggExactSweep,
    testing::Values(Aggregate::kCount, Aggregate::kSum, Aggregate::kAvg,
                    Aggregate::kStd, Aggregate::kMedian, Aggregate::kMin,
                    Aggregate::kMax),
    [](const testing::TestParamInfo<Aggregate>& info) {
      return AggregateName(info.param);
    });

// ---------------------------------------------------------------------
// kd-tree invariants over heights and query dimensionalities: leaf count,
// routing consistency, partition completeness.
class KdTreeSweep
    : public testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KdTreeSweep, StructuralInvariants) {
  auto [height, dim] = GetParam();
  Rng rng(2400 + height * 10 + dim);
  std::vector<QueryInstance> queries;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> v(dim);
    for (auto& x : v) x = rng.Uniform();
    queries.emplace_back(std::move(v));
  }
  auto tree = QuerySpaceKdTree::Build(queries, height);
  EXPECT_EQ(tree.NumLeaves(), static_cast<size_t>(1) << height);
  size_t total = 0;
  for (auto* leaf : tree.Leaves()) {
    total += leaf->query_ids.size();
    for (size_t id : leaf->query_ids) {
      EXPECT_EQ(tree.Route(queries[id]), leaf);
    }
  }
  EXPECT_EQ(total, queries.size());
  // Round-trip through the routing encoding.
  auto decoded = QuerySpaceKdTree::DecodeRouting(tree.EncodeRouting(), dim);
  ASSERT_TRUE(decoded.ok());
  for (int i = 0; i < 50; ++i) {
    std::vector<double> v(dim);
    for (auto& x : v) x = rng.Uniform();
    QueryInstance q(v);
    EXPECT_EQ(tree.Route(q)->leaf_id, decoded.value().Route(q)->leaf_id);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeSweep,
    testing::Combine(testing::Values<size_t>(1, 2, 3, 4, 5),
                     testing::Values<size_t>(1, 2, 4, 6)));

// ---------------------------------------------------------------------
// Parallel construction determinism, randomized: over seeded random
// tables/workloads, the parallel kd-tree build must yield the exact same
// leaf boundaries as the serial build, and a sketch trained with hw
// threads must serialize to the same SizeBytes() as the serial build.
// (construction_parallel_test pins one configuration exhaustively; this
// sweeps 20 random shapes.)
TEST(ParallelConstructionSweep, ParallelKdTreeMatchesSerialAcrossTrials) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(3000 + trial);
    const size_t dim = 1 + rng.Index(4);          // 1..4
    const size_t height = 2 + rng.Index(4);       // 2..5
    const size_t n = 2500 + rng.Index(4000);      // straddles the cutoff
    std::vector<QueryInstance> queries;
    std::vector<double> answers;
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> v(dim);
      for (double& x : v) x = rng.Uniform();
      // A few duplicate coordinates so degenerate splits get exercised.
      if (rng.Index(10) == 0 && i > 0) v[0] = queries[i - 1].q[0];
      double a = 0.0;
      for (double x : v) a += std::sin(3.0 * x);
      queries.emplace_back(std::move(v));
      answers.push_back(a);
    }
    auto serial = QuerySpaceKdTree::Build(queries, height, 1);
    auto parallel = QuerySpaceKdTree::Build(queries, height, 0);
    EXPECT_EQ(parallel.EncodeRouting(), serial.EncodeRouting())
        << "trial " << trial << " dim=" << dim << " height=" << height;
    const auto serial_leaves = serial.Leaves();
    const auto parallel_leaves = parallel.Leaves();
    ASSERT_EQ(parallel_leaves.size(), serial_leaves.size()) << "trial "
                                                            << trial;
    for (size_t l = 0; l < serial_leaves.size(); ++l) {
      EXPECT_EQ(parallel_leaves[l]->query_ids, serial_leaves[l]->query_ids)
          << "trial " << trial << " leaf " << l;
    }

    // Every few trials, carry the same workload through a full (tiny)
    // sketch build and demand identical serialized size.
    if (trial % 4 == 0) {
      NeuroSketchConfig cfg;
      cfg.tree_height = std::min<size_t>(height, 3);
      cfg.target_partitions = 4;
      cfg.n_layers = 2;
      cfg.l_first = 8;
      cfg.l_rest = 8;
      cfg.train.epochs = 3;
      cfg.seed = 3100 + trial;
      cfg.train_threads = 1;
      auto s = NeuroSketch::Train(queries, answers, cfg);
      cfg.train_threads = 0;
      auto p = NeuroSketch::Train(queries, answers, cfg);
      ASSERT_TRUE(s.ok() && p.ok()) << "trial " << trial;
      EXPECT_EQ(p.value().SizeBytes(), s.value().SizeBytes())
          << "trial " << trial;
      EXPECT_EQ(p.value().tree().EncodeRouting(),
                s.value().tree().EncodeRouting())
          << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------
// Workload generator: for every (num_active, range) combination, the
// generated instance has exactly num_active active attributes, each with
// the requested width, and the (c, r) encoding stays in the simplex.
class WorkloadSweep
    : public testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(WorkloadSweep, EncodingInvariants) {
  auto [active, frac] = GetParam();
  const size_t dim = 5;
  WorkloadConfig wc;
  wc.num_active = active;
  wc.range_frac_lo = wc.range_frac_hi = frac;
  wc.seed = 2500 + active;
  WorkloadGenerator gen(dim, wc);
  for (int i = 0; i < 60; ++i) {
    QueryInstance q = gen.Generate();
    ASSERT_EQ(q.dim(), 2 * dim);
    size_t found = 0;
    for (size_t a = 0; a < dim; ++a) {
      const double c = q[a], r = q[dim + a];
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c + r, 1.0 + 1e-12);
      if (!(c == 0.0 && r >= 1.0)) {
        EXPECT_NEAR(r, frac, 1e-12);
        ++found;
      }
    }
    EXPECT_EQ(found, active);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadSweep,
    testing::Combine(testing::Values<size_t>(1, 2, 3, 5),
                     testing::Values(0.01, 0.1, 0.4)));

// ---------------------------------------------------------------------
// Vectorized batch answering must agree exactly with per-query Answer.
class VectorizedBatchSweep : public testing::TestWithParam<size_t> {};

TEST_P(VectorizedBatchSweep, MatchesScalarPath) {
  const size_t partitions = GetParam();
  Rng rng(2600 + partitions);
  std::vector<QueryInstance> train_q;
  std::vector<double> train_a;
  for (int i = 0; i < 600; ++i) {
    const double c = rng.Uniform(), r = rng.Uniform(0.0, 0.5);
    train_q.push_back(QueryInstance(std::vector<double>{c, r}));
    train_a.push_back(std::sin(4.0 * c) + r);
  }
  NeuroSketchConfig cfg;
  cfg.tree_height = partitions > 1 ? 3 : 0;
  cfg.target_partitions = partitions;
  cfg.n_layers = 3;
  cfg.l_first = 16;
  cfg.l_rest = 16;
  cfg.train.epochs = 30;
  auto sketch = NeuroSketch::Train(train_q, train_a, cfg);
  ASSERT_TRUE(sketch.ok());
  std::vector<QueryInstance> probes;
  for (int i = 0; i < 150; ++i) {
    probes.push_back(QueryInstance(
        std::vector<double>{rng.Uniform(), rng.Uniform(0.0, 0.5)}));
  }
  // The batch path must serve exactly (bitwise) what per-query Answer
  // serves.
  const auto batch = sketch.value().AnswerBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(batch[i], sketch.value().Answer(probes[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, VectorizedBatchSweep,
                         testing::Values<size_t>(1, 2, 4, 8));

// ---------------------------------------------------------------------
// Aggregate monotonicity: enlarging an axis range can only grow COUNT and
// keep MIN non-increasing / MAX non-decreasing.
TEST(RangeMonotonicityTest, CountGrowsWithRange) {
  Table t = MakeGmmDataset(8000, 2, 6, 2700).table;
  ExactEngine engine(&t);
  QueryFunctionSpec count = AxisSpec(Aggregate::kCount, 1);
  QueryFunctionSpec mins = AxisSpec(Aggregate::kMin, 1);
  QueryFunctionSpec maxs = AxisSpec(Aggregate::kMax, 1);
  Rng rng(2701);
  for (int trial = 0; trial < 25; ++trial) {
    const double c = rng.Uniform(0.0, 0.5);
    const double r1 = rng.Uniform(0.05, 0.2);
    const double r2 = r1 + rng.Uniform(0.05, 0.3);
    QueryInstance small = QueryInstance::AxisRange({c, 0.0}, {r1, 1.0});
    QueryInstance large = QueryInstance::AxisRange({c, 0.0}, {r2, 1.0});
    EXPECT_LE(engine.Answer(count, small), engine.Answer(count, large));
    const double min_s = engine.Answer(mins, small);
    const double min_l = engine.Answer(mins, large);
    if (!std::isnan(min_s) && !std::isnan(min_l)) {
      EXPECT_GE(min_s, min_l);
    }
    const double max_s = engine.Answer(maxs, small);
    const double max_l = engine.Answer(maxs, large);
    if (!std::isnan(max_s) && !std::isnan(max_l)) {
      EXPECT_LE(max_s, max_l);
    }
  }
}

// ---------------------------------------------------------------------
// Randomized streaming trial: over seeded random append batches and
// refresh points, every served answer must equal the composition contract
// recomputed independently from the store's own served view — COUNT is
// the sketch answer plus the exact match count of the UNFOLDED delta rows
// (per-leaf fold watermarks honored), AVG is the exact merged answer when
// any unfolded row matches and the untouched sketch answer otherwise.
// After each refresh pass the served sketch must keep SizeBytes() equal
// to its serialized size (partial retrains don't break the accounting).
class StreamingTrialSweep : public testing::TestWithParam<int> {};

TEST_P(StreamingTrialSweep, ServeMatchesRecomputedComposition) {
  const int trial = GetParam();
  Rng rng(4000 + trial);
  Dataset ds = MakeGmmDataset(900 + rng.Index(600), 3, 3, 4100 + trial);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const size_t d = base.num_columns();
  ExactEngine engine(&base);
  const QueryFunctionSpec count = AxisSpec(Aggregate::kCount, ds.measure_col);
  const QueryFunctionSpec avg = AxisSpec(Aggregate::kAvg, ds.measure_col);

  WorkloadConfig wc;
  wc.num_active = 2;
  wc.range_frac_lo = 0.2;
  wc.range_frac_hi = 0.5;
  wc.seed = 4200 + trial;
  WorkloadGenerator gen(d, wc);
  const auto train_q = gen.GenerateMany(400, &engine, &count);
  NeuroSketchConfig cfg;
  cfg.tree_height = 2;
  cfg.target_partitions = 4;
  cfg.n_layers = 4;
  cfg.l_first = 32;
  cfg.l_rest = 16;
  cfg.train.epochs = 120;
  auto count_sk =
      NeuroSketch::Train(train_q, engine.AnswerBatch(count, train_q), cfg);
  auto avg_sk =
      NeuroSketch::Train(train_q, engine.AnswerBatch(avg, train_q), cfg);
  ASSERT_TRUE(count_sk.ok() && avg_sk.ok());

  serve::SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store
                  .Register("gmm", count,
                            std::make_shared<const NeuroSketch>(
                                std::move(count_sk).value()))
                  .ok());
  ASSERT_TRUE(store
                  .Register("gmm", avg,
                            std::make_shared<const NeuroSketch>(
                                std::move(avg_sk).value()))
                  .ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", d).ok());

  serve::ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 0.0;
  serve::ServeEngine serve(&store, so);

  // Refresh managed for the COUNT store only; no serve engine attached so
  // a failure streak never demotes (serving state stays sketch-backed and
  // the expected composition below is well-defined all trial long).
  WorkloadConfig pc = wc;
  pc.seed = 4300 + trial;
  WorkloadGenerator pgen(d, pc);
  DriftPolicy policy;
  policy.max_normalized_mae = 0.3;
  serve::RefreshController ctrl(&store, nullptr);
  const auto probes = pgen.GenerateMany(60, &engine, &count);
  // Retrain on the train set plus the probes: the validation gate
  // re-checks the probes, and a retrained leaf must be able to fit them.
  std::vector<QueryInstance> retrain_q = train_q;
  retrain_q.insert(retrain_q.end(), probes.begin(), probes.end());
  ctrl.AddTarget({"gmm", DriftMonitor(count, probes, policy), cfg,
                  std::move(retrain_q)});

  // Mirror of everything appended, in order: the independent ground truth.
  Table merged = base;
  const serve::ServeKey count_key = serve::ServeKey::From("gmm", count);
  const serve::ServeKey avg_key = serve::ServeKey::From("gmm", avg);

  // Unfolded exact match count for `q` against the served view of `key`.
  const auto unfolded_matches = [&](const serve::ServeKey& key,
                                    const QueryInstance& q) {
    const serve::ServedView view = store.LookupServed(key);
    const serve::DeltaBuffer::Snapshot snap = view.delta->Snap();
    size_t from = snap.begin();
    const auto* leaf = view.sketch->tree().Route(q);
    if (view.leaf_folded != nullptr && leaf != nullptr && leaf->leaf_id >= 0 &&
        static_cast<size_t>(leaf->leaf_id) < view.leaf_folded->size()) {
      from = std::max(from,
                      static_cast<size_t>((*view.leaf_folded)[leaf->leaf_id]));
    }
    size_t matched = 0;
    snap.ForEachRow(from, snap.end(), [&](const double* row) {
      if (count.predicate->Matches(q, row, d)) ++matched;
    });
    return matched;
  };

  WorkloadConfig qc = wc;
  qc.seed = 4400 + trial;
  WorkloadGenerator qgen(d, qc);
  size_t swaps_seen = 0;
  for (int round = 0; round < 5; ++round) {
    // Random append batch: a concentrated cluster (real drift, so refresh
    // passes genuinely swap) mixed with jittered copies of base rows.
    const size_t batch = 100 + rng.Index(200);
    for (size_t i = 0; i < batch; ++i) {
      std::vector<double> row(d);
      if (rng.Bernoulli(0.7)) {
        for (size_t c = 0; c < d; ++c) row[c] = rng.Uniform(0.25, 0.75);
      } else {
        const size_t src = rng.Index(base.num_rows());
        for (size_t c = 0; c < d; ++c) {
          row[c] = std::min(
              1.0, std::max(0.0, base.at(src, c) + rng.Uniform(-0.15, 0.15)));
        }
      }
      ASSERT_TRUE(store.Append("gmm", row).ok());
      ASSERT_TRUE(merged.AppendRow(row).ok());
    }

    // Random refresh point: the pass may skip, swap, or fail validation —
    // the serve contract must hold identically in every case.
    if (rng.Bernoulli(0.6)) {
      auto out = ctrl.RefreshNow("gmm", count);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      if (out.value().swapped) ++swaps_seen;
      GTEST_LOG_(INFO) << "trial " << trial << " round " << round
                       << " refresh: pre=" << out.value().pre_mae
                       << " post=" << out.value().post_mae
                       << " retrained=" << out.value().retrained
                       << " swapped=" << out.value().swapped
                       << " failed=" << out.value().failed << " "
                       << out.value().message;
    }

    ExactEngine merged_engine(&merged);
    for (const auto& q : qgen.GenerateMany(10, &engine, &count)) {
      const serve::ServedView cview = store.LookupServed(count_key);
      const size_t cm = unfolded_matches(count_key, q);
      const double count_got = serve.Answer("gmm", count, q).value;
      EXPECT_EQ(count_got,
                cview.sketch->Answer(q) + static_cast<double>(cm))
          << "trial " << trial << " round " << round;
      const serve::ServedView aview = store.LookupServed(avg_key);
      const size_t am = unfolded_matches(avg_key, q);
      const serve::ServeResult avg_got = serve.Answer("gmm", avg, q);
      if (am > 0) {
        EXPECT_FALSE(avg_got.used_sketch);
        EXPECT_EQ(avg_got.value, merged_engine.Answer(avg, q))
            << "trial " << trial << " round " << round;
      } else {
        EXPECT_TRUE(avg_got.used_sketch);
        EXPECT_EQ(avg_got.value, aview.sketch->Answer(q))
            << "trial " << trial << " round " << round;
      }
    }

    // The served sketch's storage accounting survives partial retrains.
    const auto served = store.Lookup(count_key);
    ASSERT_NE(served, nullptr);
    std::stringstream buf;
    ASSERT_TRUE(served->SaveTo(&buf).ok());
    EXPECT_EQ(buf.str().size(), served->SizeBytes())
        << "trial " << trial << " round " << round;
  }
  // Not asserted (drift is random), but useful when a sweep goes quiet.
  if (swaps_seen == 0) {
    GTEST_LOG_(INFO) << "trial " << trial << ": no refresh pass swapped";
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, StreamingTrialSweep,
                         testing::Values(0, 1, 2));

// ---------------------------------------------------------------------
// Randomized compaction trial: seeded random interleavings of appends,
// refresh-sweep passes (which trigger threshold compaction), explicit
// Compact calls, and serving — against an oracle that rebuilds the full
// logical history from scratch each round. Two invariants: (1) every
// served answer over the exact-only streaming dataset is bit-identical to
// the oracle for every aggregate, at every point in the interleaving;
// (2) delta residency is bounded — right after a sweep, resident rows
// never exceed the compaction threshold plus one chunk.
class CompactionTrialSweep : public testing::TestWithParam<int> {};

TEST_P(CompactionTrialSweep, ServeBitIdenticalAndDeltaBounded) {
  const int trial = GetParam();
  Rng rng(5000 + trial);
  Dataset ds = MakeGmmDataset(700 + rng.Index(500), 3, 3, 5100 + trial);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const size_t d = base.num_columns();
  StreamingTable table(base);
  ExactEngine engine(&table);

  constexpr size_t kChunkRows = 32;
  constexpr size_t kCompactMinRows = 96;
  serve::SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("hot", &engine).ok());
  ASSERT_TRUE(store.EnableStreaming("hot", d, kChunkRows).ok());
  ASSERT_TRUE(store.AttachStreamingTable("hot", &table).ok());

  serve::ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 0.0;
  serve::ServeEngine serve(&store, so);

  serve::RefreshOptions ro;
  ro.compact_min_rows = kCompactMinRows;
  serve::RefreshController ctrl(&store, nullptr, ro);

  const std::vector<Aggregate> aggs = {
      Aggregate::kCount, Aggregate::kSum, Aggregate::kAvg, Aggregate::kStd,
      Aggregate::kMedian, Aggregate::kMin, Aggregate::kMax};

  // Full logical history, in order — rebuilt into an oracle each round.
  Table merged = base;
  size_t compactions_seen = 0;
  for (int round = 0; round < 12; ++round) {
    const size_t batch = 10 + rng.Index(70);
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < batch; ++i) {
      std::vector<double> row(d);
      if (rng.Bernoulli(0.5)) {
        for (auto& v : row) v = rng.Uniform();
      } else {
        const size_t src = rng.Index(base.num_rows());
        for (size_t c = 0; c < d; ++c) {
          row[c] = std::min(
              1.0, std::max(0.0, base.at(src, c) + rng.Uniform(-0.1, 0.1)));
        }
      }
      ASSERT_TRUE(merged.AppendRow(row).ok());
      rows.push_back(std::move(row));
    }
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(store.AppendRows("hot", rows).ok());
    } else {
      for (const auto& r : rows) ASSERT_TRUE(store.Append("hot", r).ok());
    }

    // Random maintenance point: a refresh sweep (threshold compaction), an
    // explicit fold, or nothing this round.
    const uint64_t action = rng.Index(3);
    if (action == 0) {
      ctrl.RefreshAll();
      // The bound the trial exists to pin: a sweep leaves at most
      // (threshold - 1) untriggered rows, or a fold's sub-chunk remainder.
      const auto stats = store.Delta("hot")->Stats();
      EXPECT_LE(stats.rows, kCompactMinRows + kChunkRows)
          << "trial " << trial << " round " << round;
    } else if (action == 1) {
      auto res = store.Compact("hot");
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      if (res.value().compacted) ++compactions_seen;
    }

    ExactEngine oracle(&merged);
    for (Aggregate agg : aggs) {
      const QueryFunctionSpec spec = AxisSpec(agg, ds.measure_col);
      WorkloadConfig qc;
      qc.num_active = 2;
      qc.range_frac_lo = 0.15;
      qc.range_frac_hi = 0.5;
      qc.seed = 5200 + trial * 100 + round;
      WorkloadGenerator qgen(d, qc);
      for (const auto& q : qgen.GenerateMany(4, &oracle, &spec)) {
        const serve::ServeResult got = serve.Answer("hot", spec, q);
        const double want = oracle.Answer(spec, q);
        EXPECT_FALSE(got.used_sketch);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got.value)) << AggregateName(agg);
        } else {
          EXPECT_EQ(got.value, want)
              << AggregateName(agg) << " trial " << trial << " round "
              << round;
        }
      }
    }
  }
  compactions_seen += ctrl.Stats().compactions;
  EXPECT_GT(compactions_seen, 0u) << "trial " << trial
                                  << ": interleaving never compacted";
  // Accounting closes: trim never passes the fold watermark, the fold
  // never passes the logical history, and every untrimmed row is resident.
  const size_t appended_total = merged.num_rows() - base.num_rows();
  const auto final_stats = store.Delta("hot")->Stats();
  EXPECT_LE(store.Delta("hot")->trimmed(), table.folded());
  EXPECT_LE(table.folded(), appended_total);
  EXPECT_EQ(final_stats.rows,
            appended_total - store.Delta("hot")->trimmed());
}

INSTANTIATE_TEST_SUITE_P(Trials, CompactionTrialSweep,
                         testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------
// Compiled range bounds (query/range_scan.h) are the devirtualized form of
// AxisRangePredicate::Matches every exact scan uses. They must accept
// exactly the rows Matches accepts — at the interval edges, on inactive
// full-range attributes whose data sits at 1.0, for NaN and signed-zero
// row values and query values — in both row layouts, one row at a time
// (the scalar rule) and as a 64-row block (the SIMD match word). Other
// predicate families must still take the virtual path and give identical
// scans.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// RangeScan's verdict on one row, through both row layouts.
bool ScanVerdict(const RangeScan& scan, const std::vector<double>& row) {
  size_t idx[1];
  const bool row_major =
      scan.Select(RowMajorRows{row.data(), row.size()}, 0, 1, idx) == 1;
  std::vector<const double*> cols(row.size());
  for (size_t c = 0; c < row.size(); ++c) cols[c] = &row[c];
  const bool columnar =
      scan.Select(ColumnRows{cols.data(), cols.size()}, 0, 1, idx) == 1;
  EXPECT_EQ(row_major, columnar);
  return row_major;
}

class CompiledBoundsSweep : public testing::TestWithParam<size_t> {};

TEST_P(CompiledBoundsSweep, AcceptExactlyTheRowsMatchesAccepts) {
  const size_t dim = 4;
  const size_t active = GetParam();
  const AxisRangePredicate pred;
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // Active (c, r) pairs, including NaN query values and a -0.0 start.
  const std::vector<std::pair<double, double>> active_cr = {
      {0.25, 0.5}, {0.0, 0.5}, {-0.0, 0.3}, {0.1, 0.7}, {0.5, 0.5},
      {0.3, 1e-9}, {nan, 0.2}, {0.2, nan}, {0.6, 0.0}};
  // Spellings of an inactive attribute Matches skips: (+-0, >= 1).
  const std::vector<std::pair<double, double>> inactive_cr = {
      {0.0, 1.0}, {-0.0, 1.0}, {0.0, 2.0}, {0.0, inf}};
  Rng rng(900 + active);
  size_t hits = 0, misses = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> q(2 * dim);
    std::vector<size_t> order = {0, 1, 2, 3};
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (size_t k = 0; k < dim; ++k) {
      const size_t i = order[k];
      const auto& cr = k < active ? active_cr[rng.Index(active_cr.size())]
                                  : inactive_cr[rng.Index(inactive_cr.size())];
      q[i] = cr.first;
      q[dim + i] = cr.second;
    }
    const QueryInstance qi(q);
    const RangeScan scan(pred, qi, dim);
    ASSERT_TRUE(scan.compiled());
    ASSERT_EQ(scan.bounds().size(), active);
    for (const AxisBound& b : scan.bounds()) {
      // hi is the very double Matches computes per row.
      EXPECT_TRUE(SameBits(b.hi, q[b.col] + q[dim + b.col]));
    }
    // The trial's rows, repeated into one 64-row block below so the
    // block-wide match word sees them too.
    std::vector<std::vector<double>> trial_rows;
    std::vector<bool> trial_wants;
    for (int r = 0; r < 40; ++r) {
      std::vector<double> row(dim);
      for (size_t c = 0; c < dim; ++c) {
        const double lo = q[c], hi = q[c] + q[dim + c];
        switch (rng.Index(9)) {
          case 0: row[c] = lo; break;           // exactly at c: inside
          case 1: row[c] = hi; break;           // exactly at c + r: outside
          case 2: row[c] = 1.0; break;          // top of the domain
          case 3: row[c] = nan; break;
          case 4: row[c] = 0.0; break;
          case 5: row[c] = -0.0; break;
          case 6: row[c] = std::nextafter(hi, -inf); break;
          default: row[c] = rng.Uniform(); break;
        }
      }
      const bool want = pred.Matches(qi, row.data(), dim);
      EXPECT_EQ(ScanVerdict(scan, row), want)
          << "trial " << trial << " row " << r;
      (want ? hits : misses) += 1;
      trial_rows.push_back(row);
      trial_wants.push_back(want);
    }
    constexpr size_t kBlock = 64;
    std::vector<double> row_major;
    std::vector<std::vector<double>> columns(dim);
    std::vector<size_t> want_idx;
    for (size_t i = 0; i < kBlock; ++i) {
      const size_t r = i % trial_rows.size();
      for (size_t c = 0; c < dim; ++c) {
        row_major.push_back(trial_rows[r][c]);
        columns[c].push_back(trial_rows[r][c]);
      }
      if (trial_wants[r]) want_idx.push_back(i);
    }
    std::vector<const double*> cols(dim);
    for (size_t c = 0; c < dim; ++c) cols[c] = columns[c].data();
    size_t idx[kBlock];
    const size_t m_col =
        scan.Select(ColumnRows{cols.data(), dim}, 0, kBlock, idx);
    EXPECT_EQ(std::vector<size_t>(idx, idx + m_col), want_idx)
        << "trial " << trial;
    const size_t m_row =
        scan.Select(RowMajorRows{row_major.data(), dim}, 0, kBlock, idx);
    EXPECT_EQ(std::vector<size_t>(idx, idx + m_row), want_idx)
        << "trial " << trial;
  }
  // Both verdicts must be exercised, or the sweep proves nothing.
  EXPECT_GT(hits, 0u);
  if (active > 0) {
    EXPECT_GT(misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ActiveAttributes, CompiledBoundsSweep,
                         testing::Values(size_t{0}, size_t{1}, size_t{4}));

TEST(CompiledBoundsTest, EdgeValuesMatchTheVirtualPredicate) {
  const AxisRangePredicate pred;
  const double nan = std::nan("");
  // Attribute 0 active on [0.25, 0.75); attribute 1 inactive (0, 1).
  const QueryInstance q({0.25, 0.0, 0.5, 1.0});
  const RangeScan scan(pred, q, 2);
  ASSERT_TRUE(scan.compiled());
  ASSERT_EQ(scan.bounds().size(), 1u);
  EXPECT_EQ(scan.bounds()[0].col, 0u);
  struct Case {
    std::vector<double> row;
    bool want;
  };
  const std::vector<Case> cases = {
      {{0.25, 0.5}, true},   // exactly at lo
      {{0.75, 0.5}, false},  // exactly at c + r
      {{0.5, 1.0}, true},    // 1.0 on the inactive attribute
      {{0.5, nan}, true},    // NaN on the inactive attribute
      {{nan, 0.5}, true},    // NaN never fails a bound
      {{0.0, 0.5}, false},
      {{-0.0, 0.5}, false},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(pred.Matches(q, c.row.data(), 2), c.want);
    EXPECT_EQ(ScanVerdict(scan, c.row), c.want);
  }
  // +-0.0 sit exactly at lo = 0 and -0.0 alike.
  for (double lo : {0.0, -0.0}) {
    const QueryInstance z({lo, 0.5});
    const RangeScan zs(pred, z, 1);
    ASSERT_EQ(zs.bounds().size(), 1u);
    for (double v : {0.0, -0.0}) {
      EXPECT_TRUE(pred.Matches(z, &v, 1));
      EXPECT_TRUE(ScanVerdict(zs, {v}));
    }
  }
}

/// A small table with NaN, signed zeros and exact interval edges mixed
/// into uniform data; the predicate columns "x" and "y" also draw +-inf.
/// The measure column "m" never does: inf - inf is the default NaN, whose
/// sign then depends on which operand of a commutative add the compiler
/// puts first, so no scan path can promise its bits. With `nan_measure`
/// false "m" draws -0.0 where it would draw NaN, so AVG/STD/SUM/MIN/MAX
/// over a range stay finite and their arithmetic is compared bit for bit
/// rather than collapsing to NaN.
Table EdgeValueTable(size_t rows, uint64_t seed, bool nan_measure = true) {
  Schema schema;
  schema.columns = {"x", "y", "m"};
  Table t(schema);
  Rng rng(seed);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::nan(""), 0.0, -0.0, 0.25, 0.75, 1.0,
                             inf, -inf};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> row(3);
    for (size_t c = 0; c < row.size(); ++c) {
      const size_t kinds = c < 2 ? 8 : 6;  // no +-inf in the measure
      row[c] = rng.Index(5) == 0 ? specials[rng.Index(kinds)] : rng.Uniform();
    }
    if (!nan_measure && std::isnan(row[2])) row[2] = -0.0;
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

/// The aggregate of `values` in order, by the per-row formulas every
/// accumulation path must reproduce bit for bit: an in-order sum from
/// +0.0, Welford's mean and m2, std::min/std::max seeded by the first
/// value, and the median of the buffered values.
double ReferenceAggregate(Aggregate agg, const std::vector<double>& values) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const size_t n = values.size();
  double sum = 0.0, mean = 0.0, m2 = 0.0, lo = 0.0, hi = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double v = values[k];
    lo = k == 0 ? v : std::min(lo, v);
    hi = k == 0 ? v : std::max(hi, v);
    sum += v;
    const double delta = v - mean;
    mean += delta / static_cast<double>(k + 1);
    m2 += delta * (v - mean);
  }
  switch (agg) {
    case Aggregate::kCount:
      return static_cast<double>(n);
    case Aggregate::kSum:
      return sum;
    case Aggregate::kAvg:
      return n == 0 ? nan : mean;
    case Aggregate::kStd:
      return n == 0 ? nan : std::sqrt(m2 / static_cast<double>(n));
    case Aggregate::kMedian:
      return n == 0 ? nan : stats::Median(values);
    case Aggregate::kMin:
      return n == 0 ? nan : lo;
    case Aggregate::kMax:
      return n == 0 ? nan : hi;
  }
  return nan;
}

/// The measures of rows [from, end) of `t` that the per-row virtual
/// Matches accepts, in row order.
std::vector<double> ReferenceValues(const Table& t,
                                    const QueryFunctionSpec& spec,
                                    const QueryInstance& q, size_t from = 0) {
  std::vector<double> values;
  for (size_t i = from; i < t.num_rows(); ++i) {
    const std::vector<double> row = t.Row(i);
    if (!spec.predicate->Matches(q, row.data(), row.size())) continue;
    values.push_back(row[spec.measure_col]);
  }
  return values;
}

/// The per-row virtual Matches loop every scan is compared against.
double ReferenceAnswer(const Table& t, const QueryFunctionSpec& spec,
                       const QueryInstance& q, size_t* matched) {
  const std::vector<double> values = ReferenceValues(t, spec, q);
  *matched = values.size();
  return ReferenceAggregate(spec.agg, values);
}

/// One predicate family with a few queries over 3-column rows, plus a
/// sparse one that matches no row of an EdgeValueTable but, for axis
/// ranges, the rows whose attribute is NaN.
struct PredicateFamily {
  std::shared_ptr<const PredicateFunction> pred;
  std::vector<QueryInstance> queries;
  bool compiled;
  QueryInstance sparse;
};

/// All three families: axis ranges (compiled bounds, including an
/// all-inactive query, and bounds sitting exactly on the table's special
/// values 0.25, 0.75 and +-0) and two that keep the virtual Matches.
std::vector<PredicateFamily> PredicateFamilies() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {AxisRangePredicate::Make(),
       {QueryInstance({0.25, 0.0, 0.0, 0.5, 1.0, 1.0}),
        QueryInstance({0.1, 0.2, 0.0, 0.4, 0.5, 1.0}),
        QueryInstance({0.0, 0.0, 0.0, 1.0, 1.0, 1.0}),
        QueryInstance({0.0, 0.25, 0.0, 0.25, 0.5, 1.0})},
       true,
       QueryInstance({0.3, 0.0, 0.0, 1e-12, 1.0, 1.0})},
      {CircularPredicate::Make(2),
       {QueryInstance({0.5, 0.5, 0.3}), QueryInstance({0.25, 0.75, 0.5})},
       false,
       QueryInstance({5.0, 5.0, 0.1})},
      {HalfSpacePredicate::Make(),
       {QueryInstance({0.5, 0.2}), QueryInstance({-1.0, 0.9})},
       false,
       QueryInstance({0.0, inf})},
  };
}

constexpr Aggregate kAllAggregates[] = {
    Aggregate::kCount, Aggregate::kSum,    Aggregate::kAvg, Aggregate::kStd,
    Aggregate::kMedian, Aggregate::kMin, Aggregate::kMax};

TEST(CompiledBoundsTest, EveryPredicateFamilyScansBitIdentically) {
  const Table t = EdgeValueTable(3000, 71);
  const ExactEngine engine(&t);
  for (const auto& fam : PredicateFamilies()) {
    for (Aggregate agg : kAllAggregates) {
      QueryFunctionSpec spec;
      spec.predicate = fam.pred;
      spec.agg = agg;
      spec.measure_col = 2;
      for (const auto& q : fam.queries) {
        SCOPED_TRACE(fam.pred->name() + " " + AggregateName(agg));
        EXPECT_EQ(RangeScan(*fam.pred, q, 3).compiled(), fam.compiled);
        size_t matched = 0;
        const double want = ReferenceAnswer(t, spec, q, &matched);
        EXPECT_TRUE(SameBits(engine.Answer(spec, q), want));
        AggregateAccumulator acc(agg);
        ExactEngine::AccumulateOver(t, spec, q, &acc);
        EXPECT_TRUE(SameBits(acc.Finalize(), want));
        EXPECT_EQ(engine.CountMatches(spec, q), matched);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Select-then-reduce scans (RangeScan::Select feeding
// AggregateAccumulator::AddSelected, and the batch-major ReduceMatches
// feeding AddSelectedLockstep) must give the per-row reference loop's
// exact bits through every exact-scan entry point: the base scan, the
// match count, the serve path's delta correction and its base+delta
// recompute, one query at a time and in batches. Table sizes straddle
// the 64-row match word and the 1024-row selection block, so one build
// runs both the SIMD word and the scalar tail; delta chunks are smaller
// than a block (7 rows) or equal to it, and the unfolded delta starts
// mid-chunk. Batches mix every family query with sparse ones, which
// select nothing from most blocks, and give each query its own delta
// watermark.

/// Rows [lo, hi) of `t` as a table of their own.
Table Slice(const Table& t, size_t lo, size_t hi) {
  Table out(t.schema());
  for (size_t i = lo; i < hi; ++i) EXPECT_TRUE(out.AppendRow(t.Row(i)).ok());
  return out;
}

class SelectThenReduceSweep
    : public testing::TestWithParam<std::tuple<size_t, size_t, bool, size_t>> {
};

TEST_P(SelectThenReduceSweep, EveryScanEntryPointMatchesTheReferenceLoop) {
  const auto [rows, chunk_rows, nan_measure, batch] = GetParam();
  const Table full = EdgeValueTable(rows, 72 + rows, nan_measure);
  const ExactEngine full_engine(&full);
  // The logical table is base rows [0, split) then delta rows
  // [split, rows). The delta buffer also holds the `folded` rows just
  // below split, which the base already reflects, so the unfolded delta
  // starts mid-chunk. Delta logical row L is table row first + L.
  const size_t split = rows / 2;
  const size_t folded = std::min<size_t>(3, split);
  const size_t first = split - folded;
  const Table base = Slice(full, 0, split);
  serve::DeltaBuffer delta(full.num_columns(), chunk_rows);
  for (size_t i = first; i < rows; ++i) delta.Append(full.Row(i));
  const serve::DeltaBuffer::Snapshot snap = delta.Snap();
  ExactEngine::PinnedBase pinned;
  pinned.table = &base;
  pinned.folded = folded;

  for (const auto& fam : PredicateFamilies()) {
    // Every third query of the batch is the sparse one; query k's delta
    // watermark steps through [folded, delta end].
    std::vector<QueryInstance> queries;
    std::vector<size_t> from;
    for (size_t k = 0; k < batch; ++k) {
      queries.push_back(k % 3 == 2 ? fam.sparse
                                   : fam.queries[k % fam.queries.size()]);
      from.push_back(folded + (k * 37) % (rows - split + 1));
    }
    std::vector<RangeScan> scans;
    for (const auto& q : queries) {
      scans.emplace_back(*fam.pred, q, full.num_columns());
    }
    for (Aggregate agg : kAllAggregates) {
      QueryFunctionSpec spec;
      spec.predicate = fam.pred;
      spec.agg = agg;
      spec.measure_col = 2;
      SCOPED_TRACE(fam.pred->name() + " " + AggregateName(agg));
      std::vector<AggregateAccumulator> accs(batch, AggregateAccumulator(agg));
      std::vector<AggregateAccumulator> deltas = accs;
      std::vector<double> exact(batch);
      ExactEngine::AccumulateOver(full, scans.data(), batch, spec.measure_col,
                                  accs.data());
      serve::AccumulateDelta(snap, from.data(), scans.data(), batch,
                             spec.measure_col, deltas.data());
      serve::ExactWithDelta(pinned, spec, scans.data(), batch, snap,
                            exact.data());
      const std::vector<double> answers =
          full_engine.AnswerBatch(spec, queries, 3);
      for (size_t k = 0; k < batch; ++k) {
        SCOPED_TRACE("query " + std::to_string(k) + " of " +
                     std::to_string(batch));
        const QueryInstance& q = queries[k];
        const std::vector<double> values = ReferenceValues(full, spec, q);
        const double want = ReferenceAggregate(agg, values);
        // An axis range accepts every NaN row, so its sparse query keeps
        // those; the other families' match nothing.
        if (k % 3 == 2 && !fam.compiled) {
          EXPECT_TRUE(values.empty());
        }
        EXPECT_TRUE(SameBits(accs[k].Finalize(), want));
        EXPECT_EQ(accs[k].count(), values.size());
        EXPECT_TRUE(SameBits(exact[k], want));
        EXPECT_TRUE(SameBits(answers[k], want));
        const std::vector<double> delta_values =
            ReferenceValues(full, spec, q, first + from[k]);
        EXPECT_TRUE(SameBits(deltas[k].Finalize(),
                             ReferenceAggregate(agg, delta_values)));
        EXPECT_EQ(deltas[k].count(), delta_values.size());
        if (batch == 1) {
          // The single-query forms are the same calls with n = 1.
          AggregateAccumulator one(agg);
          ExactEngine::AccumulateOver(full, spec, q, &one);
          EXPECT_TRUE(SameBits(one.Finalize(), want));
          EXPECT_TRUE(SameBits(full_engine.Answer(spec, q), want));
          EXPECT_EQ(full_engine.CountMatches(spec, q), values.size());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockEdges, SelectThenReduceSweep,
    testing::Combine(testing::Values<size_t>(0, 1, 63, 64, 65, 1023, 1024,
                                             1025, 3000),
                     testing::Values<size_t>(7, 1024), testing::Bool(),
                     testing::Values<size_t>(1, 2, 3, 16, 17)));

// Per-value Add, one bulk AddSelected, and selections of growing size fed
// one after another (so MIN/MAX continue from a seeded accumulator) all
// give the reference bits for every aggregate, after every selection,
// NaN and signed zeros included.
TEST(AggregateAccumulatorTest, AddAndAddSelectedMatchTheReference) {
  for (bool nan_measure : {true, false}) {
    const Table t = EdgeValueTable(2500, 73, nan_measure);
    const std::vector<double>& column = t.column(2);
    std::vector<size_t> idx;
    for (size_t i = 0; i < column.size(); i += 1 + i % 3) idx.push_back(i);
    const auto value = [&column](size_t i) { return column[i]; };
    for (Aggregate agg : kAllAggregates) {
      SCOPED_TRACE(AggregateName(agg) + (nan_measure ? " with NaN" : ""));
      AggregateAccumulator one(agg), bulk(agg), split(agg);
      std::vector<double> prefix;
      for (size_t at = 0, m = 1; at < idx.size(); at += m, ++m) {
        m = std::min(m, idx.size() - at);
        split.AddSelected(idx.data() + at, m, value);
        for (size_t k = at; k < at + m; ++k) {
          one.Add(column[idx[k]]);
          prefix.push_back(column[idx[k]]);
        }
        const double want = ReferenceAggregate(agg, prefix);
        EXPECT_TRUE(SameBits(split.Finalize(), want)) << prefix.size();
        EXPECT_TRUE(SameBits(one.Finalize(), want)) << prefix.size();
      }
      bulk.AddSelected(idx.data(), idx.size(), value);
      EXPECT_TRUE(SameBits(bulk.Finalize(), ReferenceAggregate(agg, prefix)));
      EXPECT_EQ(bulk.count(), idx.size());
    }
  }
}

// ---------------------------------------------------------------------
// COUNT of a range equals the sum of COUNTs of a partition of that range.
TEST(RangeAdditivityTest, CountIsAdditiveOverSplits) {
  Table t = MakeUniformTable(10000, 2, 2800);
  ExactEngine engine(&t);
  QueryFunctionSpec spec = AxisSpec(Aggregate::kCount, 1);
  Rng rng(2801);
  for (int trial = 0; trial < 25; ++trial) {
    const double c = rng.Uniform(0.0, 0.4);
    const double r = rng.Uniform(0.1, 0.5);
    const double mid = rng.Uniform(0.1, 0.9) * r;
    QueryInstance whole = QueryInstance::AxisRange({c, 0.0}, {r, 1.0});
    QueryInstance left = QueryInstance::AxisRange({c, 0.0}, {mid, 1.0});
    QueryInstance right =
        QueryInstance::AxisRange({c + mid, 0.0}, {r - mid, 1.0});
    EXPECT_DOUBLE_EQ(
        engine.Answer(spec, whole),
        engine.Answer(spec, left) + engine.Answer(spec, right));
  }
}

}  // namespace
}  // namespace neurosketch
