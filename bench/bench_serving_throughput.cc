// Serving throughput benchmark: client-thread count x micro-batch window
// sweep over the serve/ subsystem, reporting QPS and latency percentiles,
// plus the headline comparison the serving subsystem exists for:
// micro-batched serving vs per-query Answer dispatch on the same sketch,
// a single-query latency section (p50/p95/p99 in ns) comparing the
// Matrix-allocating scalar path against the compiled zero-allocation
// inference plans in both precision tiers (f64 reference, opt-in f32
// with its validated max divergence and footprint), and a vectorized-
// batch section per tier (the float-marshalled gather path). Emits a BENCH_serving.json snapshot (written
// to the working directory) so the perf trajectory can be tracked across
// commits; the snapshot also carries the observability sections — the
// headline run's per-stage latency breakdown and per-store stats, the
// stage-tracing on/off overhead on the single-query serve path (CI gates
// it via tools/check_bench_gates.py), the metrics-registry document
// (nsketch_build_* + nsketch_serve_*) under "metrics", a "multi_core"
// shard-count sweep (same gate script sanity-checks 4-shard scaling on
// >= 4-core machines), a "zipfian" skewed-load arm (s = 0.99 over 16
// stores) with tail percentiles, hottest-store share, and shard-load
// imbalance, and a "paged_catalog" arm: 256 cold sketches packed into
// one catalog file served under a 25% / 50% / 100% resident-byte budget
// vs a fully-resident baseline, with fault-in p50/p99, pool churn, and a
// bit-identity check of every served answer (CI gates answers_match and
// peak <= budget via tools/check_bench_gates.py), and a "streaming"
// arm: serving under live appends with drift-driven refresh off vs on —
// QPS, stale-sketch vs post-refresh probe MAE against the drift policy
// bound, refresh lag, partial-retrain accounting, and a quiescent
// bit-identity check of the delta-composition contract, and a
// "compaction" arm: sustained appends against a swappable base table
// with the delta folded in (explicit Compact calls vs the refresh
// controller's threshold sweep), reporting fold/trim accounting, the
// bounded resident delta, and mid-run bit-identity against from-scratch
// scans (CI gates freshness + answers_match + bounded compaction via
// tools/check_bench_gates.py).
//
// Usage: bench_serving_throughput [out.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/catalog.h"
#include "core/drift.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "data/streaming_table.h"
#include "serve/refresh.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/buffer_pool.h"
#include "util/metrics.h"
#include "util/random.h"

namespace neurosketch {
namespace bench {
namespace {

using serve::DeltaBuffer;
using serve::RefreshController;
using serve::RefreshOptions;
using serve::RefreshStats;
using serve::RefreshTarget;
using serve::ServeEngine;
using serve::ServeKey;
using serve::ServeOptions;
using serve::ServeResult;
using serve::ServeStats;
using serve::SketchStore;

struct RunResult {
  std::string mode;
  size_t clients = 0;
  double window_us = 0.0;
  size_t max_batch = 0;
  size_t shards = 0;  // dispatcher shards the engine actually ran with
  double qps = 0.0;
  ServeStats stats;
};

constexpr size_t kPerClient = 8000;
constexpr size_t kBurst = 128;  // client-side submission burst

/// Single-query forward-pass latency percentiles, in nanoseconds.
struct LatencyNs {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Times each call individually (steady_clock, ~20-30ns overhead, paid
/// equally by both paths) and reports sample percentiles.
template <typename Fn>
LatencyNs MeasureSingleQuery(const std::vector<QueryInstance>& pool,
                             const Fn& answer_one) {
  using SteadyClock = std::chrono::steady_clock;
  constexpr size_t kWarmup = 5000;
  constexpr size_t kSamples = 50000;
  double sink = 0.0;
  for (size_t i = 0; i < kWarmup; ++i) {
    sink += answer_one(pool[i % pool.size()]);
  }
  std::vector<double> ns(kSamples);
  for (size_t i = 0; i < kSamples; ++i) {
    const auto t0 = SteadyClock::now();
    sink += answer_one(pool[i % pool.size()]);
    const auto t1 = SteadyClock::now();
    ns[i] = std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  volatile double keep = sink;  // keep the timed calls observable
  (void)keep;
  std::sort(ns.begin(), ns.end());
  LatencyNs out;
  out.p50 = ns[kSamples / 2];
  out.p95 = ns[kSamples * 95 / 100];
  out.p99 = ns[kSamples * 99 / 100];
  return out;
}

/// Per-query dispatch: batching disabled, one Answer call per request.
RunResult RunPerQuery(const SketchStore* store, const QueryFunctionSpec& spec,
                      const std::vector<QueryInstance>& pool, size_t clients,
                      bool stage_tracing = true) {
  ServeOptions opts;
  opts.max_batch = 1;
  opts.batch_window_us = 0.0;
  opts.stage_tracing = stage_tracing;
  ServeEngine eng(store, opts);
  Timer t;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<ServeResult>> futs;
      futs.reserve(kBurst);
      size_t done = 0;
      while (done < kPerClient) {
        const size_t n = std::min(kBurst, kPerClient - done);
        futs.clear();
        for (size_t i = 0; i < n; ++i) {
          futs.push_back(eng.Submit(
              "bench", spec, pool[(c * kPerClient + done + i) % pool.size()]));
        }
        for (auto& f : futs) f.get();
        done += n;
      }
    });
  }
  for (auto& th : threads) th.join();
  RunResult r;
  r.mode = "per_query";
  r.clients = clients;
  r.max_batch = 1;
  r.shards = eng.num_shards();
  r.qps = static_cast<double>(clients * kPerClient) / t.ElapsedSeconds();
  r.stats = eng.Snapshot();
  return r;
}

/// Micro-batched dispatch: burst submission + server-side coalescing.
RunResult RunBatched(const SketchStore* store, const QueryFunctionSpec& spec,
                     const std::vector<QueryInstance>& pool, size_t clients,
                     size_t max_batch, double window_us,
                     metrics::MetricsRegistry* export_reg = nullptr) {
  ServeOptions opts;
  opts.max_batch = max_batch;
  opts.batch_window_us = window_us;
  ServeEngine eng(store, opts);
  Timer t;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t done = 0;
      while (done < kPerClient) {
        const size_t n = std::min(kBurst, kPerClient - done);
        std::vector<QueryInstance> burst;
        burst.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          burst.push_back(
              pool[(c * kPerClient + done + i) % pool.size()]);
        }
        eng.SubmitMany("bench", spec, std::move(burst)).get();
        done += n;
      }
    });
  }
  for (auto& th : threads) th.join();
  RunResult r;
  r.mode = "micro_batch";
  r.clients = clients;
  r.window_us = window_us;
  r.max_batch = max_batch;
  r.shards = eng.num_shards();
  r.qps = static_cast<double>(clients * kPerClient) / t.ElapsedSeconds();
  r.stats = eng.Snapshot();
  if (export_reg != nullptr) eng.ExportMetrics(export_reg);
  return r;
}

/// Multi-core scaling arm: 8 clients, each hammering its own store (the
/// stores all share one sketch), at an explicit shard count. With one
/// store per client the engine can spread the stores across shards, so
/// this measures dispatcher scaling rather than single-key batching.
RunResult RunMultiCore(const SketchStore* store,
                       const QueryFunctionSpec& spec,
                       const std::vector<std::string>& datasets,
                       const std::vector<QueryInstance>& pool,
                       size_t clients, size_t num_shards) {
  ServeOptions opts;
  opts.max_batch = 512;
  opts.batch_window_us = 200.0;
  opts.num_shards = num_shards;
  ServeEngine eng(store, opts);
  Timer t;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::string& dataset = datasets[c % datasets.size()];
      size_t done = 0;
      while (done < kPerClient) {
        const size_t n = std::min(kBurst, kPerClient - done);
        std::vector<QueryInstance> burst;
        burst.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          burst.push_back(pool[(c * kPerClient + done + i) % pool.size()]);
        }
        eng.SubmitMany(dataset, spec, std::move(burst)).get();
        done += n;
      }
    });
  }
  for (auto& th : threads) th.join();
  RunResult r;
  r.mode = "multi_core";
  r.clients = clients;
  r.window_us = opts.batch_window_us;
  r.max_batch = opts.max_batch;
  r.shards = eng.num_shards();
  r.qps = static_cast<double>(clients * kPerClient) / t.ElapsedSeconds();
  r.stats = eng.Snapshot();
  return r;
}

/// Zipfian skewed-load arm: per-store traffic drawn Zipf(s) over
/// `datasets` (store 0 hottest), every client sampling independently.
/// Skew concentrates load on one store -> one shard, so this is the
/// worst case for shard balance and the tail the per-shard metrics
/// exist to explain.
struct ZipfReport {
  double s = 0.99;
  size_t stores = 0;
  size_t clients = 0;
  double qps = 0.0;
  double hottest_share = 0.0;    // fraction of traffic on store 0
  double shard_imbalance = 0.0;  // hottest shard / mean shard load
  ServeStats stats;
};

ZipfReport RunZipfian(const SketchStore* store, const QueryFunctionSpec& spec,
                      const std::vector<std::string>& datasets,
                      const std::vector<QueryInstance>& pool, size_t clients,
                      double s) {
  // Cumulative Zipf weights: w_i = 1/(i+1)^s.
  std::vector<double> cum(datasets.size());
  double total = 0.0;
  for (size_t i = 0; i < datasets.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cum[i] = total;
  }
  for (double& c : cum) c /= total;

  ServeOptions opts;
  opts.max_batch = 512;
  opts.batch_window_us = 200.0;
  ServeEngine eng(store, opts);
  constexpr size_t kZipfBurst = 32;  // store re-drawn per burst
  Timer t;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * (c + 1);  // per-client LCG
      size_t done = 0;
      while (done < kPerClient) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const double u =
            static_cast<double>(rng >> 11) * (1.0 / 9007199254740992.0);
        const size_t pick =
            std::lower_bound(cum.begin(), cum.end(), u) - cum.begin();
        const size_t n = std::min(kZipfBurst, kPerClient - done);
        std::vector<QueryInstance> burst;
        burst.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          burst.push_back(pool[(c * kPerClient + done + i) % pool.size()]);
        }
        eng.SubmitMany(datasets[std::min(pick, datasets.size() - 1)], spec,
                       std::move(burst))
            .get();
        done += n;
      }
    });
  }
  for (auto& th : threads) th.join();

  ZipfReport z;
  z.s = s;
  z.stores = datasets.size();
  z.clients = clients;
  z.qps = static_cast<double>(clients * kPerClient) / t.ElapsedSeconds();
  z.stats = eng.Snapshot();
  const std::string hottest = datasets[0] + "/";
  uint64_t hot_shard = 0;
  for (const auto& sd : z.stats.per_shard) {
    hot_shard = std::max(hot_shard, sd.queries);
  }
  const double mean_shard =
      z.stats.per_shard.empty()
          ? 0.0
          : static_cast<double>(z.stats.queries) /
                static_cast<double>(z.stats.per_shard.size());
  z.shard_imbalance =
      mean_shard > 0.0 ? static_cast<double>(hot_shard) / mean_shard : 0.0;
  for (const auto& ss : z.stats.per_store) {
    if (ss.store.compare(0, hottest.size(), hottest) == 0) {
      z.hottest_share = z.stats.queries > 0
                            ? static_cast<double>(ss.queries) /
                                  static_cast<double>(z.stats.queries)
                            : 0.0;
    }
  }
  return z;
}

// ---------------------------------------------------------------------------
// Paged-catalog arm: disk-resident cold sketches under a resident budget.
//
// 256 copies of one small trained sketch are packed into a single paged
// catalog file under distinct query-function keys, then served through
// the engine at 25% / 50% / 100% of the fully-resident footprint and
// compared against a baseline store holding all 256 in memory. Every
// answer in every run is compared bit-for-bit against the sketch's own
// fully-resident output — the paging layer must never perturb a bit —
// and the pool's peak residency must stay within budget. Both properties
// land in the json for tools/check_bench_gates.py to gate.

constexpr size_t kPagedSketches = 256;

struct PagedBudgetRow {
  double budget_fraction = 0.0;
  size_t budget_bytes = 0;
  double qps = 0.0;
  double faultin_p50_us = 0.0;
  double faultin_p99_us = 0.0;
  BufferPoolStats pool;
  bool answers_match = false;
};

struct PagedCatalogReport {
  bool ran = false;
  size_t sketches = 0;
  size_t image_bytes_per_sketch = 0;     // on-disk (serialized) size
  size_t resident_bytes_per_sketch = 0;  // warm (faulted-in) footprint
  double fully_resident_qps = 0.0;
  bool baseline_answers_match = false;
  std::vector<PagedBudgetRow> rows;
};

PagedCatalogReport RunPagedCatalog(const std::string& out_path) {
  PagedCatalogReport rep;

  // A small COUNT sketch on a synthetic table: fault-ins stay cheap
  // enough that the 25%-budget run (every pass mostly cold) finishes in
  // seconds, while the evict -> reload -> recompile path is exercised
  // exactly as it would be for a production-size sketch.
  Table table = MakeUniformTable(4000, 2, 909);
  ExactEngine engine(&table);
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  WorkloadConfig wc;
  wc.num_active = 1;
  wc.seed = 910;
  WorkloadGenerator gen(2, wc);
  const std::vector<QueryInstance> train_q =
      gen.GenerateMany(500, &engine, &spec);
  const std::vector<double> train_a = engine.AnswerBatch(spec, train_q);
  WorkloadConfig pc = wc;
  pc.seed = 913;
  WorkloadGenerator pgen(2, pc);
  const std::vector<QueryInstance> raw_probes =
      pgen.GenerateMany(160, &engine, &spec);

  NeuroSketchConfig cfg;
  cfg.tree_height = 1;
  cfg.target_partitions = 1;
  cfg.n_layers = 2;
  cfg.l_first = 8;
  cfg.l_rest = 8;
  cfg.train.epochs = 10;
  cfg.seed = 911;
  auto sk = NeuroSketch::Train(train_q, train_a, cfg);
  if (!sk.ok()) {
    std::fprintf(stderr, "paged_catalog train: %s\n",
                 sk.status().ToString().c_str());
    return rep;
  }
  auto shared = std::make_shared<const NeuroSketch>(std::move(sk).value());

  // Keep only probes the sketch genuinely answers: a NaN answer would be
  // repaired by the exact engine on the serve path, which would make the
  // bit-identity comparison test the fallback rather than the pager.
  std::vector<QueryInstance> probes;
  std::vector<double> reference;
  const std::vector<double> all = shared->AnswerBatch(raw_probes);
  for (size_t i = 0; i < all.size(); ++i) {
    if (std::isnan(all[i])) continue;
    probes.push_back(raw_probes[i]);
    reference.push_back(all[i]);
  }
  if (probes.size() < 32) {
    std::fprintf(stderr, "paged_catalog: only %zu usable probes\n",
                 probes.size());
    return rep;
  }

  auto key_for = [](size_t i) {
    QueryFunctionKey key;
    key.predicate_name = AxisRangePredicate::Make()->name();
    key.agg = Aggregate::kCount;
    key.measure_col = i;  // distinct measure columns make distinct keys
    return key;
  };
  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
      entries;
  for (size_t i = 0; i < kPagedSketches; ++i) {
    entries.emplace_back(key_for(i), shared);
  }
  const std::string cat_path = out_path + ".paged.cat";
  Status pack = WritePagedCatalog(cat_path, entries);
  if (!pack.ok()) {
    std::fprintf(stderr, "paged_catalog pack: %s\n", pack.ToString().c_str());
    return rep;
  }

  // Budget in units of what a faulted-in sketch ACTUALLY occupies (the
  // warm footprint), probed by loading one entry back.
  auto probe_reader = PagedCatalogReader::Open(cat_path);
  if (!probe_reader.ok()) return rep;
  auto probe =
      probe_reader.value().LoadEntry(probe_reader.value().entries().front());
  if (!probe.ok()) return rep;
  rep.sketches = kPagedSketches;
  rep.image_bytes_per_sketch = shared->SizeBytes();
  rep.resident_bytes_per_sketch = probe.value().ResidentBytes();

  // Steady-state drive: 4 clients sweep all keys in 16-query bursts,
  // staggered so their working sets overlap but do not march in
  // lockstep, each comparing every answer against the reference bits.
  constexpr size_t kClients = 4, kPasses = 2, kBurstQ = 16;
  auto drive = [&](SketchStore* store, std::atomic<size_t>* mismatches) {
    ServeOptions opts;
    opts.max_batch = 512;
    opts.batch_window_us = 0.0;
    ServeEngine eng(store, opts);
    Timer t;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t pass = 0; pass < kPasses; ++pass) {
          for (size_t k = 0; k < kPagedSketches; ++k) {
            const size_t key_i = (k + c * 64) % kPagedSketches;
            QueryFunctionSpec key_spec = spec;
            key_spec.measure_col = key_i;
            const size_t off = (pass * 31 + k) % (probes.size() - kBurstQ);
            std::vector<QueryInstance> burst(
                probes.begin() + off, probes.begin() + off + kBurstQ);
            auto results =
                eng.SubmitMany("paged", key_spec, std::move(burst)).get();
            for (size_t j = 0; j < results.size(); ++j) {
              if (std::memcmp(&results[j].value, &reference[off + j],
                              sizeof(double)) != 0) {
                mismatches->fetch_add(1);
              }
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    return static_cast<double>(kClients * kPasses * kPagedSketches * kBurstQ) /
           t.ElapsedSeconds();
  };

  // Fully-resident baseline: all 256 registered in memory, no pool.
  {
    SketchStore store;
    (void)store.RegisterDataset("paged", &engine);
    for (size_t i = 0; i < kPagedSketches; ++i) {
      QueryFunctionSpec key_spec = spec;
      key_spec.measure_col = i;
      (void)store.Register("paged", key_spec, shared);
    }
    std::atomic<size_t> mismatches{0};
    rep.fully_resident_qps = drive(&store, &mismatches);
    rep.baseline_answers_match = mismatches.load() == 0;
  }

  // Paged runs: same catalog, same drive, shrinking resident budget.
  for (double frac : {1.0, 0.5, 0.25}) {
    SketchStore store;
    (void)store.RegisterDataset("paged", &engine);
    serve::PagedCatalogOptions opts;
    opts.max_resident_bytes = static_cast<size_t>(
        frac *
        static_cast<double>(rep.resident_bytes_per_sketch * kPagedSketches));
    auto attached = store.AttachPagedCatalog("paged", cat_path, opts);
    if (!attached.ok()) {
      std::fprintf(stderr, "paged_catalog attach: %s\n",
                   attached.status().ToString().c_str());
      std::remove(cat_path.c_str());
      return rep;
    }
    PagedBudgetRow row;
    row.budget_fraction = frac;
    row.budget_bytes = opts.max_resident_bytes;
    std::atomic<size_t> mismatches{0};
    row.qps = drive(&store, &mismatches);
    row.answers_match = mismatches.load() == 0;
    row.pool = store.PagedStats();
    if (const metrics::LogHistogram* h = store.FaultinLatency()) {
      row.faultin_p50_us = h->PercentileUs(50);
      row.faultin_p99_us = h->PercentileUs(99);
    }
    rep.rows.push_back(row);
  }
  std::remove(cat_path.c_str());
  rep.ran = true;
  return rep;
}

// ---------------------------------------------------------------------
// Streaming arm: serving under live appends + drift-driven refresh.

struct StreamingReport {
  bool ran = false;
  size_t total_leaves = 0;
  size_t delta_rows = 0;            // drift rows appended during the run
  double policy_max_normalized_mae = 0.0;
  double baseline_normalized_mae = 0.0;  // fresh sketch vs base table
  /// Refresh OFF endpoint: the stale sketch probed against the appended
  /// (base + delta) truth — the error refresh exists to repair. Note the
  /// SERVED answers stay exact throughout (delta composition); this is
  /// the raw model drift.
  double drifted_normalized_mae = 0.0;
  /// Refresh ON endpoint: probe MAE once the controller has converged.
  double post_refresh_normalized_mae = 0.0;
  double refresh_lag_ms = 0.0;  // load end -> drift back within bound
  double qps_refresh_off = 0.0;
  double qps_refresh_on = 0.0;
  double p50_off_us = 0.0, p99_off_us = 0.0;
  double p50_on_us = 0.0, p99_on_us = 0.0;
  bool answers_match_off = false;
  bool answers_match_on = false;
  bool full_rebuild = true;  // did any swap retrain every leaf?
  RefreshStats refresh;
  uint64_t delta_corrected_on = 0;  // sketch+correction answers, ON arm
  uint64_t delta_exact_on = 0;
};

constexpr size_t kStreamClients = 4;
constexpr size_t kStreamPerClient = 4000;

/// Mirrors the drift scenario proven in tests/streaming_test.cc: a GMM
/// base table, a COUNT sketch, and a smooth Gaussian drift cloud confined
/// to ONE kd-tree leaf (reject-sampled against the other leaves' probe
/// boxes, sized so the added match mass is 3x the baseline truth mass —
/// post-drift probe MAE >= 0.75 against the 0.5 policy bound by
/// construction). Two serving runs under live appends of that cloud:
/// refresh OFF (drift accumulates; answers stay exact via delta
/// composition) and refresh ON (the controller flags the drifted leaf,
/// retrains only it, and swaps). Both runs end with a quiescent
/// bit-identity check of every served answer against the composition
/// contract recomputed from the store's own served view.
StreamingReport RunStreaming() {
  StreamingReport rep;

  Dataset ds = MakeGmmDataset(1500, 3, 3, /*seed=*/91);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  ExactEngine engine(&base);
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = ds.measure_col;

  NeuroSketchConfig cfg;
  cfg.tree_height = 2;
  cfg.target_partitions = 4;
  cfg.n_layers = 4;
  cfg.l_first = 32;
  cfg.l_rest = 16;
  cfg.train.epochs = 150;

  WorkloadConfig wc;
  wc.num_active = 3;
  wc.range_frac_lo = 0.3;
  wc.range_frac_hi = 0.6;
  wc.seed = 17;
  WorkloadGenerator gen(base.num_columns(), wc);
  const std::vector<QueryInstance> train_q =
      gen.GenerateMany(800, &engine, &spec);
  auto trained =
      NeuroSketch::Train(train_q, engine.AnswerBatch(spec, train_q), cfg);
  if (!trained.ok()) {
    std::fprintf(stderr, "streaming train: %s\n",
                 trained.status().ToString().c_str());
    return rep;
  }
  auto shared =
      std::make_shared<const NeuroSketch>(std::move(trained).value());
  rep.total_leaves = shared->num_partitions();

  WorkloadConfig pc = wc;
  pc.seed = 29;
  WorkloadGenerator pgen(base.num_columns(), pc);
  const std::vector<QueryInstance> probes =
      pgen.GenerateMany(120, &engine, &spec);

  // Route the probes; the best-covered leaf is the drift target.
  std::map<int, std::vector<size_t>> by_leaf;
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto* leaf = shared->tree().Route(probes[i]);
    if (leaf != nullptr) by_leaf[leaf->leaf_id].push_back(i);
  }
  int target_leaf = -1;
  for (const auto& [id, members] : by_leaf) {
    if (target_leaf < 0 || members.size() > by_leaf[target_leaf].size()) {
      target_leaf = id;
    }
  }
  if (target_leaf < 0 || by_leaf[target_leaf].size() < 3) {
    std::fprintf(stderr, "streaming: no probe-covered leaf to drift\n");
    return rep;
  }

  DriftPolicy policy;
  policy.max_normalized_mae = 0.5;
  policy.min_probes = 10;
  policy.min_leaf_probes = 3;
  rep.policy_max_normalized_mae = policy.max_normalized_mae;
  const std::vector<double> base_truth = engine.AnswerBatch(spec, probes);
  rep.baseline_normalized_mae = DriftMonitor(spec, probes, policy)
                                    .CheckAgainst(*shared, base_truth)
                                    .normalized_mae;

  // Drift cloud (see tests/streaming_test.cc for the derivation).
  double truth_mass = 0.0;
  for (double t : base_truth) {
    if (!std::isnan(t)) truth_mass += std::abs(t);
  }
  const size_t d = base.num_columns();
  auto clean_of_other_leaves = [&](const std::vector<double>& row) {
    for (const auto& [id, members] : by_leaf) {
      if (id == target_leaf) continue;
      for (const size_t oi : members) {
        if (spec.predicate->Matches(probes[oi], row.data(), d)) return false;
      }
    }
    return true;
  };
  std::vector<std::vector<double>> centers;
  for (const size_t pi : by_leaf[target_leaf]) {
    const QueryInstance& p = probes[pi];
    std::vector<double> row(d);
    for (size_t c = 0; c < d; ++c) {
      row[c] = std::clamp(p.q[c] + 0.5 * p.q[d + c], 0.0, 1.0);
    }
    if (clean_of_other_leaves(row)) centers.push_back(std::move(row));
    if (centers.size() >= 3) break;
  }
  if (centers.empty()) {
    std::fprintf(stderr, "streaming: no isolatable drift center\n");
    return rep;
  }
  std::vector<std::vector<double>> drift_rows;
  Rng noise(777);
  double added_mass = 0.0;
  const double goal = 3.0 * std::max(truth_mass, 1.0);
  for (size_t iter = 0; added_mass < goal && iter < 2000000; ++iter) {
    const std::vector<double>& center = centers[iter % centers.size()];
    std::vector<double> row(d);
    for (size_t c = 0; c < d; ++c) {
      row[c] = std::clamp(center[c] + noise.Normal(0.0, 0.08), 0.0, 1.0);
    }
    if (!clean_of_other_leaves(row)) continue;
    size_t matched = 0;
    for (const size_t pi : by_leaf[target_leaf]) {
      if (spec.predicate->Matches(probes[pi], row.data(), d)) ++matched;
    }
    if (matched == 0) continue;
    added_mass += static_cast<double>(matched);
    drift_rows.push_back(std::move(row));
  }
  if (added_mass < goal) {
    std::fprintf(stderr, "streaming: drift cloud under-massed\n");
    return rep;
  }
  rep.delta_rows = drift_rows.size();

  // The appended ground truth both arms are measured against.
  Table merged = base;
  for (const auto& r : drift_rows) (void)merged.AppendRow(r);
  const ExactEngine merged_engine(&merged);
  const std::vector<double> merged_truth =
      merged_engine.AnswerBatch(spec, probes, 0);

  // Load: kStreamClients clients hammer the store while one appender
  // streams the drift cloud in, 256 rows per append call.
  auto load = [&](ServeEngine* eng, SketchStore* st) {
    Timer t;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kStreamClients; ++c) {
      clients.emplace_back([&, c] {
        size_t done = 0;
        while (done < kStreamPerClient) {
          const size_t n = std::min(kBurst, kStreamPerClient - done);
          std::vector<QueryInstance> burst;
          burst.reserve(n);
          for (size_t i = 0; i < n; ++i) {
            burst.push_back(
                probes[(c * kStreamPerClient + done + i) % probes.size()]);
          }
          eng->SubmitMany("stream", spec, std::move(burst)).get();
          done += n;
        }
      });
    }
    std::thread appender([&] {
      for (size_t i = 0; i < drift_rows.size(); i += 256) {
        const size_t n = std::min<size_t>(256, drift_rows.size() - i);
        std::vector<std::vector<double>> chunk(drift_rows.begin() + i,
                                               drift_rows.begin() + i + n);
        (void)st->AppendRows("stream", chunk);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (auto& th : clients) th.join();
    appender.join();
    return static_cast<double>(kStreamClients * kStreamPerClient) /
           t.ElapsedSeconds();
  };

  // Quiescent bit-identity check: every served answer must equal the
  // composition contract recomputed from the store's own served view —
  // sketch answer + exact count of UNFOLDED delta rows (those at or past
  // the answering leaf's fold watermark), or the merged exact answer
  // where the sketch returns NaN (the repaired path).
  auto answers_match = [&](ServeEngine* eng, SketchStore* st) {
    const serve::ServedView view =
        st->LookupServed(ServeKey::From("stream", spec));
    if (view.sketch == nullptr || view.delta == nullptr) return false;
    DeltaBuffer::Snapshot snap = view.delta->Snap();
    size_t mismatches = 0;
    for (const QueryInstance& q : probes) {
      const double sk = view.sketch->Answer(q);
      double expected;
      if (std::isnan(sk)) {
        expected = merged_engine.Answer(spec, q);
      } else {
        uint64_t wm = 0;
        const auto* leaf = view.sketch->tree().Route(q);
        if (leaf != nullptr && view.leaf_folded != nullptr &&
            static_cast<size_t>(leaf->leaf_id) < view.leaf_folded->size()) {
          wm = (*view.leaf_folded)[static_cast<size_t>(leaf->leaf_id)];
        }
        size_t matched = 0;
        snap.ForEachRow(std::max<size_t>(wm, snap.begin()), snap.end(),
                        [&](const double* r) {
                          if (spec.predicate->Matches(q, r, d)) ++matched;
                        });
        expected = sk + static_cast<double>(matched);
      }
      const double got = eng->Submit("stream", spec, q).get().value;
      if (std::memcmp(&got, &expected, sizeof(double)) != 0) ++mismatches;
    }
    return mismatches == 0;
  };

  ServeOptions sopts;
  sopts.max_batch = 512;
  sopts.batch_window_us = 100.0;

  // Refresh OFF: drift accumulates in the sketch; serving stays exact
  // only because the delta composition corrects every answer.
  {
    SketchStore st;
    (void)st.RegisterDataset("stream", &engine);
    (void)st.Register("stream", spec, shared);
    Status en = st.EnableStreaming("stream", base.num_columns());
    if (!en.ok()) {
      std::fprintf(stderr, "streaming: %s\n", en.ToString().c_str());
      return rep;
    }
    ServeEngine eng(&st, sopts);
    rep.qps_refresh_off = load(&eng, &st);
    const ServeStats ss = eng.Snapshot();
    rep.p50_off_us = ss.p50_us;
    rep.p99_off_us = ss.p99_us;
    rep.answers_match_off = answers_match(&eng, &st);
    const auto stale = st.Lookup(ServeKey::From("stream", spec));
    if (stale != nullptr) {
      rep.drifted_normalized_mae = DriftMonitor(spec, probes, policy)
                                       .CheckAgainst(*stale, merged_truth)
                                       .normalized_mae;
    }
  }

  // Refresh ON: same load, with the controller probing every 25ms and
  // swapping a partially-retrained sketch when the target leaf drifts
  // out of bound.
  {
    SketchStore st;
    (void)st.RegisterDataset("stream", &engine);
    (void)st.Register("stream", spec, shared);
    if (!st.EnableStreaming("stream", base.num_columns()).ok()) return rep;
    RefreshOptions ro;
    ro.interval_ms = 25;
    ro.probe_threads = 0;  // hardware concurrency
    ro.max_failures_before_demote = 0;
    RefreshController ctrl(&st, nullptr, ro);
    std::vector<QueryInstance> retrain_q = train_q;
    retrain_q.insert(retrain_q.end(), probes.begin(), probes.end());
    ctrl.AddTarget(RefreshTarget{
        "stream", DriftMonitor(spec, probes, policy), cfg, retrain_q});
    ctrl.Start();
    ServeEngine eng(&st, sopts);
    rep.qps_refresh_on = load(&eng, &st);
    {
      const ServeStats ss = eng.Snapshot();
      rep.p50_on_us = ss.p50_us;
      rep.p99_on_us = ss.p99_us;
    }

    // Convergence lag: from load end until a refresh pass finds (or
    // restores) drift within the policy bound.
    Timer lag;
    double final_mae = policy.max_normalized_mae + 1.0;
    for (int i = 0; i < 8; ++i) {
      auto out = ctrl.RefreshNow("stream", spec);
      if (!out.ok()) break;
      final_mae =
          out.value().retrained ? out.value().post_mae : out.value().pre_mae;
      if (!out.value().failed && final_mae <= policy.max_normalized_mae) {
        break;
      }
    }
    rep.refresh_lag_ms = lag.ElapsedSeconds() * 1e3;
    ctrl.Stop();
    rep.post_refresh_normalized_mae = final_mae;
    rep.refresh = ctrl.Stats();
    // Every swap partial <=> cumulative retrained leaves < swaps * total.
    rep.full_rebuild =
        rep.refresh.swaps > 0 &&
        rep.refresh.retrained_leaves >= rep.refresh.swaps * rep.total_leaves;
    rep.answers_match_on = answers_match(&eng, &st);
    const ServeStats ss = eng.Snapshot();
    rep.delta_corrected_on = ss.delta_corrected_answers;
    rep.delta_exact_on = ss.delta_exact_answers;
  }

  rep.ran = true;
  return rep;
}

// ---------------------------------------------------------------------------
// Compaction arm: sustained appends with the delta folded into a swappable
// base table. Two modes over an exact-only streaming dataset (no sketch
// registered, so the safe fold watermark is the full delta): refresh OFF
// calls SketchStore::Compact explicitly whenever the resident delta crosses
// the row threshold; refresh ON leaves folding to the RefreshController's
// sweep (compact_min_rows policy, no targets). Both modes sample served
// answers mid-run for all seven aggregates and require them bit-identical
// to a from-scratch scan of base + every row appended so far — across
// however many base-table swaps compaction performed. The CI gate
// (tools/check_bench_gates.py) requires >= 1 compaction,
// trimmed_rows > 0, answers_match, and the resident delta bounded by the
// policy threshold instead of growing with the append history.

struct CompactionModeReport {
  uint64_t compactions = 0;   // store counter: Compact calls that folded
  uint64_t folded_rows = 0;   // store counter: rows folded into the table
  uint64_t trimmed_rows = 0;  // delta counter: rows dropped after folding
  size_t peak_delta_rows = 0;   // max resident rows observed during the run
  size_t final_delta_rows = 0;  // resident rows once the run quiesced
  size_t final_delta_bytes = 0;
  uint64_t table_folded = 0;  // streaming-table fold watermark at the end
  bool delta_bounded = false;
  bool answers_match = false;
  size_t sampled_answers = 0;
  double wall_seconds = 0.0;
};

struct CompactionReport {
  bool ran = false;
  size_t chunk_rows = 0;
  size_t compact_min_rows = 0;
  size_t append_rows = 0;
  CompactionModeReport off, on;
};

CompactionReport RunCompaction() {
  CompactionReport rep;
  rep.chunk_rows = 64;
  rep.compact_min_rows = 512;
  constexpr size_t kAppendRows = 6000;
  constexpr size_t kBatchRows = 128;
  rep.append_rows = kAppendRows;

  Dataset ds = MakeGmmDataset(1200, 3, 3, /*seed=*/51);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const size_t d = base.num_columns();

  // Append stream: jittered copies of base rows, clamped to the unit cube.
  Rng rng(4242);
  std::vector<std::vector<double>> stream_rows;
  stream_rows.reserve(kAppendRows);
  for (size_t i = 0; i < kAppendRows; ++i) {
    const size_t src = rng.Index(base.num_rows());
    std::vector<double> row(d);
    for (size_t c = 0; c < d; ++c) {
      row[c] = std::clamp(base.at(src, c) + rng.Uniform(-0.1, 0.1), 0.0, 1.0);
    }
    stream_rows.push_back(std::move(row));
  }

  // One spec per aggregate, all sharing the probe set below.
  const Aggregate kAggs[] = {Aggregate::kCount, Aggregate::kSum,
                             Aggregate::kAvg,   Aggregate::kMin,
                             Aggregate::kMax,   Aggregate::kStd,
                             Aggregate::kMedian};
  std::vector<QueryFunctionSpec> specs;
  for (const Aggregate agg : kAggs) {
    QueryFunctionSpec s;
    s.predicate = AxisRangePredicate::Make();
    s.agg = agg;
    s.measure_col = ds.measure_col;
    specs.push_back(std::move(s));
  }
  ExactEngine base_engine(&base);
  WorkloadConfig wc;
  wc.num_active = 2;
  wc.range_frac_lo = 0.3;
  wc.range_frac_hi = 0.7;
  wc.seed = 67;
  WorkloadGenerator gen(d, wc);
  const std::vector<QueryInstance> probes =
      gen.GenerateMany(4, &base_engine, &specs[0]);
  if (probes.empty()) {
    std::fprintf(stderr, "compaction: no probe queries\n");
    return rep;
  }

  ServeOptions sopts;
  sopts.max_batch = 256;
  sopts.batch_window_us = 50.0;

  auto run_mode = [&](bool refresh_on, CompactionModeReport* m) {
    StreamingTable table(base);
    ExactEngine engine(&table);
    SketchStore st;
    (void)st.RegisterDataset("hot", &engine);
    if (!st.EnableStreaming("hot", d, rep.chunk_rows).ok()) return false;
    if (!st.AttachStreamingTable("hot", &table).ok()) return false;
    ServeEngine serve(&st, sopts);
    std::unique_ptr<RefreshController> ctrl;
    if (refresh_on) {
      RefreshOptions ro;
      ro.interval_ms = 5;
      ro.compact_min_rows = rep.compact_min_rows;
      ctrl = std::make_unique<RefreshController>(&st, nullptr, ro);
      ctrl->Start();
    }

    Table mirror = base;  // from-scratch oracle: base + all appended rows
    size_t mismatches = 0;
    auto sample = [&] {
      const ExactEngine oracle(&mirror);
      for (const QueryFunctionSpec& s : specs) {
        for (const QueryInstance& q : probes) {
          const double expected = oracle.Answer(s, q);
          const double got = serve.Submit("hot", s, q).get().value;
          if (std::memcmp(&got, &expected, sizeof(double)) != 0) {
            ++mismatches;
          }
          ++m->sampled_answers;
        }
      }
    };

    Timer t;
    size_t batch_no = 0;
    for (size_t i = 0; i < kAppendRows; i += kBatchRows, ++batch_no) {
      const size_t n = std::min(kBatchRows, kAppendRows - i);
      std::vector<std::vector<double>> chunk(stream_rows.begin() + i,
                                             stream_rows.begin() + i + n);
      for (const auto& r : chunk) (void)mirror.AppendRow(r);
      if (!st.AppendRows("hot", chunk).ok()) return false;
      const auto dstats = st.DeltaStats();
      if (!dstats.empty()) {
        m->peak_delta_rows = std::max(m->peak_delta_rows,
                                      dstats.front().second.rows);
        if (!refresh_on &&
            dstats.front().second.rows >= rep.compact_min_rows) {
          if (!st.Compact("hot").ok()) return false;
        }
      }
      if (refresh_on) {
        // Pace the appends so the 5ms controller sweep interleaves with
        // the load instead of seeing one giant post-hoc delta.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      if (batch_no % 8 == 0) sample();
    }
    if (refresh_on) {
      // Quiesce: the controller owns folding — wait for its sweep to pull
      // the resident delta back under the policy threshold.
      for (int spin = 0; spin < 600; ++spin) {
        const auto dstats = st.DeltaStats();
        const auto cstats = st.CompactionStats();
        const bool drained =
            !dstats.empty() && dstats.front().second.rows < rep.compact_min_rows &&
            !cstats.empty() && cstats.front().second.compactions > 0;
        if (drained) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ctrl->Stop();
    } else {
      // Fold the sub-threshold tail so both modes end quiesced.
      if (!st.Compact("hot").ok()) return false;
    }
    sample();
    m->wall_seconds = t.ElapsedSeconds();

    const auto cstats = st.CompactionStats();
    if (!cstats.empty()) {
      m->compactions = cstats.front().second.compactions;
      m->folded_rows = cstats.front().second.folded_rows;
    }
    const auto dstats = st.DeltaStats();
    if (!dstats.empty()) {
      m->trimmed_rows = dstats.front().second.trimmed_rows;
      m->final_delta_rows = dstats.front().second.rows;
      m->final_delta_bytes = dstats.front().second.bytes;
      m->peak_delta_rows =
          std::max(m->peak_delta_rows, dstats.front().second.rows);
    }
    m->table_folded = table.folded();
    m->answers_match = mismatches == 0;
    // Bounded: the quiesced delta sits under the policy threshold (plus one
    // chunk of trim granularity) and the buffer never held the full append
    // history at once.
    m->delta_bounded =
        m->final_delta_rows <= rep.compact_min_rows + rep.chunk_rows &&
        m->peak_delta_rows < kAppendRows;
    return true;
  };

  if (!run_mode(false, &rep.off)) {
    std::fprintf(stderr, "compaction: refresh-off mode failed\n");
    return rep;
  }
  if (!run_mode(true, &rep.on)) {
    std::fprintf(stderr, "compaction: refresh-on mode failed\n");
    return rep;
  }
  rep.ran = true;
  return rep;
}

void PrintRow(const RunResult& r) {
  std::printf("%-12s %8zu %10.0f %10zu %7zu %12.0f %9.0f %9.0f %9.0f %9.0f "
              "%11.1f\n",
              r.mode.c_str(), r.clients, r.window_us, r.max_batch, r.shards,
              r.qps, r.stats.p50_us, r.stats.p95_us, r.stats.p99_us,
              r.stats.p999_us, r.stats.mean_batch_size);
}

/// Tracing on/off single-query serve p50s, measured as a paired design.
///
/// One client, submit one, wait, repeat — no burst, so no queueing
/// amplification (in a 128-deep burst the p50 request waits behind ~64
/// predecessors and every nanosecond of per-request dispatcher work is
/// paid ~64x in measured latency).
///
/// Three defenses against noise drowning a sub-100ns true difference:
///  - Both engines live for the whole measurement and small submission
///    chunks alternate between them (order flipped every round), so
///    slow machine-wide drift — frequency scaling, noisy neighbors —
///    lands on both arms nearly equally instead of biasing whichever
///    arm a drift window happened to cover.
///  - Each round-trip is timed individually and the exact pooled-sample
///    median is taken via nth_element rather than the engine's own p50:
///    the engine histogram is log-bucketed (~19% bucket width) and this
///    path's p50 sits right at a bucket edge (~2us), so a
///    nanosecond-scale true shift can read as a whole-bucket jump in
///    the interpolated value.
///  - Timing the round-trip charges the client for dispatcher tail work
///    it actually waits behind on saturated hosts, which the internal
///    enqueue->fulfill window misses.
struct TracingOverheadSample {
  double on_p50_us = 0.0;
  double off_p50_us = 0.0;
  double overhead_pct() const {
    return off_p50_us > 0.0 ? (on_p50_us - off_p50_us) / off_p50_us * 100.0
                            : 0.0;
  }
};

TracingOverheadSample MeasureTracingOverhead(
    const SketchStore* store, const QueryFunctionSpec& spec,
    const std::vector<QueryInstance>& pool) {
  ServeOptions opts;
  opts.max_batch = 1;
  opts.batch_window_us = 0.0;
  opts.stage_tracing = true;
  ServeEngine eng_on(store, opts);
  opts.stage_tracing = false;
  ServeEngine eng_off(store, opts);

  using SteadyClock = std::chrono::steady_clock;
  constexpr size_t kWarm = 500, kChunk = 250, kRounds = 40;
  std::vector<double> on_us, off_us;
  on_us.reserve(kChunk * kRounds);
  off_us.reserve(kChunk * kRounds);
  size_t qi = 0;
  auto run_chunk = [&](ServeEngine* eng, std::vector<double>* out) {
    for (size_t i = 0; i < kChunk; ++i) {
      const QueryInstance& q = pool[qi++ % pool.size()];
      const auto t0 = SteadyClock::now();
      eng->Submit("bench", spec, q).get();
      const auto t1 = SteadyClock::now();
      out->push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                         .count());
    }
  };
  for (size_t i = 0; i < kWarm; ++i) {
    eng_on.Submit("bench", spec, pool[i % pool.size()]).get();
    eng_off.Submit("bench", spec, pool[i % pool.size()]).get();
  }
  for (size_t round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      run_chunk(&eng_on, &on_us);
      run_chunk(&eng_off, &off_us);
    } else {
      run_chunk(&eng_off, &off_us);
      run_chunk(&eng_on, &on_us);
    }
  }
  auto median = [](std::vector<double>* v) {
    std::nth_element(v->begin(), v->begin() + v->size() / 2, v->end());
    return (*v)[v->size() / 2];
  };
  TracingOverheadSample s;
  s.on_p50_us = median(&on_us);
  s.off_p50_us = median(&off_us);
  return s;
}

/// Observability sections for the json snapshot: the headline run's stage
/// breakdown + per-store stats, the tracing on/off overhead on the
/// single-query serve path, and the registry document (build + serve).
struct ObservabilityReport {
  ServeStats headline;
  double tracing_on_p50_us = 0.0;
  double tracing_off_p50_us = 0.0;
  double overhead_pct = 0.0;
  std::string metrics_json;
};

/// f32-tier record for the json snapshot.
struct TierReport {
  bool active = false;
  double max_divergence = 0.0;
  double error_bound = 0.0;
  size_t plan_bytes_f64 = 0;
  size_t plan_bytes = 0;
  LatencyNs latency;
  double micro_batch_qps8 = 0.0;
  uint64_t tier_answers = 0;
};

/// Vectorized-batch throughput per tier (AnswerBatchVectorizedTo on
/// kBatchRows-query batches, float-marshalled gather for the f32 tier),
/// in million queries/second.
struct BatchedRow {
  const char* tier = "";
  double mqps = 0.0;
};

constexpr size_t kBatchRows = 512;

double MeasureBatchedMqps(const NeuroSketch& ns,
                          const std::vector<QueryInstance>& pool) {
  std::vector<QueryInstance> batch(pool.begin(),
                                   pool.begin() + std::min(kBatchRows,
                                                           pool.size()));
  std::vector<double> out(batch.size());
  constexpr size_t kWarmup = 20, kReps = 400;
  for (size_t i = 0; i < kWarmup; ++i) {
    ns.AnswerBatchVectorizedTo(batch, out.data());
  }
  Timer t;
  for (size_t i = 0; i < kReps; ++i) {
    ns.AnswerBatchVectorizedTo(batch, out.data());
  }
  const double seconds = t.ElapsedSeconds();
  return static_cast<double>(kReps * batch.size()) / seconds / 1e6;
}

void WriteBreakdown(FILE* f, const char* name,
                    const serve::LatencyBreakdown& b, const char* trailer) {
  std::fprintf(f,
               "    \"%s\": {\"count\": %llu, \"p50_us\": %.1f, "
               "\"p95_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}%s\n",
               name, static_cast<unsigned long long>(b.count), b.p50_us,
               b.p95_us, b.p99_us, b.p999_us, trailer);
}

Status WriteJson(const std::string& path, const std::vector<RunResult>& rows,
                 double per_query_qps8, double batched_qps8,
                 const LatencyNs& scalar, const LatencyNs& compiled,
                 const TierReport& f32,
                 const std::vector<BatchedRow>& batched,
                 const ObservabilityReport& obs,
                 const std::vector<RunResult>& multi_core,
                 const ZipfReport& zipf, const PagedCatalogReport& paged,
                 const StreamingReport& streaming,
                 const CompactionReport& compaction) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fprintf(f, "{\n  \"bench\": \"serving_throughput\",\n");
  std::fprintf(f, "  \"dataset\": \"PM\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"queries_per_client\": %zu,\n", kPerClient);
  std::fprintf(f, "  \"client_burst\": %zu,\n", kBurst);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"clients\": %zu, "
                 "\"batch_window_us\": %.0f, \"max_batch\": %zu, "
                 "\"shards\": %zu, "
                 "\"qps\": %.0f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
                 "\"p99_us\": %.1f, \"p999_us\": %.1f, \"mean_batch\": %.1f, "
                 "\"fallback_rate\": %.4f}%s\n",
                 r.mode.c_str(), r.clients, r.window_us, r.max_batch,
                 r.shards, r.qps,
                 r.stats.p50_us, r.stats.p95_us, r.stats.p99_us,
                 r.stats.p999_us, r.stats.mean_batch_size,
                 r.stats.fallback_rate, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"single_query\": {\n"
               "    \"scalar\": {\"p50_ns\": %.0f, \"p95_ns\": %.0f, "
               "\"p99_ns\": %.0f},\n"
               "    \"compiled_plan\": {\"p50_ns\": %.0f, \"p95_ns\": %.0f, "
               "\"p99_ns\": %.0f},\n"
               "    \"compiled_plan_f32\": {\"p50_ns\": %.0f, "
               "\"p95_ns\": %.0f, \"p99_ns\": %.0f},\n"
               "    \"p50_speedup\": %.2f,\n"
               "    \"f32_p50_speedup_vs_f64_plan\": %.2f\n  },\n",
               scalar.p50, scalar.p95, scalar.p99, compiled.p50, compiled.p95,
               compiled.p99, f32.latency.p50, f32.latency.p95, f32.latency.p99,
               compiled.p50 > 0.0 ? scalar.p50 / compiled.p50 : 0.0,
               f32.latency.p50 > 0.0 ? compiled.p50 / f32.latency.p50 : 0.0);
  std::fprintf(f,
               "  \"f32_tier\": {\"active\": %s, \"max_divergence\": %.3g, "
               "\"error_bound\": %.3g, \"plan_bytes_f64\": %zu, "
               "\"plan_bytes_f32\": %zu, \"micro_batch_qps_8c\": %.0f, "
               "\"f32_answers\": %llu},\n",
               f32.active ? "true" : "false", f32.max_divergence,
               f32.error_bound, f32.plan_bytes_f64, f32.plan_bytes,
               f32.micro_batch_qps8,
               static_cast<unsigned long long>(f32.tier_answers));
  std::fprintf(f, "  \"batched_vectorized\": {");
  for (size_t i = 0; i < batched.size(); ++i) {
    std::fprintf(f, "\"%s_mqps\": %.2f%s", batched[i].tier, batched[i].mqps,
                 i + 1 < batched.size() ? ", " : "");
  }
  std::fprintf(f, "},\n");
  // Stage attribution of the headline micro-batch run: queue counts
  // requests, the other stages count micro-batches.
  std::fprintf(f, "  \"stage_breakdown\": {\n");
  WriteBreakdown(f, "queue", obs.headline.stage_queue, ",");
  WriteBreakdown(f, "assembly", obs.headline.stage_assembly, ",");
  WriteBreakdown(f, "inference", obs.headline.stage_inference, ",");
  WriteBreakdown(f, "fulfill", obs.headline.stage_fulfill, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"per_store\": [\n");
  for (size_t i = 0; i < obs.headline.per_store.size(); ++i) {
    const auto& ss = obs.headline.per_store[i];
    std::fprintf(f,
                 "    {\"store\": \"%s\", \"queries\": %llu, "
                 "\"sketch_answers\": %llu, \"fallback_answers\": %llu, "
                 "\"failed_answers\": %llu, \"fallback_rate\": %.4f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}%s\n",
                 ss.store.c_str(),
                 static_cast<unsigned long long>(ss.queries),
                 static_cast<unsigned long long>(ss.sketch_answers),
                 static_cast<unsigned long long>(ss.fallback_answers),
                 static_cast<unsigned long long>(ss.failed_answers),
                 ss.fallback_rate, ss.latency.p50_us, ss.latency.p99_us,
                 ss.latency.p999_us,
                 i + 1 < obs.headline.per_store.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"tracing_overhead\": {\"single_query_p50_on_us\": %.1f, "
               "\"single_query_p50_off_us\": %.1f, \"overhead_pct\": %.2f},\n",
               obs.tracing_on_p50_us, obs.tracing_off_p50_us,
               obs.overhead_pct);
  std::fprintf(f, "  \"metrics\": %s,\n", obs.metrics_json.c_str());
  // Shard scaling: micro-batch QPS with the same 8-client / 8-store load
  // at increasing shard counts. speedup_4_shards only means anything on
  // a >=4-core machine; check_bench_gates.py gates accordingly.
  double qps1 = 0.0, qps4 = 0.0;
  for (const RunResult& r : multi_core) {
    if (r.shards == 1) qps1 = r.qps;
    if (r.shards == 4) qps4 = r.qps;
  }
  std::fprintf(f, "  \"multi_core\": {\n");
  std::fprintf(f, "    \"clients\": 8,\n    \"stores\": 8,\n");
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < multi_core.size(); ++i) {
    const RunResult& r = multi_core[i];
    std::fprintf(f,
                 "      {\"shards\": %zu, \"qps\": %.0f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"mean_batch\": %.1f}%s\n",
                 r.shards, r.qps, r.stats.p50_us, r.stats.p99_us,
                 r.stats.mean_batch_size,
                 i + 1 < multi_core.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"speedup_4_shards\": %.2f\n  },\n",
               qps1 > 0.0 ? qps4 / qps1 : 0.0);
  std::fprintf(f,
               "  \"zipfian\": {\"s\": %.2f, \"stores\": %zu, "
               "\"clients\": %zu, \"qps\": %.0f, \"p50_us\": %.1f, "
               "\"p99_us\": %.1f, \"p999_us\": %.1f, "
               "\"hottest_store_share\": %.3f, "
               "\"shard_imbalance\": %.2f},\n",
               zipf.s, zipf.stores, zipf.clients, zipf.qps,
               zipf.stats.p50_us, zipf.stats.p99_us, zipf.stats.p999_us,
               zipf.hottest_share, zipf.shard_imbalance);
  // Paged-catalog arm: every row carries the two invariants the budget
  // gate script reads back — answers_match and peak <= budget.
  std::fprintf(f, "  \"paged_catalog\": {\n");
  std::fprintf(f,
               "    \"sketches\": %zu,\n"
               "    \"image_bytes_per_sketch\": %zu,\n"
               "    \"resident_bytes_per_sketch\": %zu,\n"
               "    \"fully_resident_qps\": %.0f,\n"
               "    \"baseline_answers_match\": %s,\n",
               paged.sketches, paged.image_bytes_per_sketch,
               paged.resident_bytes_per_sketch, paged.fully_resident_qps,
               paged.baseline_answers_match ? "true" : "false");
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < paged.rows.size(); ++i) {
    const PagedBudgetRow& r = paged.rows[i];
    std::fprintf(
        f,
        "      {\"budget_fraction\": %.2f, \"budget_bytes\": %zu, "
        "\"qps\": %.0f, \"qps_vs_resident\": %.3f, "
        "\"faultin_p50_us\": %.1f, \"faultin_p99_us\": %.1f, "
        "\"faultins\": %llu, \"hits\": %llu, \"evictions\": %llu, "
        "\"peak_resident_bytes\": %zu, \"answers_match\": %s}%s\n",
        r.budget_fraction, r.budget_bytes, r.qps,
        paged.fully_resident_qps > 0.0 ? r.qps / paged.fully_resident_qps
                                       : 0.0,
        r.faultin_p50_us, r.faultin_p99_us,
        static_cast<unsigned long long>(r.pool.faultins),
        static_cast<unsigned long long>(r.pool.hits),
        static_cast<unsigned long long>(r.pool.evictions),
        r.pool.peak_resident_bytes, r.answers_match ? "true" : "false",
        i + 1 < paged.rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  // Streaming arm: the freshness gate script reads post-refresh MAE vs
  // the policy bound, both answers_match flags, and full_rebuild.
  std::fprintf(
      f,
      "  \"streaming\": {\n"
      "    \"clients\": %zu,\n"
      "    \"delta_rows\": %zu,\n"
      "    \"total_leaves\": %zu,\n"
      "    \"policy_max_normalized_mae\": %.4f,\n"
      "    \"baseline_normalized_mae\": %.4f,\n"
      "    \"drifted_normalized_mae\": %.4f,\n"
      "    \"post_refresh_normalized_mae\": %.4f,\n"
      "    \"refresh_lag_ms\": %.1f,\n"
      "    \"refresh_runs\": %llu,\n"
      "    \"refresh_swaps\": %llu,\n"
      "    \"refresh_failures\": %llu,\n"
      "    \"retrained_leaves\": %llu,\n"
      "    \"full_rebuild\": %s,\n"
      "    \"delta_corrected_answers\": %llu,\n"
      "    \"delta_exact_answers\": %llu,\n"
      "    \"rows\": [\n"
      "      {\"mode\": \"refresh_off\", \"qps\": %.0f, \"p50_us\": %.1f, "
      "\"p99_us\": %.1f, \"answers_match\": %s},\n"
      "      {\"mode\": \"refresh_on\", \"qps\": %.0f, \"p50_us\": %.1f, "
      "\"p99_us\": %.1f, \"answers_match\": %s}\n"
      "    ]\n  },\n",
      kStreamClients, streaming.delta_rows, streaming.total_leaves,
      streaming.policy_max_normalized_mae, streaming.baseline_normalized_mae,
      streaming.drifted_normalized_mae,
      streaming.post_refresh_normalized_mae, streaming.refresh_lag_ms,
      static_cast<unsigned long long>(streaming.refresh.runs),
      static_cast<unsigned long long>(streaming.refresh.swaps),
      static_cast<unsigned long long>(streaming.refresh.failures),
      static_cast<unsigned long long>(streaming.refresh.retrained_leaves),
      streaming.full_rebuild ? "true" : "false",
      static_cast<unsigned long long>(streaming.delta_corrected_on),
      static_cast<unsigned long long>(streaming.delta_exact_on),
      streaming.qps_refresh_off, streaming.p50_off_us, streaming.p99_off_us,
      streaming.answers_match_off ? "true" : "false",
      streaming.qps_refresh_on, streaming.p50_on_us, streaming.p99_on_us,
      streaming.answers_match_on ? "true" : "false");
  // Compaction arm: the freshness gate's sustained-append leg reads
  // compactions, trimmed_rows, delta_bounded, and answers_match per mode.
  auto compaction_row = [&](const char* mode, const CompactionModeReport& m,
                            const char* trailer) {
    std::fprintf(
        f,
        "      {\"mode\": \"%s\", \"compactions\": %llu, "
        "\"folded_rows\": %llu, \"trimmed_rows\": %llu, "
        "\"table_folded\": %llu, \"peak_delta_rows\": %zu, "
        "\"final_delta_rows\": %zu, \"final_delta_bytes\": %zu, "
        "\"delta_bounded\": %s, \"answers_match\": %s, "
        "\"sampled_answers\": %zu, \"wall_seconds\": %.3f}%s\n",
        mode, static_cast<unsigned long long>(m.compactions),
        static_cast<unsigned long long>(m.folded_rows),
        static_cast<unsigned long long>(m.trimmed_rows),
        static_cast<unsigned long long>(m.table_folded), m.peak_delta_rows,
        m.final_delta_rows, m.final_delta_bytes,
        m.delta_bounded ? "true" : "false",
        m.answers_match ? "true" : "false", m.sampled_answers, m.wall_seconds,
        trailer);
  };
  std::fprintf(f,
               "  \"compaction\": {\n"
               "    \"chunk_rows\": %zu,\n"
               "    \"compact_min_rows\": %zu,\n"
               "    \"append_rows\": %zu,\n"
               "    \"rows\": [\n",
               compaction.chunk_rows, compaction.compact_min_rows,
               compaction.append_rows);
  compaction_row("refresh_off", compaction.off, ",");
  compaction_row("refresh_on", compaction.on, "");
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f,
               "  \"headline\": {\"clients\": 8, \"per_query_qps\": %.0f, "
               "\"micro_batch_qps\": %.0f, \"speedup\": %.2f}\n}\n",
               per_query_qps8, batched_qps8,
               per_query_qps8 > 0.0 ? batched_qps8 / per_query_qps8 : 0.0);
  std::fclose(f);
  return Status::OK();
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";

  PrintHeader("Serving throughput (serve/ subsystem)");
  std::printf("preparing PM dataset and training a sketch...\n");
  Workbench wb = MakeWorkbench(Prepare("PM"), Aggregate::kAvg,
                               DefaultWorkload("PM", 11), 2000, 4096);
  auto sketch = NeuroSketch::Train(wb.train_q, wb.train_a,
                                   DefaultSketchConfig());
  if (!sketch.ok()) {
    std::fprintf(stderr, "train: %s\n", sketch.status().ToString().c_str());
    return 1;
  }
  ExactEngine engine(&wb.data.normalized);
  SketchStore store;
  (void)store.RegisterDataset("bench", &engine);
  NeuroSketch& ns = sketch.value();

  // Pin the reference tier for the baseline sections: under
  // NEUROSKETCH_FORCE_F32_PLANS, Train comes back serving f32 and the
  // "compiled_plan" rows would silently measure the wrong tier.
  if (ns.has_f32_plans()) (void)ns.SelectPrecision(PlanPrecision::kF64);

  // Single-query forward-pass latency: Matrix-allocating scalar reference
  // vs the compiled flat-buffer plan (same routing, same bits out), then
  // the opt-in f32 tier (validated against the f64 reference first).
  std::printf("\nsingle-query latency (ns):\n%-18s %10s %10s %10s\n", "path",
              "p50", "p95", "p99");
  const LatencyNs scalar_lat = MeasureSingleQuery(
      wb.test_q, [&ns](const QueryInstance& q) { return ns.AnswerScalar(q); });
  const LatencyNs plan_lat = MeasureSingleQuery(
      wb.test_q, [&ns](const QueryInstance& q) { return ns.Answer(q); });

  TierReport f32;
  f32.error_bound = NeuroSketchConfig().f32_error_bound;
  f32.active = ns.EnableF32(wb.train_q, f32.error_bound);
  f32.max_divergence = ns.f32_max_divergence();
  f32.plan_bytes_f64 = ns.PlanBytes(PlanPrecision::kF64);
  f32.plan_bytes = ns.PlanBytes(PlanPrecision::kF32);
  LatencyNs f32_lat;
  const std::string f32_path = out_path + ".f32.sketch";
  if (f32.active) {
    // Answer now runs the f32 plans; persist the f32 sketch for the
    // serving run below, then flip this instance back to f64 so the
    // sweep keeps measuring the reference tier.
    f32_lat = MeasureSingleQuery(
        wb.test_q, [&ns](const QueryInstance& q) { return ns.Answer(q); });
    Status save_st = ns.Save(f32_path);
    if (!save_st.ok()) {
      std::fprintf(stderr, "warning: f32 sketch save failed (%s); the f32 "
                   "serving numbers will be zero\n",
                   save_st.ToString().c_str());
    }
  }
  f32.latency = f32_lat;
  (void)ns.SelectPrecision(PlanPrecision::kF64);

  std::printf("%-18s %10.0f %10.0f %10.0f\n", "scalar", scalar_lat.p50,
              scalar_lat.p95, scalar_lat.p99);
  std::printf("%-18s %10.0f %10.0f %10.0f\n", "compiled_plan", plan_lat.p50,
              plan_lat.p95, plan_lat.p99);
  std::printf("%-18s %10.0f %10.0f %10.0f\n", "compiled_plan_f32",
              f32_lat.p50, f32_lat.p95, f32_lat.p99);
  std::printf("p50 speedup: scalar/f64 %.2fx, f64/f32 %.2fx "
              "(f32 max divergence %.3g, bound %.3g, plan bytes %zu -> "
              "%zu)\n",
              plan_lat.p50 > 0.0 ? scalar_lat.p50 / plan_lat.p50 : 0.0,
              f32_lat.p50 > 0.0 ? plan_lat.p50 / f32_lat.p50 : 0.0,
              f32.max_divergence, f32.error_bound, f32.plan_bytes_f64,
              f32.plan_bytes);

  // Vectorized-batch throughput per tier: the float-marshalled gather
  // path for the f32 tier vs the f64 reference gather.
  std::vector<BatchedRow> batched;
  batched.push_back({"f64", MeasureBatchedMqps(ns, wb.test_q)});
  if (f32.active && ns.SelectPrecision(PlanPrecision::kF32).ok()) {
    batched.push_back({"f32", MeasureBatchedMqps(ns, wb.test_q)});
  }
  (void)ns.SelectPrecision(PlanPrecision::kF64);
  std::printf("vectorized batch (%zu rows): ", kBatchRows);
  for (size_t i = 0; i < batched.size(); ++i) {
    std::printf("%s %.2f Mq/s%s", batched[i].tier, batched[i].mqps,
                i + 1 < batched.size() ? ", " : "\n\n");
  }

  // The registry document embedded in the json: build metrics of the
  // bench sketch (captured before it moves into the store) + the serve
  // metrics of the headline run, exported below.
  metrics::MetricsRegistry registry;
  ns.ExportBuildMetrics(&registry);
  (void)store.Register("bench", wb.spec, std::move(sketch).value());

  std::printf("%-12s %8s %10s %10s %7s %12s %9s %9s %9s %9s %11s\n", "mode",
              "clients", "window_us", "max_batch", "shards", "qps", "p50_us",
              "p95_us", "p99_us", "p999_us", "mean_batch");

  std::vector<RunResult> rows;
  ObservabilityReport obs;
  // Warm up allocator / page cache / ifunc dispatch once.
  (void)RunBatched(&store, wb.spec, wb.test_q, 2, 256, 200.0);

  double per_query_qps8 = 0.0, batched_qps8 = 0.0;
  for (size_t clients : {1, 2, 4, 8}) {
    RunResult pq = RunPerQuery(&store, wb.spec, wb.test_q, clients);
    PrintRow(pq);
    if (clients == 8) per_query_qps8 = pq.qps;
    rows.push_back(pq);
    for (double window : {0.0, 100.0, 200.0, 500.0}) {
      const bool headline = clients == 8 && window == 200.0;
      RunResult mb = RunBatched(&store, wb.spec, wb.test_q, clients, 512,
                                window, headline ? &registry : nullptr);
      PrintRow(mb);
      if (headline) {
        batched_qps8 = mb.qps;
        obs.headline = mb.stats;
      }
      rows.push_back(mb);
    }
  }
  obs.metrics_json = registry.Json();

  // Where does each headline microsecond go? Stage attribution of the
  // 8-client / 200us-window run.
  if (obs.headline.stage_tracing) {
    std::printf("\nheadline stage p50/p99 (us): queue %.0f/%.0f | assembly "
                "%.0f/%.0f | inference %.0f/%.0f | fulfill %.0f/%.0f\n",
                obs.headline.stage_queue.p50_us,
                obs.headline.stage_queue.p99_us,
                obs.headline.stage_assembly.p50_us,
                obs.headline.stage_assembly.p99_us,
                obs.headline.stage_inference.p50_us,
                obs.headline.stage_inference.p99_us,
                obs.headline.stage_fulfill.p50_us,
                obs.headline.stage_fulfill.p99_us);
  }

  // Stage-tracing overhead on the single-query serve path: tracing on vs
  // off in the same process as a chunk-alternating paired comparison
  // (see MeasureTracingOverhead). The paired run repeats 5 times and the
  // run with the median overhead is reported — a median across paired
  // runs rejects the occasional run where a scheduling-regime flip lands
  // between two chunks, without letting either tail define the result.
  std::vector<TracingOverheadSample> overhead_reps;
  for (int rep = 0; rep < 5; ++rep) {
    overhead_reps.push_back(MeasureTracingOverhead(&store, wb.spec,
                                                   wb.test_q));
  }
  std::sort(overhead_reps.begin(), overhead_reps.end(),
            [](const TracingOverheadSample& a, const TracingOverheadSample& b) {
              return a.overhead_pct() < b.overhead_pct();
            });
  const TracingOverheadSample& mid = overhead_reps[overhead_reps.size() / 2];
  obs.tracing_on_p50_us = mid.on_p50_us;
  obs.tracing_off_p50_us = mid.off_p50_us;
  obs.overhead_pct = mid.overhead_pct();
  std::printf("tracing overhead (single-query p50): on %.1f us vs off %.1f "
              "us = %.2f%%\n",
              obs.tracing_on_p50_us, obs.tracing_off_p50_us,
              obs.overhead_pct);

  const double speedup =
      per_query_qps8 > 0.0 ? batched_qps8 / per_query_qps8 : 0.0;
  std::printf("\nheadline: 8 clients, micro-batch (window 200us) vs "
              "per-query: %.2fx QPS (%.0f vs %.0f)\n",
              speedup, batched_qps8, per_query_qps8);

  // Shard scaling + skewed-load arms. Both need stores that can actually
  // land on different shards, so the bench sketch serves under several
  // dataset names (one registry entry each, all sharing the sketch).
  std::shared_ptr<const NeuroSketch> shared =
      store.Lookup(serve::ServeKey::From("bench", wb.spec));
  std::vector<RunResult> multi_core;
  ZipfReport zipf;
  if (shared != nullptr) {
    SketchStore fan_store;
    std::vector<std::string> fan_names;
    for (int i = 0; i < 8; ++i) {
      fan_names.push_back("mc" + std::to_string(i));
      (void)fan_store.RegisterDataset(fan_names.back(), &engine);
      (void)fan_store.Register(fan_names.back(), wb.spec, shared);
    }
    const size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    std::vector<size_t> shard_counts = {1, 2, 4};
    if (std::find(shard_counts.begin(), shard_counts.end(), hw) ==
        shard_counts.end()) {
      shard_counts.push_back(hw);
    }
    std::printf("\nmulti-core scaling (8 clients x 8 stores, micro-batch "
                "window 200us):\n");
    for (size_t n : shard_counts) {
      RunResult r =
          RunMultiCore(&fan_store, wb.spec, fan_names, wb.test_q, 8, n);
      PrintRow(r);
      multi_core.push_back(std::move(r));
    }

    SketchStore zipf_store;
    std::vector<std::string> zipf_names;
    for (int i = 0; i < 16; ++i) {
      zipf_names.push_back("z" + std::to_string(i));
      (void)zipf_store.RegisterDataset(zipf_names.back(), &engine);
      (void)zipf_store.Register(zipf_names.back(), wb.spec, shared);
    }
    zipf = RunZipfian(&zipf_store, wb.spec, zipf_names, wb.test_q, 8, 0.99);
    std::printf("zipfian load (s=%.2f over %zu stores, 8 clients): %.0f qps, "
                "p50 %.0f / p99 %.0f / p999 %.0f us, hottest store %.0f%%, "
                "shard imbalance %.2fx\n",
                zipf.s, zipf.stores, zipf.qps, zipf.stats.p50_us,
                zipf.stats.p99_us, zipf.stats.p999_us,
                zipf.hottest_share * 100.0, zipf.shard_imbalance);
  }

  // f32-tier serving: reload the persisted sketch (precision survives
  // serialization) into a fresh store and run the headline micro-batch
  // configuration on it.
  if (f32.active) {
    SketchStore tier_store;
    (void)tier_store.RegisterDataset("bench", &engine);
    auto ver = tier_store.RegisterFromFile("bench", wb.spec, f32_path);
    if (ver.ok()) {
      RunResult mb = RunBatched(&tier_store, wb.spec, wb.test_q, 8, 512,
                                200.0);
      f32.micro_batch_qps8 = mb.qps;
      f32.tier_answers = mb.stats.f32_sketch_answers;
      std::printf("f32 tier: 8 clients, micro-batch (window 200us): %.0f qps "
                  "(%llu f32 answers)\n",
                  mb.qps, static_cast<unsigned long long>(f32.tier_answers));
    } else {
      std::fprintf(stderr, "warning: f32 sketch register failed (%s); the "
                   "f32 serving numbers will be zero\n",
                   ver.status().ToString().c_str());
    }
    std::remove(f32_path.c_str());
  }

  // Paged-catalog arm: 256 cold sketches under a shrinking resident
  // budget vs the fully-resident baseline, with bit-identity checking.
  std::printf("\npaged catalog (%zu sketches, 4 clients):\n", kPagedSketches);
  const PagedCatalogReport paged = RunPagedCatalog(out_path);
  if (!paged.ran) {
    std::fprintf(stderr, "paged_catalog arm failed\n");
    return 1;
  }
  std::printf("  fully resident: %.0f qps (answers %s)\n",
              paged.fully_resident_qps,
              paged.baseline_answers_match ? "match" : "MISMATCH");
  for (const PagedBudgetRow& r : paged.rows) {
    std::printf("  budget %3.0f%% (%6.1f KB): %8.0f qps (%.2fx resident) | "
                "fault-in p50/p99 %.0f/%.0f us | %llu fault-ins, %llu "
                "evictions, peak %.1f KB | answers %s\n",
                r.budget_fraction * 100.0,
                static_cast<double>(r.budget_bytes) / 1024.0, r.qps,
                paged.fully_resident_qps > 0.0
                    ? r.qps / paged.fully_resident_qps
                    : 0.0,
                r.faultin_p50_us, r.faultin_p99_us,
                static_cast<unsigned long long>(r.pool.faultins),
                static_cast<unsigned long long>(r.pool.evictions),
                static_cast<double>(r.pool.peak_resident_bytes) / 1024.0,
                r.answers_match ? "match" : "MISMATCH");
  }

  // Streaming arm: serving under live appends, refresh off vs on.
  std::printf("\nstreaming ingest + refresh (%zu clients, training drift "
              "scenario)...\n",
              kStreamClients);
  const StreamingReport streaming = RunStreaming();
  if (!streaming.ran) {
    std::fprintf(stderr, "streaming arm failed\n");
    return 1;
  }
  std::printf("  refresh OFF: %8.0f qps, p50/p99 %.0f/%.0f us | answers %s "
              "| stale-sketch probe nmae %.3f (bound %.2f)\n",
              streaming.qps_refresh_off, streaming.p50_off_us,
              streaming.p99_off_us,
              streaming.answers_match_off ? "match" : "MISMATCH",
              streaming.drifted_normalized_mae,
              streaming.policy_max_normalized_mae);
  std::printf("  refresh ON:  %8.0f qps, p50/p99 %.0f/%.0f us | answers %s "
              "| post-refresh nmae "
              "%.3f | %llu swaps, %llu/%zu leaves retrained%s, lag %.0f ms\n",
              streaming.qps_refresh_on, streaming.p50_on_us,
              streaming.p99_on_us,
              streaming.answers_match_on ? "match" : "MISMATCH",
              streaming.post_refresh_normalized_mae,
              static_cast<unsigned long long>(streaming.refresh.swaps),
              static_cast<unsigned long long>(
                  streaming.refresh.retrained_leaves),
              streaming.total_leaves,
              streaming.full_rebuild ? " (FULL REBUILD)" : "",
              streaming.refresh_lag_ms);
  std::printf("  %zu delta rows appended; %llu corrected / %llu "
              "exact-recomputed answers on the ON arm\n",
              streaming.delta_rows,
              static_cast<unsigned long long>(streaming.delta_corrected_on),
              static_cast<unsigned long long>(streaming.delta_exact_on));

  // Compaction arm: sustained appends with base-table folding.
  std::printf("\nbase-table compaction under sustained appends...\n");
  const CompactionReport compaction = RunCompaction();
  if (!compaction.ran) {
    std::fprintf(stderr, "compaction arm failed\n");
    return 1;
  }
  auto print_compaction = [&](const char* mode,
                              const CompactionModeReport& m) {
    std::printf("  %-11s: %llu compactions, %llu rows folded / %llu "
                "trimmed | delta peak %zu rows, final %zu rows (%.1f KB, "
                "%s) | %zu answers %s\n",
                mode, static_cast<unsigned long long>(m.compactions),
                static_cast<unsigned long long>(m.folded_rows),
                static_cast<unsigned long long>(m.trimmed_rows),
                m.peak_delta_rows, m.final_delta_rows,
                static_cast<double>(m.final_delta_bytes) / 1024.0,
                m.delta_bounded ? "bounded" : "UNBOUNDED",
                m.sampled_answers, m.answers_match ? "match" : "MISMATCH");
  };
  print_compaction("refresh OFF", compaction.off);
  print_compaction("refresh ON", compaction.on);

  Status st = WriteJson(out_path, rows, per_query_qps8, batched_qps8,
                        scalar_lat, plan_lat, f32, batched, obs,
                        multi_core, zipf, paged, streaming, compaction);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace neurosketch

int main(int argc, char** argv) {
  return neurosketch::bench::Main(argc, argv);
}
