// The benchmark's workloads, driven through the public serving API:
//
//   batch   closed loop, 2 clients x SubmitMany bursts of 128, 2 stores
//           sharing one AVG sketch, 2 shards, no delta.
//   point   open loop, 1 generator of single Submits on a fixed schedule,
//           store drawn Zipf(0.99) over 16 stores, 2 shards, 1 collector.
//   stream  a StreamingTable with COUNT/SUM/AVG sketches, a preloaded
//           delta, 1 open-loop appender that refreshes and compacts inline
//           at fixed append counts, 2 closed-loop clients x bursts of 16,
//           1 shard.
//
// Every workload uses the PM dataset at bench scale (20,850 rows) and the
// paper's default query workload (one active attribute, ranges of 5-50%).
// The dataset, the training set and the accuracy test set are fixed; the
// run's seed drives the query pools, the store draws, the aggregate mix
// and the appended rows.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/drift.h"
#include "data/datasets.h"
#include "data/normalizer.h"
#include "data/streaming_table.h"
#include "query/aggregate.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "serve/refresh.h"
#include "serve/serve_engine.h"
#include "util/random.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using neurosketch::Aggregate;
using neurosketch::AxisRangePredicate;
using neurosketch::DriftMonitor;
using neurosketch::ExactEngine;
using neurosketch::NeuroSketch;
using neurosketch::NeuroSketchConfig;
using neurosketch::QueryFunctionSpec;
using neurosketch::QueryInstance;
using neurosketch::Rng;
using neurosketch::StreamingTable;
using neurosketch::Table;
using neurosketch::WorkloadConfig;
using neurosketch::WorkloadGenerator;
using neurosketch::serve::RefreshController;
using neurosketch::serve::RefreshOptions;
using neurosketch::serve::RefreshTarget;
using neurosketch::serve::ServeEngine;
using neurosketch::serve::ServeKey;
using neurosketch::serve::ServeOptions;
using neurosketch::serve::ServeResult;
using neurosketch::serve::ServeStats;
using neurosketch::serve::SketchStore;

// ------------------------------------------------------------ constants

/// Set-up is repeated this many times per untraced run; setup_s is the
/// median.
constexpr size_t kSetupRepeats = 3;

/// Fixed seeds of the inputs that must not vary between runs: the trained
/// sketch and the accuracy test set. (11 and 11 + 7919 are the seeds the
/// serving throughput bench trains and tests with.)
constexpr uint64_t kTrainSeed = 11;
constexpr uint64_t kTestSeed = 11 + 7919;
constexpr uint64_t kProbeSeed = 29;

constexpr size_t kBatchBurst = 128;
constexpr size_t kStreamBurst = 16;
/// point: offered single-query rate, well below the 2-shard capacity.
constexpr double kPointRate = 20000.0;
constexpr size_t kPointStores = 16;
constexpr double kZipfS = 0.99;

/// stream: append schedule and maintenance checkpoints.
constexpr int64_t kAppendPeriodNs = 4000000;  // one AppendRows per 4 ms
constexpr size_t kRowsPerAppend = 2;          // 500 rows/s

struct Sizes {
  size_t train = 2000;
  size_t test = 4096;        // batch/point accuracy test set
  size_t stream_test = 512;  // per aggregate
  size_t pool = 4096;
  size_t preload = 2000;     // stream: delta rows appended at set-up
  size_t checkpoint = 4000;  // stream: refresh + compact every N rows
  size_t probes = 64;        // stream: drift probes per target
  size_t verify = 8;         // stream: sampled answers per aggregate
};

Sizes SizesFor(const Options& o) {
  Sizes s;
  if (o.smoke) {
    s.train = 300;
    s.test = 256;
    s.stream_test = 64;
    s.pool = 512;
    s.preload = 200;
    s.checkpoint = 100;
    s.probes = 24;
    s.verify = 4;
  }
  return s;
}

/// Bench-scale settings, copied from bench/bench_common.h (PM at scale 0.5,
/// the default workload, the bench sketch config) so that retuning the
/// paper benches does not move this benchmark's yardstick.
WorkloadConfig PmWorkload(uint64_t seed) {
  WorkloadConfig wc;
  wc.range_frac_lo = 0.05;
  wc.range_frac_hi = 0.5;
  wc.min_matches = 5;
  wc.num_active = 1;
  wc.seed = seed;
  return wc;
}

NeuroSketchConfig SketchConfig(bool smoke) {
  NeuroSketchConfig cfg;
  cfg.tree_height = 3;
  cfg.target_partitions = 4;
  cfg.n_layers = 5;
  cfg.l_first = 48;
  cfg.l_rest = 24;
  cfg.train.epochs = smoke ? 20 : 180;
  cfg.train.learning_rate = 2e-3;
  cfg.train.lr_decay = 0.5;
  cfg.train.decay_every = 60;
  cfg.train.patience = 30;
  return cfg;
}

/// Distinct, reproducible seed per (run seed, stream).
uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Table MakePm(size_t* measure_col) {
  auto ds = neurosketch::MakeDatasetByName("PM", 0.5, 1);
  if (!ds.ok()) throw std::runtime_error("PM dataset: " + ds.status().ToString());
  *measure_col = ds.value().measure_col;
  return neurosketch::Normalizer::Fit(ds.value().table).Transform(ds.value().table);
}

QueryFunctionSpec Spec(Aggregate agg, size_t measure_col) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = agg;
  spec.measure_col = measure_col;
  return spec;
}

ServeOptions EngineOptions(size_t shards, bool tracing) {
  ServeOptions so;
  so.num_shards = shards;
  so.batch_window_us = 0.0;  // dispatch as soon as a shard is free
  so.exact_batch_threads = 1;
  so.stage_tracing = tracing;
  return so;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

std::shared_ptr<const NeuroSketch> TrainOrThrow(const std::vector<QueryInstance>& q,
                                                const std::vector<double>& a,
                                                const NeuroSketchConfig& cfg) {
  auto trained = NeuroSketch::Train(q, a, cfg);
  if (!trained.ok()) throw std::runtime_error("train: " + trained.status().ToString());
  return std::make_shared<const NeuroSketch>(std::move(trained).value());
}

void CheckOk(const neurosketch::Status& st, const char* what) {
  if (!st.ok()) throw std::runtime_error(std::string(what) + ": " + st.ToString());
}

/// Repeats `make` and keeps the last fixture; records each repetition's
/// wall time.
template <typename Make>
auto RepeatSetup(size_t repeats, std::vector<double>* seconds, const Make& make) {
  decltype(make()) kept;
  for (size_t i = 0; i < repeats; ++i) {
    kept.reset();
    const int64_t t0 = NowNs();
    kept = make();
    seconds->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return kept;
}

double WarmupSeconds(double seconds) { return std::min(0.5, 0.1 * seconds); }

/// Everything one measured phase produces.
struct Phase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<LatSample> samples;
  std::vector<std::unique_ptr<SpanLog>> logs;
  ServeStats stats;
  WindowedStats summary;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> gen_late_us;  // open-loop generator lateness
  /// Peak RSS when the load stopped, before the results are summarized.
  double peak_rss_mb = 0.0;
  /// CPU seconds of the threads the benchmark did not start (the engine's
  /// dispatchers) over the measured phase, and the same per answered query.
  double engine_cpu_s = 0.0;
  double cpu_us_per_query = 0.0;
};

/// Thread ids of the benchmark's own load threads (clients, generators,
/// collectors, appenders) and of the thread that runs the phase. Every
/// other thread of the process belongs to the program.
class LoadThreads {
 public:
  LoadThreads() { Register(); }
  void Register() {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.push_back(ThisThreadId());
  }
  /// Snapshot at the start of the measured phase.
  void Start() { start_ = ThreadCpuSeconds(); }
  /// CPU seconds since Start() of every thread not registered here.
  double ProgramCpuSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const auto& [tid, cpu] : ThreadCpuSeconds()) {
      if (std::find(ids_.begin(), ids_.end(), tid) != ids_.end()) continue;
      const auto it = start_.find(tid);
      total += cpu - (it == start_.end() ? 0.0 : it->second);
    }
    return total;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
  std::map<int64_t, double> start_;
};

/// `min_per_window` as in Summarize; SIZE_MAX pools the phase into one
/// window.
void Finish(Phase* p, const ServeEngine& eng, size_t min_per_window = 1000) {
  p->stats = eng.Snapshot();
  p->summary = Summarize(p->samples, p->start_ns, p->end_ns, min_per_window);
  if (p->summary.answered > 0) {
    p->cpu_us_per_query =
        p->engine_cpu_s * 1e6 / static_cast<double>(p->summary.answered);
  }
}

/// Engine-side per-layer figures of a traced phase.
void AddEngineLayers(const Phase& p, double submit_ns_p50, Report* r) {
  const ServeStats& s = p.stats;
  r->Add("serve.engine.submit_ns_p50", submit_ns_p50, "ns");
  r->Add("serve.engine.queue_us_p50", s.stage_queue.p50_us, "us");
  r->Add("serve.engine.queue_us_p99", s.stage_queue.p99_us, "us");
  r->Add("serve.engine.inference_us_p50", s.stage_inference.p50_us, "us");
  r->Add("serve.engine.fulfill_us_p50", s.stage_fulfill.p50_us, "us");
  r->Add("serve.engine.mean_batch", s.mean_batch_size, "queries");
  uint64_t hot = 0, waits = 0;
  for (const auto& sh : s.per_shard) {
    hot = std::max(hot, sh.queries);
    waits += sh.backpressure_waits;
  }
  const double mean = s.per_shard.empty()
                          ? 0.0
                          : static_cast<double>(s.queries) /
                                static_cast<double>(s.per_shard.size());
  r->Add("serve.engine.shard_imbalance", mean > 0.0 ? static_cast<double>(hot) / mean : 0.0,
         "ratio");
  r->Add("serve.engine.backpressure_waits", static_cast<double>(waits), "count");
  r->Add("serve.engine.delta_corrected", static_cast<double>(s.delta_corrected_answers), "count");
  r->Add("serve.engine.delta_exact", static_cast<double>(s.delta_exact_answers), "count");
  r->Add("serve.engine.fallback_frac",
         s.queries > 0 ? static_cast<double>(s.fallback_answers) / static_cast<double>(s.queries)
                       : 0.0,
         "ratio");
}

/// Streaming-only layer figures, zero on workloads without a delta.
struct StreamLayers {
  double delta_rows_peak = 0, delta_rows_end = 0, append_us_p50 = 0, compact_ms = 0,
         folded_rows = 0, refresh_ms = 0, skipped = 0, swaps = 0, retrained_leaves = 0,
         append_p99_us = 0;
};

void AddStreamLayers(const StreamLayers& s, Report* r) {
  r->Add("serve.store.delta_rows_peak", s.delta_rows_peak, "rows");
  r->Add("serve.store.delta_rows_end", s.delta_rows_end, "rows");
  r->Add("serve.store.append_us_p50", s.append_us_p50, "us");
  r->Add("serve.store.compact_ms", s.compact_ms, "ms");
  r->Add("serve.store.folded_rows", s.folded_rows, "rows");
  r->Add("serve.refresh.refresh_ms", s.refresh_ms, "ms");
  r->Add("serve.refresh.skipped", s.skipped, "count");
  r->Add("serve.refresh.swaps", s.swaps, "count");
  r->Add("serve.refresh.retrained_leaves", s.retrained_leaves, "count");
  r->Add("append_p99_us", s.append_p99_us, "us");
}

/// trace.* from the untraced and traced phases of one traced run.
/// `path_us` is the sum of the per-request self times on the blocking path.
/// Also carries the untraced phase's wall-clock figures (qps, p50, p90,
/// p99): on a shared virtual machine they follow CPU steal, too unsteady
/// for bounded end-to-end metrics.
void AddTraceFigures(const Phase& untraced, const Phase& traced, double path_us, Report* r) {
  r->Add("qps", untraced.summary.qps, "1/s");
  r->Add("p50_us", untraced.summary.p50_us, "us");
  r->Add("p90_us", untraced.summary.p90_us, "us");
  r->Add("p99_us", untraced.summary.p99_us, "us");
  const double u = untraced.summary.p50_us, t = traced.summary.p50_us;
  r->Add("trace.overhead_frac", u > 0.0 ? t / u - 1.0 : 0.0, "ratio");
  r->Add("trace.explained_frac", t > 0.0 ? path_us / t : 0.0, "ratio");
}

std::vector<const SpanLog*> LogPtrs(const std::vector<std::unique_ptr<SpanLog>>& logs,
                                    const SpanLog* extra) {
  std::vector<const SpanLog*> out;
  for (const auto& l : logs) out.push_back(l.get());
  if (extra != nullptr) out.push_back(extra);
  return out;
}

void AddEndToEnd(const std::vector<double>& setup_s, const Phase& p, double nmae,
                 double sketch_bytes, Report* r) {
  for (double s : setup_s) std::fprintf(stderr, "[setup] %.3f s\n", s);
  r->Add("setup_s", Median(setup_s), "s");
  r->Add("cpu_us_per_query", p.cpu_us_per_query, "us");
  r->Add("nmae", nmae, "ratio");
  r->Add("sketch_bytes", sketch_bytes, "bytes");
  r->Add("peak_rss_mb", p.peak_rss_mb, "MiB");
}

void ReportPhase(const char* label, const Phase& p) {
  std::fprintf(stderr,
               "[%s] samples=%zu windows=%zu min_window_samples=%zu qps=%.1f "
               "p50_us=%.2f p90_us=%.2f p99_us=%.2f cpu_us_per_query=%.4f "
               "attempted=%llu failed=%llu\n",
               label, p.summary.samples, p.summary.windows, p.summary.min_window_samples,
               p.summary.qps, p.summary.p50_us, p.summary.p90_us, p.summary.p99_us,
               p.cpu_us_per_query,
               static_cast<unsigned long long>(p.attempted),
               static_cast<unsigned long long>(p.failed));
}

/// One file per workload, overwritten by each traced run, so repeated runs
/// do not pile up span dumps.
std::string SpanPath(const Options& o) { return o.out_dir + "/" + o.workload + ".spans.csv"; }

void WriteSpanFile(const Options& o, const std::vector<const SpanLog*>& logs) {
  if (o.out_dir.empty()) return;
  if (!WriteSpans(SpanPath(o), logs)) {
    std::fprintf(stderr, "warning: could not write %s\n", SpanPath(o).c_str());
  }
}

// ------------------------------------------------- batch + point fixture

/// The PM table, one AVG sketch and the fixed accuracy test set, registered
/// under `datasets` in one store, plus the run's query pool (MakePool).
struct ServingFixture {
  Table table;
  size_t measure_col = 0;
  QueryFunctionSpec spec;
  NeuroSketchConfig config;
  std::unique_ptr<ExactEngine> engine;
  std::shared_ptr<const NeuroSketch> sketch;
  std::vector<QueryInstance> test_q;
  std::vector<double> test_truth;
  std::vector<QueryInstance> pool;
  std::vector<double> pool_ref;
  SketchStore store;
  std::vector<std::string> datasets;
  std::unique_ptr<ServeEngine> serve;
};

/// `spread`: choose store names so store i lands on shard i % shards.
std::unique_ptr<ServingFixture> SetupServing(const Options& o, size_t num_stores,
                                             size_t shards, bool spread) {
  const Sizes sz = SizesFor(o);
  auto f = std::make_unique<ServingFixture>();
  f->table = MakePm(&f->measure_col);
  const size_t d = f->table.num_columns();
  f->spec = Spec(Aggregate::kAvg, f->measure_col);
  f->engine = std::make_unique<ExactEngine>(&f->table);
  WorkloadGenerator train_gen(d, PmWorkload(kTrainSeed));
  const auto train_q = train_gen.GenerateMany(sz.train, f->engine.get(), &f->spec);
  const auto train_a = f->engine->AnswerBatch(f->spec, train_q, 0);
  WorkloadGenerator test_gen(d, PmWorkload(kTestSeed));
  f->test_q = test_gen.GenerateMany(sz.test, f->engine.get(), &f->spec);
  f->test_truth = f->engine->AnswerBatch(f->spec, f->test_q, 0);
  f->config = SketchConfig(o.smoke);
  f->sketch = TrainOrThrow(train_q, train_a, f->config);

  f->serve = std::make_unique<ServeEngine>(&f->store, EngineOptions(shards, false));
  for (size_t i = 0, cand = 0; f->datasets.size() < num_stores; ++cand) {
    if (cand > 100000) throw std::runtime_error("no store name lands on every shard");
    char name[32];
    std::snprintf(name, sizeof(name), "pm%02zu", cand);
    if (spread && f->serve->ShardOf(name, f->spec) != i % shards) continue;
    f->datasets.push_back(name);
    ++i;
  }
  for (const auto& ds : f->datasets) {
    CheckOk(f->store.RegisterDataset(ds, f->engine.get()), "register dataset");
    if (!f->store.Register(ds, f->spec, f->sketch).ok()) throw std::runtime_error("register");
  }
  return f;
}

/// The run's seeded query pool and its serial-AnswerBatch reference
/// answers. Made once per run, after the timed set-ups.
void MakePool(const Options& o, ServingFixture* f) {
  WorkloadGenerator pool_gen(f->table.num_columns(), PmWorkload(SeedFor(o.seed, 1)));
  f->pool = pool_gen.GenerateMany(SizesFor(o).pool, f->engine.get(), &f->spec);
  f->pool_ref = f->sketch->AnswerBatch(f->pool);
  for (size_t i = 0; i < f->pool.size(); ++i) {
    // The engine repairs a sketch NaN with the exact answer.
    if (std::isnan(f->pool_ref[i])) f->pool_ref[i] = f->engine->Answer(f->spec, f->pool[i]);
  }
}

/// Serves the fixed test set through `eng`, checks every answer against
/// the serial reference bit for bit, and returns the normalized MAE
/// against the exact answers.
double ServeTestSet(ServingFixture& f, ServeEngine& eng, bool single, uint64_t* attempted,
                    uint64_t* failed) {
  const std::vector<double> ref = f.sketch->AnswerBatch(f.test_q);
  std::vector<double> served(f.test_q.size());
  if (single) {
    for (size_t i = 0; i < f.test_q.size(); ++i) {
      served[i] = eng.Submit(f.datasets[0], f.spec, f.test_q[i]).get().value;
    }
  } else {
    for (size_t i = 0; i < f.test_q.size(); i += kBatchBurst) {
      const size_t n = std::min(kBatchBurst, f.test_q.size() - i);
      std::vector<QueryInstance> burst(f.test_q.begin() + i, f.test_q.begin() + i + n);
      const auto res = eng.SubmitMany(f.datasets[0], f.spec, std::move(burst)).get();
      for (size_t j = 0; j < n; ++j) served[i + j] = res[j].value;
    }
  }
  std::vector<double> truth, pred;
  for (size_t i = 0; i < served.size(); ++i) {
    const double expect =
        std::isnan(ref[i]) ? f.engine->Answer(f.spec, f.test_q[i]) : ref[i];
    ++*attempted;
    if (!SameBits(served[i], expect)) ++*failed;
    if (std::isnan(f.test_truth[i]) || std::isnan(served[i])) continue;
    truth.push_back(f.test_truth[i]);
    pred.push_back(served[i]);
  }
  return neurosketch::stats::NormalizedMae(truth, pred);
}

double DistinctSketchBytes(const std::vector<std::shared_ptr<const NeuroSketch>>& sketches) {
  std::set<const NeuroSketch*> seen;
  double bytes = 0.0;
  for (const auto& s : sketches) {
    if (s != nullptr && seen.insert(s.get()).second) bytes += static_cast<double>(s->SizeBytes());
  }
  return bytes;
}

// ---------------------------------------------------------------- batch

Phase RunBatchPhase(ServingFixture& f, ServeEngine& eng, double seconds, bool traced,
                    uint64_t seed) {
  Phase p;
  const int64_t launch = NowNs();
  p.start_ns = launch + static_cast<int64_t>(WarmupSeconds(seconds) * 1e9);
  p.end_ns = p.start_ns + static_cast<int64_t>(seconds * 1e9);
  constexpr size_t kClients = 2;
  // Room for 12k bursts/s per client, above what 2 shards deliver.
  std::vector<SampleBuffer> samples(kClients,
                                    SampleBuffer(static_cast<size_t>(seconds * 12000)));
  std::vector<uint64_t> attempted(kClients, 0), failed(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) p.logs.push_back(std::make_unique<SpanLog>(traced ? 1 << 16 : 0));
  LoadThreads load;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      load.Register();
      Rng rng(SeedFor(seed, 100 + c));
      const std::string& ds = f.datasets[c % f.datasets.size()];
      SpanLog* log = p.logs[c].get();
      const size_t n = f.pool.size();
      for (uint64_t req = 0;; ++req) {
        const size_t off = rng.Index(n);
        std::vector<QueryInstance> burst;
        burst.reserve(kBatchBurst);
        for (size_t i = 0; i < kBatchBurst; ++i) burst.push_back(f.pool[(off + i) % n]);
        const int64_t t0 = NowNs();
        if (t0 >= p.end_ns) break;
        attempted[c] += kBatchBurst;
        std::vector<ServeResult> res;
        int64_t t1 = t0;
        try {
          auto fut = eng.SubmitMany(ds, f.spec, std::move(burst));
          t1 = NowNs();
          res = fut.get();
        } catch (const std::exception&) {
          failed[c] += kBatchBurst;
          continue;
        }
        const int64_t t2 = NowNs();
        for (size_t i = 0; i < kBatchBurst; ++i) {
          if (i >= res.size() || !SameBits(res[i].value, f.pool_ref[(off + i) % n])) ++failed[c];
        }
        if (t0 < p.start_ns) continue;
        samples[c].Add({t2, static_cast<double>(t2 - t0) * 1e-3, kBatchBurst});
        if (traced) {
          const int64_t root = log->Add("request", req, -1, t0, t2);
          log->Add("serve.engine.SubmitMany", req, root, t0, t1);
          log->Add("client.wait", req, root, t1, t2);
        }
      }
    });
  }
  SleepUntil(p.start_ns);
  eng.ResetStats();
  load.Start();
  for (auto& t : threads) t.join();
  p.engine_cpu_s = load.ProgramCpuSeconds();
  p.peak_rss_mb = PeakRssMb();
  for (size_t c = 0; c < kClients; ++c) {
    samples[c].AppendTo(&p.samples);
    p.attempted += attempted[c];
    p.failed += failed[c];
  }
  Finish(&p, eng);
  return p;
}

/// Blocking-path p50s of a request, in us: the client's submit span plus the
/// engine's queue, assembly, inference and fulfil stages.
double BlockingPath(const Phase& p, const std::vector<SpanSummary>& spans,
                      const char* submit_span) {
  const ServeStats& s = p.stats;
  return SpanP50(spans, submit_span) * 1e-3 + s.stage_queue.p50_us + s.stage_assembly.p50_us +
         s.stage_inference.p50_us + s.stage_fulfill.p50_us;
}

// ---------------------------------------------------------------- point

Phase RunPointPhase(ServingFixture& f, ServeEngine& eng, double seconds, bool traced,
                    uint64_t seed) {
  Phase p;
  const int64_t launch = NowNs() + 1000000;
  p.start_ns = launch + static_cast<int64_t>(WarmupSeconds(seconds) * 1e9);
  p.end_ns = p.start_ns + static_cast<int64_t>(seconds * 1e9);
  const double period_ns = 1e9 / kPointRate;
  const size_t total = static_cast<size_t>(static_cast<double>(p.end_ns - launch) / period_ns);

  struct Slot {
    std::future<ServeResult> fut;
    int64_t due = 0, sub0 = 0, sub1 = 0;
    uint32_t idx = 0;
  };
  std::vector<Slot> slots(total);
  // The schedule fixes how many samples are kept, so these buffers' size
  // does not depend on the run.
  p.samples.reserve(total);
  p.gen_late_us.reserve(total);
  std::atomic<size_t> published{0};
  std::atomic<bool> gen_failed{false};

  // Zipf(s) over the stores: store 0 hottest.
  std::vector<double> cum(f.datasets.size());
  double z = 0.0;
  for (size_t i = 0; i < cum.size(); ++i) {
    z += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cum[i] = z;
  }
  for (double& c : cum) c /= z;

  p.logs.push_back(std::make_unique<SpanLog>(traced ? total * 4 : 0));
  LoadThreads load;
  std::thread generator([&] {
    load.Register();
    Rng rng(SeedFor(seed, 200));
    for (size_t k = 0; k < total; ++k) {
      Slot& s = slots[k];
      s.idx = static_cast<uint32_t>(rng.Index(f.pool.size()));
      const size_t store = std::min<size_t>(
          std::lower_bound(cum.begin(), cum.end(), rng.Uniform()) - cum.begin(), cum.size() - 1);
      QueryInstance q = f.pool[s.idx];
      s.due = launch + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      SpinUntil(s.due);
      s.sub0 = NowNs();
      try {
        s.fut = eng.Submit(f.datasets[store], f.spec, std::move(q));
      } catch (const std::exception&) {
        gen_failed = true;
      }
      s.sub1 = NowNs();
      published.store(k + 1, std::memory_order_release);
    }
  });
  std::thread collector([&] {
    load.Register();
    SpanLog* log = p.logs[0].get();
    bool reset = false;
    for (size_t k = 0; k < total; ++k) {
      while (published.load(std::memory_order_acquire) <= k) std::this_thread::yield();
      Slot& s = slots[k];
      if (!reset && s.due >= p.start_ns) {
        eng.ResetStats();
        reset = true;
      }
      ++p.attempted;
      const int64_t w0 = NowNs();
      double value = std::nan("");
      bool ok = s.fut.valid();
      if (ok) {
        try {
          value = s.fut.get().value;
        } catch (const std::exception&) {
          ok = false;
        }
      }
      const int64_t done = NowNs();
      if (!ok || !SameBits(value, f.pool_ref[s.idx])) ++p.failed;
      if (s.due < p.start_ns) continue;
      p.samples.push_back({done, static_cast<double>(done - s.due) * 1e-3, 1});
      p.gen_late_us.push_back(static_cast<double>(s.sub0 - s.due) * 1e-3);
      if (traced) {
        const int64_t root = log->Add("request", k, -1, s.due, done);
        log->Add("gen.late", k, root, s.due, s.sub0);
        log->Add("serve.engine.Submit", k, root, s.sub0, s.sub1);
        log->Add("client.wait", k, root, w0, done);
      }
    }
  });
  SleepUntil(p.start_ns);
  load.Start();
  generator.join();
  collector.join();
  p.engine_cpu_s = load.ProgramCpuSeconds();
  p.peak_rss_mb = PeakRssMb();
  if (gen_failed) ++p.failed;
  Finish(&p, eng);
  return p;
}

/// batch and point: set-up, the measured phase, the test set and, when
/// traced, a second phase with spans plus the per-layer probes.
Report RunServing(const Options& o, bool point) {
  Report r;
  std::vector<double> setup_s;
  auto f = RepeatSetup(o.trace || o.smoke ? 1 : kSetupRepeats, &setup_s, [&] {
    return point ? SetupServing(o, kPointStores, 2, false) : SetupServing(o, 2, 2, true);
  });
  MakePool(o, f.get());
  auto run_phase = [&](ServeEngine& eng, double seconds, bool traced, uint64_t seed) {
    return point ? RunPointPhase(*f, eng, seconds, traced, seed)
                 : RunBatchPhase(*f, eng, seconds, traced, seed);
  };
  const Phase main_phase =
      run_phase(*f->serve, o.trace ? o.seconds / 2 : o.seconds, false, SeedFor(o.seed, 2));
  ReportPhase(o.workload.c_str(), main_phase);
  r.attempted += main_phase.attempted;
  r.failed += main_phase.failed;
  const double nmae = ServeTestSet(*f, *f->serve, point, &r.attempted, &r.failed);
  if (!o.trace) {
    AddEndToEnd(setup_s, main_phase, nmae, DistinctSketchBytes({f->sketch}), &r);
    return r;
  }
  ServeEngine traced_eng(&f->store, EngineOptions(2, true));
  const Phase tp = run_phase(traced_eng, o.seconds / 2, true, SeedFor(o.seed, 3));
  ReportPhase("traced", tp);
  r.attempted += tp.attempted;
  r.failed += tp.failed;
  SpanLog probe_log(1 << 18);
  LayerProbe in;
  in.sketch = f->sketch.get();
  in.config = f->config;
  in.queries = &f->pool;
  in.mean_batch = tp.stats.mean_batch_size;
  in.engine = f->engine.get();
  in.exact_spec = f->spec;
  in.store = &f->store;
  in.key = ServeKey::From(f->datasets[0], f->spec);
  in.log = &probe_log;
  ProbeLayers(in, &r);
  const auto logs = LogPtrs(tp.logs, &probe_log);
  const auto spans = SummarizeSpans(logs);
  PrintSpanSummary(spans);
  const char* submit_span = point ? "serve.engine.Submit" : "serve.engine.SubmitMany";
  AddEngineLayers(tp, SpanP50(spans, submit_span), &r);
  AddStreamLayers(StreamLayers{}, &r);
  r.Add("gen_late_p99_us", Percentile(tp.gen_late_us, 99), "us");
  // gen.late exists only on the open-loop point workload (0 on batch).
  const double path_us =
      SpanP50(spans, "gen.late") * 1e-3 + BlockingPath(tp, spans, submit_span);
  AddTraceFigures(main_phase, tp, path_us, &r);
  WriteSpanFile(o, logs);
  return r;
}

// --------------------------------------------------------------- stream

const char* const kStreamDs = "pm";

/// A StreamingTable-backed PM dataset with COUNT, SUM and AVG sketches, a
/// preloaded delta, a refresh controller with one target per sketch, and
/// the seeded append stream. `mirror` is base + every appended row: the
/// from-scratch reference the correctness check scans.
struct StreamFixture {
  Table base;
  size_t measure_col = 0;
  NeuroSketchConfig config;
  std::vector<QueryFunctionSpec> specs;
  std::vector<std::shared_ptr<const NeuroSketch>> sketches;
  std::vector<QueryInstance> pool;
  std::vector<QueryInstance> test_q;
  std::vector<std::vector<double>> rows;  // the append stream, in order
  size_t appended = 0;
  Table mirror;
  std::unique_ptr<StreamingTable> table;
  std::unique_ptr<ExactEngine> engine;
  SketchStore store;
  std::unique_ptr<RefreshController> refresh;
  std::unique_ptr<ServeEngine> serve;
};

/// Rows one run can append: the preload plus the schedule, with margin.
size_t StreamRowBudget(const Options& o, const Sizes& sz) {
  const double appends = (o.seconds + 2.0) * 1e9 / static_cast<double>(kAppendPeriodNs);
  return sz.preload + static_cast<size_t>(appends * 1.2) * kRowsPerAppend;
}

std::unique_ptr<StreamFixture> SetupStream(const Options& o) {
  const Sizes sz = SizesFor(o);
  auto f = std::make_unique<StreamFixture>();
  f->base = MakePm(&f->measure_col);
  const size_t d = f->base.num_columns();
  for (Aggregate agg : {Aggregate::kCount, Aggregate::kSum, Aggregate::kAvg}) {
    f->specs.push_back(Spec(agg, f->measure_col));
  }
  const QueryFunctionSpec& avg = f->specs[2];
  ExactEngine base_engine(&f->base);
  WorkloadGenerator train_gen(d, PmWorkload(kTrainSeed));
  const auto train_q = train_gen.GenerateMany(sz.train, &base_engine, &avg);
  f->config = SketchConfig(o.smoke);
  for (const auto& spec : f->specs) {
    f->sketches.push_back(
        TrainOrThrow(train_q, base_engine.AnswerBatch(spec, train_q, 0), f->config));
  }
  WorkloadGenerator test_gen(d, PmWorkload(kTestSeed));
  f->test_q = test_gen.GenerateMany(sz.stream_test, &base_engine, &avg);

  // Append stream: jittered copies of base rows, clamped to the unit cube.
  Rng rng(SeedFor(o.seed, 4));
  const size_t n_rows = StreamRowBudget(o, sz);
  f->rows.reserve(n_rows);
  for (size_t i = 0; i < n_rows; ++i) {
    const size_t src = rng.Index(f->base.num_rows());
    std::vector<double> row(d);
    for (size_t c = 0; c < d; ++c) {
      row[c] = std::clamp(f->base.at(src, c) + rng.Uniform(-0.05, 0.05), 0.0, 1.0);
    }
    f->rows.push_back(std::move(row));
  }

  f->mirror = f->base;
  f->table = std::make_unique<StreamingTable>(f->base);
  f->engine = std::make_unique<ExactEngine>(f->table.get());
  CheckOk(f->store.RegisterDataset(kStreamDs, f->engine.get()), "register dataset");
  CheckOk(f->store.EnableStreaming(kStreamDs, d), "enable streaming");
  CheckOk(f->store.AttachStreamingTable(kStreamDs, f->table.get()), "attach table");
  f->store.SetVersionRetention(2);
  for (size_t i = 0; i < f->specs.size(); ++i) {
    if (!f->store.Register(kStreamDs, f->specs[i], f->sketches[i]).ok()) {
      throw std::runtime_error("register stream sketch");
    }
  }
  RefreshOptions ro;
  ro.probe_threads = 1;  // maintenance runs on the appender's thread
  f->refresh = std::make_unique<RefreshController>(&f->store, nullptr, ro);
  NeuroSketchConfig retrain = f->config;
  retrain.train_threads = 1;
  WorkloadGenerator probe_gen(d, PmWorkload(kProbeSeed));
  const auto probes = probe_gen.GenerateMany(sz.probes, &base_engine, &avg);
  for (const auto& spec : f->specs) {
    f->refresh->AddTarget(RefreshTarget{kStreamDs, DriftMonitor(spec, probes), retrain, train_q});
  }
  std::vector<std::vector<double>> preload(f->rows.begin(), f->rows.begin() + sz.preload);
  CheckOk(f->store.AppendRows(kStreamDs, preload), "preload");
  for (const auto& row : preload) CheckOk(f->mirror.AppendRow(row), "mirror");
  f->appended = sz.preload;
  f->serve = std::make_unique<ServeEngine>(&f->store, EngineOptions(1, false));
  return f;
}

/// The answer the serving contract promises for `q`, rebuilt from scratch:
/// the exact answer over base + every appended row (mirror) for answers on
/// the exact path, and the sketch's own answer plus an exact correction
/// over the appended rows its leaf has not folded for composed answers.
/// Call only while no append, refresh or compaction is in flight.
double ExpectedStream(const StreamFixture& f, const ExactEngine& mirror_engine,
                      const QueryFunctionSpec& spec, const QueryInstance& q) {
  const auto view = f.store.LookupServed(ServeKey::From(kStreamDs, spec));
  if (view.sketch == nullptr) return mirror_engine.Answer(spec, q);
  const double sk = view.sketch->Answer(q);
  if (std::isnan(sk)) return mirror_engine.Answer(spec, q);
  size_t from = view.delta != nullptr ? view.delta->Snap().begin() : f.appended;
  const auto* leaf = view.sketch->tree().Route(q);
  if (view.leaf_folded != nullptr && leaf != nullptr && leaf->leaf_id >= 0 &&
      static_cast<size_t>(leaf->leaf_id) < view.leaf_folded->size()) {
    from = std::max<size_t>(from, (*view.leaf_folded)[leaf->leaf_id]);
  }
  size_t matched = 0;
  double sum = 0.0;
  const size_t d = f.base.num_columns();
  for (size_t r = from; r < f.appended; ++r) {
    if (!spec.predicate->Matches(q, f.rows[r].data(), d)) continue;
    ++matched;
    sum += f.rows[r][spec.measure_col];
  }
  if (matched == 0) return sk;
  switch (spec.agg) {
    case Aggregate::kCount:
      return sk + static_cast<double>(matched);
    case Aggregate::kSum:
      return sk + sum;
    default:
      return mirror_engine.Answer(spec, q);
  }
}

/// Serves `queries` for every aggregate through `eng` and compares each
/// answer with ExpectedStream. Returns the mismatches; when `nmae` is set,
/// also the mean over aggregates of the normalized MAE against the exact
/// answers over base + appended rows.
uint64_t VerifyStream(const StreamFixture& f, ServeEngine& eng,
                      const std::vector<QueryInstance>& queries, uint64_t* attempted,
                      double* nmae) {
  const ExactEngine mirror_engine(&f.mirror);
  uint64_t mismatches = 0;
  double nmae_sum = 0.0;
  for (const auto& spec : f.specs) {
    std::vector<double> truth, pred;
    for (size_t i = 0; i < queries.size(); i += kStreamBurst) {
      const size_t n = std::min(kStreamBurst, queries.size() - i);
      std::vector<QueryInstance> burst(queries.begin() + i, queries.begin() + i + n);
      std::vector<ServeResult> res;
      try {
        res = eng.SubmitMany(kStreamDs, spec, std::move(burst)).get();
      } catch (const std::exception&) {
      }
      for (size_t j = 0; j < n; ++j) {
        ++*attempted;
        const QueryInstance& q = queries[i + j];
        if (j >= res.size() || !SameBits(res[j].value, ExpectedStream(f, mirror_engine, spec, q))) {
          ++mismatches;
          continue;
        }
        if (nmae != nullptr) {
          const double t = mirror_engine.Answer(spec, q);
          if (std::isnan(t) || std::isnan(res[j].value)) continue;
          truth.push_back(t);
          pred.push_back(res[j].value);
        }
      }
    }
    if (nmae != nullptr) nmae_sum += neurosketch::stats::NormalizedMae(truth, pred);
  }
  if (nmae != nullptr) *nmae = nmae_sum / static_cast<double>(f.specs.size());
  return mismatches;
}

struct StreamPhaseExtra {
  std::vector<double> append_call_us;   // AppendRows call duration
  std::vector<double> append_sched_us;  // AppendRows return - scheduled time
  std::vector<double> append_late_us;   // AppendRows start - scheduled time
  std::vector<double> refresh_ms;
  std::vector<double> compact_ms;
  size_t delta_rows_peak = 0;
};

size_t DeltaRows(const SketchStore& store) {
  for (const auto& [ds, st] : store.DeltaStats()) {
    if (ds == kStreamDs) return st.rows;
  }
  return 0;
}

Phase RunStreamPhase(StreamFixture& f, ServeEngine& eng, const Options& o, double seconds,
                     bool traced, uint64_t seed, StreamPhaseExtra* x) {
  const Sizes sz = SizesFor(o);
  Phase p;
  const int64_t launch = NowNs() + 1000000;
  p.start_ns = launch + static_cast<int64_t>(WarmupSeconds(seconds) * 1e9);
  p.end_ns = p.start_ns + static_cast<int64_t>(seconds * 1e9);
  constexpr size_t kClients = 2;
  // Room for 2k bursts/s per client, above what 1 shard delivers.
  std::vector<SampleBuffer> samples(kClients,
                                    SampleBuffer(static_cast<size_t>(seconds * 2000)));
  std::vector<uint64_t> attempted(kClients + 1, 0), failed(kClients + 1, 0);
  for (size_t c = 0; c <= kClients; ++c) {
    p.logs.push_back(std::make_unique<SpanLog>(traced ? 1 << 15 : 0));
  }
  std::atomic<bool> reset{false};
  LoadThreads load;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      load.Register();
      Rng rng(SeedFor(seed, 300 + c));
      SpanLog* log = p.logs[c].get();
      const size_t n = f.pool.size();
      SpinUntil(launch);
      for (uint64_t req = 0;; ++req) {
        // Mostly COUNT/SUM, a minority of AVG.
        const double u = rng.Uniform();
        const QueryFunctionSpec& spec = f.specs[u < 0.45 ? 0 : (u < 0.85 ? 1 : 2)];
        const size_t off = rng.Index(n);
        std::vector<QueryInstance> burst;
        burst.reserve(kStreamBurst);
        for (size_t i = 0; i < kStreamBurst; ++i) burst.push_back(f.pool[(off + i) % n]);
        const int64_t t0 = NowNs();
        if (t0 >= p.end_ns) break;
        attempted[c] += kStreamBurst;
        std::vector<ServeResult> res;
        int64_t t1 = t0;
        try {
          auto fut = eng.SubmitMany(kStreamDs, spec, std::move(burst));
          t1 = NowNs();
          res = fut.get();
        } catch (const std::exception&) {
          failed[c] += kStreamBurst;
          continue;
        }
        const int64_t t2 = NowNs();
        // Answers under live appends are checked for failure here and for
        // exactness at the appender's quiescent checkpoints.
        for (size_t i = 0; i < kStreamBurst; ++i) {
          if (i >= res.size() || std::isnan(res[i].value)) ++failed[c];
        }
        if (t0 < p.start_ns) continue;
        samples[c].Add({t2, static_cast<double>(t2 - t0) * 1e-3, kStreamBurst});
        if (traced) {
          const int64_t root = log->Add("request", req, -1, t0, t2);
          log->Add("serve.engine.SubmitMany", req, root, t0, t1);
          log->Add("client.wait", req, root, t1, t2);
        }
      }
    });
  }
  threads.emplace_back([&] {
    load.Register();
    SpanLog* log = p.logs[kClients].get();
    Rng rng(SeedFor(seed, 400));
    int64_t shift = 0;
    for (uint64_t k = 0;; ++k) {
      const int64_t due = launch + shift + static_cast<int64_t>(k) * kAppendPeriodNs;
      if (due >= p.end_ns || f.appended + kRowsPerAppend > f.rows.size()) break;
      SleepUntil(due - 200000);
      SpinUntil(due);
      if (!reset && due >= p.start_ns) {
        eng.ResetStats();
        reset = true;
      }
      std::vector<std::vector<double>> chunk(f.rows.begin() + f.appended,
                                             f.rows.begin() + f.appended + kRowsPerAppend);
      const int64_t a0 = NowNs();
      const bool ok = f.store.AppendRows(kStreamDs, chunk).ok();
      const int64_t a1 = NowNs();
      ++attempted[kClients];
      if (!ok) {
        ++failed[kClients];
        continue;
      }
      for (const auto& row : chunk) (void)f.mirror.AppendRow(row);
      f.appended += chunk.size();
      x->delta_rows_peak = std::max(x->delta_rows_peak, DeltaRows(f.store));
      const bool measured = due >= p.start_ns;
      if (measured) {
        x->append_call_us.push_back(static_cast<double>(a1 - a0) * 1e-3);
        x->append_sched_us.push_back(static_cast<double>(a1 - due) * 1e-3);
        x->append_late_us.push_back(static_cast<double>(a0 - due) * 1e-3);
      }
      int64_t root = -1;
      if (traced && measured) {
        root = log->Add("append", k, -1, due, a1);
        log->Add("serve.store.AppendRows", k, root, a0, a1);
      }
      if (f.appended % sz.checkpoint != 0) continue;

      // Quiescent checkpoint: this thread is the only writer, so the store
      // is stable while sampled answers are checked. The check's time is
      // taken out of the append schedule; maintenance time is not.
      const int64_t v0 = NowNs();
      std::vector<QueryInstance> sample;
      for (size_t i = 0; i < sz.verify; ++i) sample.push_back(f.pool[rng.Index(f.pool.size())]);
      failed[kClients] += VerifyStream(f, eng, sample, &attempted[kClients], nullptr);
      shift += NowNs() - v0;
      for (const auto& spec : f.specs) {
        const int64_t r0 = NowNs();
        const auto out = f.refresh->RefreshNow(kStreamDs, spec);
        const int64_t r1 = NowNs();
        ++attempted[kClients];
        if (!out.ok()) ++failed[kClients];
        if (measured) x->refresh_ms.push_back(static_cast<double>(r1 - r0) * 1e-6);
        if (traced && measured) log->Add("serve.refresh.RefreshNow", k, root, r0, r1);
      }
      const int64_t c0 = NowNs();
      const bool compact_ok = f.store.Compact(kStreamDs).ok();
      const int64_t c1 = NowNs();
      ++attempted[kClients];
      if (!compact_ok) ++failed[kClients];
      if (measured) x->compact_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
      if (traced && measured) log->Add("serve.store.Compact", k, root, c0, c1);
    }
  });
  SleepUntil(p.start_ns);
  load.Start();
  for (auto& t : threads) t.join();
  p.engine_cpu_s = load.ProgramCpuSeconds();
  p.peak_rss_mb = PeakRssMb();
  for (size_t c = 0; c <= kClients; ++c) {
    if (c < kClients) samples[c].AppendTo(&p.samples);
    p.attempted += attempted[c];
    p.failed += failed[c];
  }
  // One window: the load changes over a stream run by design (the delta
  // grows, the checkpoint retrain stalls the appender, the swap cuts the
  // correction scans), so a median over windows would pick one regime.
  Finish(&p, eng, SIZE_MAX);
  return p;
}

StreamLayers CollectStreamLayers(const StreamFixture& f, const StreamPhaseExtra& x) {
  StreamLayers s;
  s.delta_rows_peak = static_cast<double>(x.delta_rows_peak);
  s.delta_rows_end = static_cast<double>(DeltaRows(f.store));
  s.append_us_p50 = Median(x.append_call_us);
  s.append_p99_us = Percentile(x.append_sched_us, 99);
  s.compact_ms = Median(x.compact_ms);
  s.refresh_ms = Median(x.refresh_ms);
  for (const auto& [ds, c] : f.store.CompactionStats()) {
    if (ds == kStreamDs) s.folded_rows = static_cast<double>(c.folded_rows);
  }
  const auto rs = f.refresh->Stats();
  s.skipped = static_cast<double>(rs.skipped);
  s.swaps = static_cast<double>(rs.swaps);
  s.retrained_leaves = static_cast<double>(rs.retrained_leaves);
  return s;
}

Report RunStream(const Options& o) {
  Report r;
  std::vector<double> setup_s;
  auto f = RepeatSetup(o.trace || o.smoke ? 1 : kSetupRepeats, &setup_s,
                       [&] { return SetupStream(o); });
  {
    // The run's seeded query pool, made once after the timed set-ups.
    const ExactEngine base_engine(&f->base);
    WorkloadGenerator pool_gen(f->base.num_columns(), PmWorkload(SeedFor(o.seed, 1)));
    f->pool = pool_gen.GenerateMany(SizesFor(o).pool, &base_engine, &f->specs[2]);
  }
  StreamPhaseExtra x;
  Phase main_phase = RunStreamPhase(*f, *f->serve, o, o.trace ? o.seconds / 2 : o.seconds,
                                    false, SeedFor(o.seed, 2), &x);
  ReportPhase("stream", main_phase);
  r.attempted += main_phase.attempted;
  r.failed += main_phase.failed;
  const StreamLayers sl_main = CollectStreamLayers(*f, x);
  std::fprintf(stderr,
               "[stream] append_p99_us=%.1f delta_rows_peak=%.0f delta_rows_end=%.0f "
               "folded_rows=%.0f swaps=%.0f skipped=%.0f\n",
               sl_main.append_p99_us, sl_main.delta_rows_peak, sl_main.delta_rows_end,
               sl_main.folded_rows, sl_main.swaps, sl_main.skipped);
  if (!o.trace) {
    double nmae = 0.0;
    r.failed += VerifyStream(*f, *f->serve, f->test_q, &r.attempted, &nmae);
    std::vector<std::shared_ptr<const NeuroSketch>> live;
    for (const auto& spec : f->specs) {
      live.push_back(f->store.Lookup(ServeKey::From(kStreamDs, spec)));
    }
    AddEndToEnd(setup_s, main_phase, nmae, DistinctSketchBytes(live), &r);
    return r;
  }
  ServeEngine traced_eng(&f->store, EngineOptions(1, true));
  // Maintenance and append figures cover both phases: the single
  // checkpoint of a run may fall in either.
  Phase tp = RunStreamPhase(*f, traced_eng, o, o.seconds / 2, true, SeedFor(o.seed, 3), &x);
  ReportPhase("stream traced", tp);
  r.attempted += tp.attempted;
  r.failed += tp.failed;
  r.failed += VerifyStream(*f, traced_eng, f->test_q, &r.attempted, nullptr);
  SpanLog probe_log(1 << 18);
  LayerProbe in;
  // The sketch as trained at set-up: a refreshed version is a reloaded
  // copy and carries no build stats.
  in.sketch = f->sketches[0].get();
  in.config = f->config;
  in.queries = &f->pool;
  in.mean_batch = tp.stats.mean_batch_size;
  in.engine = f->engine.get();
  in.exact_spec = f->specs[2];
  in.store = &f->store;
  in.key = ServeKey::From(kStreamDs, f->specs[0]);
  in.log = &probe_log;
  ProbeLayers(in, &r);
  const auto logs = LogPtrs(tp.logs, &probe_log);
  const auto spans = SummarizeSpans(logs);
  PrintSpanSummary(spans);
  AddEngineLayers(tp, SpanP50(spans, "serve.engine.SubmitMany"), &r);
  AddStreamLayers(CollectStreamLayers(*f, x), &r);
  r.Add("gen_late_p99_us", Percentile(x.append_late_us, 99), "us");
  AddTraceFigures(main_phase, tp, BlockingPath(tp, spans, "serve.engine.SubmitMany"), &r);
  WriteSpanFile(o, logs);
  return r;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "batch" || name == "point" || name == "stream";
}

ThreadBudget BudgetOf(const std::string& workload) {
  if (workload == "batch") return {2, 2};   // 2 closed-loop clients
  if (workload == "point") return {2, 2};   // generator + collector
  if (workload == "stream") return {3, 1};  // appender + 2 clients
  return {};
}

Report RunWorkload(const Options& o) {
  if (o.workload == "batch") return RunServing(o, false);
  if (o.workload == "point") return RunServing(o, true);
  return RunStream(o);
}

}  // namespace perfbench
