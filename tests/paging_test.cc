// Tests for the paged sketch catalog (ISSUE 8): the bounded buffer pool
// (pin refcounts block eviction, budget is never exceeded, single-load of
// concurrent faults), the packed catalog file format, the three-state
// sketch lifecycle (ResidentBytes moves with Release/Ensure, Load comes
// up lean), bit-identical answers across evict -> fault-in round trips on
// every plan tier, and the serve-path integration (listings report both
// sizes, registered versions shadow cold entries, paged metrics export,
// 8-thread serve with concurrent eviction — the TSan battery).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/neurosketch.h"
#include "data/generators.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/buffer_pool.h"
#include "util/metrics.h"

namespace neurosketch {
namespace {

using serve::PagedCatalogOptions;
using serve::ServeEngine;
using serve::ServeKey;
using serve::SketchStore;

// ---------------------------------------------------------------------------
// BufferPool: synthetic values with exact byte accounting.

using BytePool = BufferPool<int, std::vector<char>>;

Result<BufferPoolLoaded<std::vector<char>>> MakeBlob(size_t bytes) {
  BufferPoolLoaded<std::vector<char>> out;
  out.value = std::make_shared<const std::vector<char>>(bytes, 'x');
  out.bytes = bytes;
  return out;
}

TEST(BufferPoolTest, FaultsInOnceThenHits) {
  BytePool pool(1024);
  int loads = 0;
  auto loader = [&] {
    ++loads;
    return MakeBlob(100);
  };
  for (int i = 0; i < 5; ++i) {
    auto h = pool.Pin(7, loader);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.value()->size(), 100u);
  }
  EXPECT_EQ(loads, 1);
  const BufferPoolStats s = pool.Stats();
  EXPECT_EQ(s.faultins, 1u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.resident_bytes, 100u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(BufferPoolTest, BudgetNeverExceededProperty) {
  // 64 keys of 100 bytes against a 350-byte budget: at most 3 resident at
  // any instant. The peak is checked after EVERY operation — this is the
  // exactness property the serve-side budget gate leans on.
  BytePool pool(350);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 64; ++k) {
      auto h = pool.Pin(k, [] { return MakeBlob(100); });
      ASSERT_TRUE(h.ok());
      const BufferPoolStats s = pool.Stats();
      EXPECT_LE(s.resident_bytes, 350u);
      EXPECT_LE(s.peak_resident_bytes, 350u);
      EXPECT_LE(s.resident_entries, 3u);
    }
  }
  EXPECT_GT(pool.Stats().evictions, 0u);
}

TEST(BufferPoolTest, PinBlocksEvictionUntilHandleDrops) {
  // Budget fits one blob. While key 0's handle is held, faulting key 1
  // must wait on the unpin instead of evicting a pinned frame.
  BytePool pool(150);
  auto held = pool.Pin(0, [] { return MakeBlob(100); });
  ASSERT_TRUE(held.ok());

  std::atomic<bool> second_done{false};
  std::future<Status> second = std::async(std::launch::async, [&] {
    auto h = pool.Pin(1, [] { return MakeBlob(100); });
    second_done.store(true);
    return h.ok() ? Status::OK() : h.status();
  });
  // The faulting thread must be parked in admission, not completed: give
  // it ample time to (wrongly) finish if pinning were broken.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(second_done.load());
  // The pinned frame must still be resident and intact.
  EXPECT_EQ(pool.Stats().resident_bytes, 100u);
  ASSERT_NE(held.value(), nullptr);
  EXPECT_EQ(held.value()->size(), 100u);

  held.value().reset();  // unpin -> the waiter evicts key 0 and admits
  ASSERT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(second.get().ok());
  EXPECT_TRUE(second_done.load());
  const BufferPoolStats s = pool.Stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.peak_resident_bytes, 150u);
}

TEST(BufferPoolTest, EntryLargerThanBudgetFails) {
  BytePool pool(100);
  auto h = pool.Pin(0, [] { return MakeBlob(200); });
  EXPECT_FALSE(h.ok());
  // The failed frame must not wedge the key: a fitting retry succeeds.
  auto h2 = pool.Pin(0, [] { return MakeBlob(50); });
  EXPECT_TRUE(h2.ok());
}

TEST(BufferPoolTest, ConcurrentPinsOfOneKeySingleLoad) {
  BytePool pool(0);  // unbounded: isolate the loading-latch behavior
  std::atomic<int> loads{0};
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Pin(42, [&] {
        loads.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return MakeBlob(64);
      });
      if (h.ok() && h.value()->size() == 64) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(pool.Stats().faultins, 1u);
}

TEST(BufferPoolTest, PenalizedFrameIsPreferredVictim) {
  // Three 100-byte keys, budget 250: admitting key 2 needs one eviction.
  // Key 0 is far hotter than key 1, but penalized — it must go first.
  BytePool pool(250);
  { auto h = pool.Pin(0, [] { return MakeBlob(100); }); }
  { auto h = pool.Pin(1, [] { return MakeBlob(100); }); }
  pool.Touch(0, 1000.0);
  pool.Penalize(0);
  { auto h = pool.Pin(2, [] { return MakeBlob(100); }); }
  EXPECT_EQ(pool.Peek(0), nullptr);   // evicted despite its traffic
  EXPECT_NE(pool.Peek(1), nullptr);
  EXPECT_NE(pool.Peek(2), nullptr);
}

// ---------------------------------------------------------------------------
// Sketch fixtures.

struct Bench {
  std::vector<QueryInstance> train_q;
  std::vector<double> train_a;
  std::vector<QueryInstance> probes;
  NeuroSketchConfig cfg;
};

// Same shape as precision_test's bench: big enough that the f32 tier
// validates, small enough to train in well under a second.
Bench MakeBench(uint64_t seed) {
  Bench b;
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
  b.train_q = gen.GenerateMany(500, &engine, &spec);
  b.train_a = engine.AnswerBatch(spec, b.train_q);

  WorkloadConfig pc = wc;
  pc.seed = seed + 3;
  WorkloadGenerator pgen(2, pc);
  b.probes = pgen.GenerateMany(120, &engine, &spec);

  b.cfg.tree_height = 2;
  b.cfg.target_partitions = 4;
  b.cfg.n_layers = 4;
  b.cfg.l_first = 24;
  b.cfg.l_rest = 16;
  b.cfg.train.epochs = 40;
  b.cfg.seed = seed + 2;
  return b;
}

// A deliberately tiny sketch for the many-entry catalog tests.
Bench MakeTinyBench(uint64_t seed) {
  Bench b = MakeBench(seed);
  b.cfg.tree_height = 1;
  b.cfg.target_partitions = 1;
  b.cfg.n_layers = 2;
  b.cfg.l_first = 8;
  b.cfg.l_rest = 8;
  b.cfg.train.epochs = 10;
  return b;
}

QueryFunctionKey KeyFor(size_t i) {
  QueryFunctionKey key;
  key.predicate_name = AxisRangePredicate::Make()->name();
  key.agg = Aggregate::kCount;
  key.measure_col = i;  // distinct measure columns make distinct keys
  return key;
}

// Bit-identical, NaN-safe: the paging layer must never perturb a single
// answer bit, so compare representations rather than values.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "answers diverge at " << i << ": " << a[i] << " vs " << b[i];
  }
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Lifecycle: ResidentBytes moves with Release/Ensure; Load comes up lean.

TEST(ResidentBytesTest, ReleaseTrainerFreesExactlyTheDelta) {
  Bench b = MakeBench(501);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  NeuroSketch& ns = sk.value();

  const std::vector<double> before = ns.AnswerBatch(b.probes);
  const double scalar_before = ns.AnswerScalar(b.probes.front());
  ASSERT_TRUE(ns.trainer_resident());
  const size_t full = ns.ResidentBytes();
  const size_t disk = ns.SizeBytes();
  const size_t freed = ns.ReleaseTrainer();
  EXPECT_GT(freed, 0u);
  EXPECT_FALSE(ns.trainer_resident());
  EXPECT_EQ(ns.ResidentBytes(), full - freed);
  // Serialized size is a property of the model, not of materialization.
  EXPECT_EQ(ns.SizeBytes(), disk);
  // Answers are served from compiled plans: bit-identical without the
  // trainer, and the scalar path lazily rebuilds it on demand.
  ExpectBitIdentical(before, ns.AnswerBatch(b.probes));
  const double scalar = ns.AnswerScalar(b.probes.front());
  EXPECT_TRUE(ns.trainer_resident());  // lazy rebuild happened
  // The rebuilt trainer reproduces the pre-release scalar answer
  // bit-exactly in every tier (scalar == compiled only holds for f64,
  // where inference_plan_test already pins it).
  EXPECT_EQ(std::memcmp(&scalar, &scalar_before, sizeof(double)), 0);
}

TEST(ResidentBytesTest, ReleaseAndEnsureTierRoundTrip) {
  Bench b = MakeBench(502);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  NeuroSketch& ns = sk.value();
  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32);
  const std::vector<double> f32_answers = ns.AnswerBatch(b.probes);

  // The active tier is not releasable; the trainer and nothing else is
  // droppable here, so Release of the ACTIVE tier must refuse.
  EXPECT_EQ(ns.ReleaseTier(PlanPrecision::kF32), 0u);
  EXPECT_TRUE(ns.TierResident(PlanPrecision::kF32));

  // Switch to f64, drop f32, rebuild it on demand: the rebuilt tier is
  // deterministic from the f64 params, so answers come back bit-equal.
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
  const size_t resident = ns.ResidentBytes();
  const size_t freed = ns.ReleaseTier(PlanPrecision::kF32);
  EXPECT_GT(freed, 0u);
  EXPECT_FALSE(ns.TierResident(PlanPrecision::kF32));
  EXPECT_TRUE(ns.has_f32_plans());  // still carried, just not resident
  EXPECT_EQ(ns.ResidentBytes(), resident - freed);
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF32).ok());
  EXPECT_TRUE(ns.TierResident(PlanPrecision::kF32));
  ExpectBitIdentical(f32_answers, ns.AnswerBatch(b.probes));
}

TEST(ResidentBytesTest, LoadComesUpLean) {
  Bench b = MakeBench(503);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  const std::string path = TempPath("lean.sketch");
  ASSERT_TRUE(sk.value().Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Warm-and-lean: active tier resident, trainer cold, same answers.
  EXPECT_FALSE(loaded.value().trainer_resident());
  EXPECT_TRUE(loaded.value().TierResident(loaded.value().plan_precision()));
  EXPECT_LT(loaded.value().ResidentBytes(), sk.value().ResidentBytes());
  EXPECT_EQ(loaded.value().SizeBytes(), sk.value().SizeBytes());
  ExpectBitIdentical(sk.value().AnswerBatch(b.probes),
                     loaded.value().AnswerBatch(b.probes));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Paged catalog file format.

TEST(PagedCatalogTest, PackOpenLoadRoundTrip) {
  Bench b = MakeTinyBench(504);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  auto shared = std::make_shared<const NeuroSketch>(std::move(sk).value());
  const std::vector<double> reference = shared->AnswerBatch(b.probes);

  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
      entries;
  for (size_t i = 0; i < 5; ++i) entries.emplace_back(KeyFor(i), shared);
  const std::string path = TempPath("roundtrip.cat");
  ASSERT_TRUE(WritePagedCatalog(path, entries).ok());

  auto reader = PagedCatalogReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const PagedCatalogEntry& e = reader.value().entries()[i];
    EXPECT_EQ(e.key.measure_col, i);
    EXPECT_EQ(e.key.predicate_name, KeyFor(i).predicate_name);
    EXPECT_EQ(e.size_bytes, shared->SizeBytes());
    auto loaded = reader.value().LoadEntry(e);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectBitIdentical(reference, loaded.value().AnswerBatch(b.probes));
  }
  std::remove(path.c_str());
}

TEST(PagedCatalogTest, OpenRejectsGarbage) {
  const std::string path = TempPath("garbage.cat");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a paged catalog", f);
    std::fclose(f);
  }
  EXPECT_FALSE(PagedCatalogReader::Open(path).ok());
  EXPECT_FALSE(PagedCatalogReader::Open(TempPath("missing.cat")).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serve-path paging.

struct PagedServeRig {
  Table table;
  std::unique_ptr<ExactEngine> engine;
  // Heap-held: SketchStore owns a shared_mutex, so the rig could not be
  // returned from Make() by value otherwise.
  std::unique_ptr<SketchStore> store = std::make_unique<SketchStore>();
  std::vector<QueryInstance> probes;
  std::vector<double> reference;  // fully-resident answers
  std::string catalog_path;
  size_t resident_one = 0;  // one faulted-in sketch's ResidentBytes
  size_t num_keys = 0;

  // Packs `num_keys` copies of one tiny trained sketch under distinct
  // keys and attaches them cold under `budget_fraction` of the
  // fully-resident footprint.
  static PagedServeRig Make(size_t num_keys, double budget_fraction,
                            const std::string& name,
                            PlanPrecision precision = PlanPrecision::kF64) {
    PagedServeRig r;
    r.num_keys = num_keys;
    Bench b = MakeTinyBench(505);
    b.cfg.plan_precision = precision;
    auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
    EXPECT_TRUE(sk.ok()) << sk.status().ToString();
    auto shared = std::make_shared<const NeuroSketch>(std::move(sk).value());
    // Keep only probes the sketch genuinely answers: a NaN answer is
    // repaired by the exact engine on the serve path, which would make
    // the bit-identity comparison meaningless for that slot.
    const std::vector<double> all = shared->AnswerBatch(b.probes);
    for (size_t i = 0; i < all.size(); ++i) {
      if (std::isnan(all[i])) continue;
      r.probes.push_back(b.probes[i]);
      r.reference.push_back(all[i]);
    }
    EXPECT_GE(r.probes.size(), 32u);

    std::vector<
        std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
        entries;
    for (size_t i = 0; i < num_keys; ++i) {
      entries.emplace_back(KeyFor(i), shared);
    }
    r.catalog_path = TempPath(name);
    EXPECT_TRUE(WritePagedCatalog(r.catalog_path, entries).ok());

    r.table = MakeUniformTable(512, 2, 505);
    r.engine = std::make_unique<ExactEngine>(&r.table);
    EXPECT_TRUE(r.store->RegisterDataset("ds", r.engine.get()).ok());

    // Budget in units of what a faulted-in sketch ACTUALLY occupies.
    auto probe_reader = PagedCatalogReader::Open(r.catalog_path);
    EXPECT_TRUE(probe_reader.ok());
    auto probe = probe_reader.value().LoadEntry(
        probe_reader.value().entries().front());
    EXPECT_TRUE(probe.ok());
    r.resident_one = probe.value().ResidentBytes();
    PagedCatalogOptions opts;
    opts.max_resident_bytes = static_cast<size_t>(
        budget_fraction * static_cast<double>(r.resident_one * num_keys));
    EXPECT_TRUE(
        r.store->AttachPagedCatalog("ds", r.catalog_path, opts).ok());
    return r;
  }

  ServeKey Key(size_t i) const { return ServeKey{"ds", KeyFor(i)}; }

  PagedServeRig() = default;
  PagedServeRig(PagedServeRig&&) = default;
  PagedServeRig& operator=(PagedServeRig&&) = default;
  ~PagedServeRig() {
    if (!catalog_path.empty()) std::remove(catalog_path.c_str());
  }
};

TEST(PagedServeTest, CatalogOf256ServesBitIdenticalAtQuarterBudget) {
  // The ISSUE acceptance property: >= 256 cold sketches, budget capped at
  // 25% of the fully-resident footprint, answers bit-identical to the
  // fully-resident run, peak residency never above budget.
  PagedServeRig r = PagedServeRig::Make(256, 0.25, "budget256.cat");
  ASSERT_EQ(r.store->num_paged(), 256u);
  for (size_t i = 0; i < 256; ++i) {
    auto sketch = r.store->Lookup(r.Key(i));
    ASSERT_NE(sketch, nullptr) << "fault-in failed for key " << i;
    ExpectBitIdentical(r.reference, sketch->AnswerBatch(r.probes));
  }
  const BufferPoolStats s = r.store->PagedStats();
  EXPECT_GT(s.max_bytes, 0u);
  EXPECT_LE(s.peak_resident_bytes, s.max_bytes);
  EXPECT_GE(s.faultins, 256u);
  EXPECT_GT(s.evictions, 0u);  // 25% budget forces turnover
}

TEST(PagedServeTest, EvictFaultInRoundTripsBitIdenticalOnEveryTier) {
  for (PlanPrecision tier : {PlanPrecision::kF64, PlanPrecision::kF32}) {
    SCOPED_TRACE(PlanPrecisionName(tier));
    // Budget fits ~1.2 sketches: every alternation between the three
    // keys evicts the previous one, so each Lookup below is a fresh
    // evict -> fault-in round trip of the same on-disk image.
    PagedServeRig r = PagedServeRig::Make(3, 0.4, "tiertrip.cat", tier);
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < 3; ++i) {
        auto sketch = r.store->Lookup(r.Key(i));
        ASSERT_NE(sketch, nullptr);
        ExpectBitIdentical(r.reference, sketch->AnswerBatch(r.probes));
      }
    }
    const BufferPoolStats s = r.store->PagedStats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_LE(s.peak_resident_bytes, s.max_bytes);
  }
}

TEST(PagedServeTest, ListingsReportBothSizesAndColdness) {
  PagedServeRig r = PagedServeRig::Make(4, 0.5, "listing.cat");
  // All cold: on-disk size known, nothing resident.
  for (const auto& l : r.store->List()) {
    EXPECT_TRUE(l.paged);
    EXPECT_GT(l.size_bytes, 0u);
    EXPECT_EQ(l.resident_bytes, 0u);
  }
  // Fault one in: its listing now reports a genuine resident footprint
  // alongside the serialized size (two independent quantities).
  auto sketch = r.store->Lookup(r.Key(0));
  ASSERT_NE(sketch, nullptr);
  bool saw_resident = false;
  for (const auto& l : r.store->List()) {
    if (l.key.fn.measure_col != 0) continue;
    saw_resident = true;
    EXPECT_GT(l.resident_bytes, 0u);
    EXPECT_GT(l.size_bytes, 0u);
    EXPECT_TRUE(l.compiled);
  }
  EXPECT_TRUE(saw_resident);
}

TEST(PagedServeTest, RegisteredVersionShadowsColdEntry) {
  PagedServeRig r = PagedServeRig::Make(2, 1.0, "shadow.cat");
  Bench b = MakeTinyBench(777);  // a DIFFERENT model under the same key
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok());
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  auto replacement =
      std::make_shared<const NeuroSketch>(std::move(sk).value());
  ASSERT_TRUE(r.store->Register("ds", spec, replacement).ok());
  // The hot swap: lookups now see the registered version, not the cold
  // catalog entry; the untouched key still faults in from disk.
  EXPECT_EQ(r.store->Lookup(r.Key(0)).get(), replacement.get());
  EXPECT_NE(r.store->Lookup(r.Key(1)), nullptr);
}

TEST(PagedServeTest, ExportMetricsCarriesPagedSeries) {
  PagedServeRig r = PagedServeRig::Make(4, 0.3, "metrics.cat");
  ServeEngine serving(r.store.get());
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 1;
  std::vector<QueryInstance> burst(r.probes.begin(), r.probes.begin() + 32);
  serving.SubmitMany("ds", spec, std::move(burst)).get();

  metrics::MetricsRegistry reg;
  serving.ExportMetrics(&reg);
  const std::string text = reg.TextExposition();
  EXPECT_NE(text.find("nsketch_serve_resident_bytes"), std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_faultins_total"), std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_evictions_total"), std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_faultin_latency_us"), std::string::npos);
  // The serve path actually faulted the store in.
  const BufferPoolStats s = r.store->PagedStats();
  EXPECT_GE(s.faultins, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST(PagedServeTest, EightThreadServeWithConcurrentEviction) {
  // The TSan battery: 8 client threads hammer 12 paged keys through the
  // serve engine under a budget that fits only ~3 sketches, so fault-ins,
  // evictions, pins and answers all race; meanwhile observers scrape
  // listings and stats. Every answer must still be bit-identical to the
  // fully-resident reference.
  PagedServeRig r = PagedServeRig::Make(12, 0.27, "tsan.cat");
  serve::ServeOptions opts;
  opts.num_shards = 4;
  ServeEngine serving(r.store.get(), opts);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)r.store->List();
      (void)r.store->PagedStats();
      metrics::MetricsRegistry reg;
      serving.ExportMetrics(&reg);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr size_t kPerThread = 24;
  std::vector<std::thread> clients;
  std::atomic<size_t> mismatches{0};
  for (size_t t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t key_i = (t * 5 + i) % r.num_keys;
        QueryFunctionSpec spec;
        spec.predicate = AxisRangePredicate::Make();
        spec.agg = Aggregate::kCount;
        spec.measure_col = key_i;
        std::vector<QueryInstance> burst(r.probes.begin(),
                                         r.probes.begin() + 16);
        auto results = serving.SubmitMany("ds", spec, std::move(burst)).get();
        for (size_t j = 0; j < results.size(); ++j) {
          if (std::memcmp(&results[j].value, &r.reference[j],
                          sizeof(double)) != 0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  observer.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const BufferPoolStats s = r.store->PagedStats();
  EXPECT_LE(s.peak_resident_bytes, s.max_bytes);
  EXPECT_GT(s.evictions, 0u);
  const auto stats = serving.Snapshot();
  EXPECT_EQ(stats.queries, 8u * kPerThread * 16u);
  EXPECT_EQ(stats.failed_answers, 0u);
}

}  // namespace
}  // namespace neurosketch
