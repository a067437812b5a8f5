#include "serve/serve_engine.h"

#include <algorithm>
#include <cmath>

#include "query/range_scan.h"

namespace neurosketch {
namespace serve {

namespace {
std::chrono::microseconds WindowDuration(double us) {
  if (us <= 0.0) return std::chrono::microseconds(0);
  return std::chrono::microseconds(static_cast<int64_t>(us));
}

ServeOptions Sanitize(ServeOptions o) {
  if (o.max_batch == 0) o.max_batch = 1;  // 0 would livelock the dispatcher
  if (o.num_shards == 0) {
    o.num_shards = std::thread::hardware_concurrency();
    if (o.num_shards == 0) o.num_shards = 1;
  }
  if (o.submit_queue_capacity < 2) o.submit_queue_capacity = 2;
  return o;
}

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Exact match statistics of one query over a delta row range — the
/// ingredients of the decomposable-aggregate composition.
struct DeltaMatch {
  size_t matched = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// COUNT/SUM/MIN/MAX statistics of delta rows [from, end); COUNT needs
/// only `matched`. COUNT and SUM accumulate without branches: `sum`
/// starts at +0.0 and can never become -0.0, and x + 0.0 == x for every
/// other x, so adding 0.0 for a non-matching row (whatever its measure,
/// NaN included) leaves exactly the in-order sum of the matching rows.
/// MIN/MAX keep the first-match semantics (a NaN first match is sticky),
/// so they stay branchy.
DeltaMatch ScanDelta(const DeltaBuffer::Snapshot& snap, size_t from,
                     const QueryFunctionSpec& spec, const RangeScan& scan) {
  DeltaMatch m;
  const size_t dim = snap.num_columns();
  const size_t mc = spec.measure_col;
  snap.ForEachSpan(from, snap.end(), [&](const double* rows, size_t n) {
    const RowMajorRows span{rows, dim};
    // Locals, not m's fields: a store to m.sum could alias the row data
    // and would pin every addition to memory.
    size_t matched = m.matched;
    switch (spec.agg) {
      case Aggregate::kCount:
        scan.Run(span, n, [&](size_t, bool hit) { matched += hit; });
        break;
      case Aggregate::kSum: {
        double sum = m.sum;
        scan.Run(span, n, [&](size_t i, bool hit) {
          matched += hit;
          sum += hit ? span.At(i, mc) : 0.0;
        });
        m.sum = sum;
        break;
      }
      default:  // kMin / kMax
        scan.Run(span, n, [&](size_t i, bool hit) {
          if (!hit) return;
          const double v = span.At(i, mc);
          if (matched == 0) {
            m.min = m.max = v;
          } else {
            if (v < m.min) m.min = v;
            if (v > m.max) m.max = v;
          }
          ++matched;
        });
        break;
    }
    m.matched = matched;
  });
  return m;
}

/// True iff any delta row in [from, end) matches; stops at the first.
bool AnyDeltaMatch(const DeltaBuffer::Snapshot& snap, size_t from,
                   const RangeScan& scan) {
  bool found = false;
  const size_t dim = snap.num_columns();
  snap.ForEachSpan(from, snap.end(), [&](const double* rows, size_t n) {
    if (found) return;
    scan.Run(RowMajorRows{rows, dim}, n, [&](size_t, bool hit) {
      found = hit;
      return !hit;
    });
  });
  return found;
}

/// True when appended rows fold into the base answer by a scalar
/// correction; AVG/STD/MEDIAN need the base row population and recompute
/// exactly instead.
bool Decomposable(Aggregate agg) {
  switch (agg) {
    case Aggregate::kCount:
    case Aggregate::kSum:
    case Aggregate::kMin:
    case Aggregate::kMax:
      return true;
    default:
      return false;
  }
}

/// The streaming exact path: one accumulation fed the pinned base table
/// first, then every delta row the base does not already hold, in append
/// order — bit-identical to a from-scratch scan of the appended table for
/// every aggregate (including Welford STD and MEDIAN's order-sensitive
/// buffer). The delta scan starts at the pinned version's fold watermark:
/// rows below it were compacted into the base and counting them from the
/// delta too would double them. The caller took the snapshot BEFORE
/// pinning, so snap.begin() <= base.folded always holds and the pair
/// covers the logical history exactly once.
double ExactWithDelta(const ExactEngine::PinnedBase& base,
                      const QueryFunctionSpec& spec, const RangeScan& scan,
                      const DeltaBuffer::Snapshot& snap) {
  AggregateAccumulator acc(spec.agg);
  ExactEngine::AccumulateOver(*base.table, scan, spec.measure_col, &acc);
  const size_t dim = snap.num_columns();
  const size_t mc = spec.measure_col;
  const size_t from = snap.begin() < base.folded
                          ? static_cast<size_t>(base.folded)
                          : snap.begin();
  snap.ForEachSpan(from, snap.end(), [&](const double* rows, size_t n) {
    const RowMajorRows span{rows, dim};
    scan.Run(span, n, [&](size_t i, bool hit) {
      if (hit) acc.Add(span.At(i, mc));
    });
  });
  return acc.Finalize();
}
}  // namespace

ServeEngine::ServeEngine(const SketchStore* store, ServeOptions options)
    : store_(store),
      options_(Sanitize(std::move(options))),
      router_(options_.num_shards),
      slow_queries_(options_.stage_tracing ? options_.slow_query_capacity
                                           : 0) {
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.submit_queue_capacity));
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->dispatcher = std::thread([this, s] { DispatchLoop(s); });
  }
}

ServeEngine::~ServeEngine() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    // The empty critical section fences against the sleep transition: a
    // dispatcher that decided to wait either already waits (the notify
    // lands) or still holds the lock and will re-check stop_ first.
    { std::lock_guard<std::mutex> lock(shard->mu); }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) shard->dispatcher.join();
}

size_t ServeEngine::ShardOf(const std::string& dataset,
                            const QueryFunctionSpec& spec) const {
  return ShardIndexOf(ServeKey::From(dataset, spec));
}

ServeEngine::KeyState& ServeEngine::KeyStateLocked(
    Shard* shard, const ServeKey& key, const QueryFunctionSpec& spec) {
  KeyState& st = shard->keys[key];
  if (st.spec.predicate == nullptr) st.spec = spec;
  if (st.counters == nullptr) {
    st.counters = std::make_shared<StoreCounters>();
    st.counters->display = key.dataset + "/" + AggregateName(spec.agg) +
                           "(col " + std::to_string(spec.measure_col) + ")";
  }
  return st;
}

void ServeEngine::Route(Submission s) {
  Shard& shard = *shards_[ShardIndexOf(s.key)];
  if (!shard.ring.Push(std::move(s))) {
    shard.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish -> fence -> sleeping check pairs with the dispatcher's
  // sleeping store -> fence -> ring check (a Dekker handshake): one side
  // always observes the other, so a published submission can never strand
  // while the dispatcher sleeps. In the hot case (dispatcher busy) this
  // is one relaxed load and no lock.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_relaxed)) {
    // Locking (empty section) serializes with the sleep transition so the
    // notify cannot fire in the window between the dispatcher's re-check
    // and its cv.wait.
    { std::lock_guard<std::mutex> lock(shard.mu); }
    shard.cv.notify_one();
  }
}

std::future<ServeResult> ServeEngine::Submit(const std::string& dataset,
                                             const QueryFunctionSpec& spec,
                                             QueryInstance q) {
  Submission s;
  s.key = ServeKey::From(dataset, spec);
  s.spec = spec;
  s.enqueued = Clock::now();
  s.q = std::move(q);
  s.promise = std::make_unique<std::promise<ServeResult>>();
  std::future<ServeResult> fut = s.promise->get_future();
  Route(std::move(s));
  return fut;
}

std::future<std::vector<ServeResult>> ServeEngine::SubmitMany(
    const std::string& dataset, const QueryFunctionSpec& spec,
    std::vector<QueryInstance> queries) {
  auto wave = std::make_shared<Wave>();
  const size_t n = queries.size();
  wave->results.resize(n);
  wave->remaining.store(n, std::memory_order_relaxed);
  std::future<std::vector<ServeResult>> fut = wave->promise.get_future();
  if (n == 0) {
    wave->promise.set_value({});
    return fut;
  }
  Submission s;
  s.key = ServeKey::From(dataset, spec);
  s.spec = spec;
  s.enqueued = Clock::now();
  s.queries = std::move(queries);
  s.wave = std::move(wave);
  Route(std::move(s));
  return fut;
}

ServeResult ServeEngine::Answer(const std::string& dataset,
                                const QueryFunctionSpec& spec,
                                QueryInstance q) {
  return Submit(dataset, spec, std::move(q)).get();
}

size_t ServeEngine::DrainRingLocked(Shard* shard) {
  size_t filed = 0;
  Submission s;
  while (shard->ring.TryPop(&s)) {
    KeyState& st = KeyStateLocked(shard, s.key, s.spec);
    if (s.wave != nullptr) {
      const size_t n = s.queries.size();
      for (size_t i = 0; i < n; ++i) {
        Request r;
        r.q = std::move(s.queries[i]);
        r.enqueued = s.enqueued;
        r.wave = s.wave;
        r.wave_slot = i;
        st.pending.push_back(std::move(r));
      }
      filed += n;
      shard->pending_count += n;
    } else {
      Request r;
      r.q = std::move(s.q);
      r.enqueued = s.enqueued;
      r.promise = std::move(s.promise);
      st.pending.push_back(std::move(r));
      ++filed;
      ++shard->pending_count;
    }
  }
  return filed;
}

void ServeEngine::DispatchLoop(Shard* shard) {
  const auto window = WindowDuration(options_.batch_window_us);
  std::unique_lock<std::mutex> lock(shard->mu);
  for (;;) {
    // Batch assembly: everything clients published while the last
    // forward pass ran is filed into per-key queues now — the ring IS the
    // pipeline stage that decouples submission from inference.
    DrainRingLocked(shard);
    // A key is dispatchable when its queue is full, its window has
    // expired, the window is zero, or we are stopping. Among dispatchable
    // keys, serve the one whose oldest request has waited longest — a
    // continuously-full hot key must not starve a colder key whose window
    // already expired.
    const auto now = Clock::now();
    const bool stopping = stop_.load(std::memory_order_relaxed);
    KeyState* chosen = nullptr;
    ServeKey chosen_key;
    Clock::time_point chosen_deadline{};
    bool have_deadline = false;
    Clock::time_point earliest{};
    for (auto& [key, st] : shard->keys) {
      if (st.pending.empty()) continue;
      const auto deadline = st.pending.front().enqueued + window;
      if (st.pending.size() >= options_.max_batch || window.count() == 0 ||
          stopping || deadline <= now) {
        if (chosen == nullptr || deadline < chosen_deadline) {
          chosen = &st;
          chosen_key = key;
          chosen_deadline = deadline;
        }
        continue;
      }
      if (!have_deadline || deadline < earliest) {
        earliest = deadline;
        have_deadline = true;
      }
    }
    if (chosen == nullptr) {
      if (stopping && shard->pending_count == 0 && shard->ring.Empty()) {
        return;
      }
      // Sleep/wake handshake: declare intent to sleep, fence, then
      // re-check the ring — the Dekker counterpart of Route's
      // publish/fence/check sequence.
      shard->sleeping.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!shard->ring.Empty() || stop_.load(std::memory_order_relaxed)) {
        shard->sleeping.store(false, std::memory_order_relaxed);
        continue;
      }
      if (have_deadline) {
        shard->cv.wait_until(lock, earliest);
      } else {
        shard->cv.wait(lock);
      }
      shard->sleeping.store(false, std::memory_order_relaxed);
      continue;
    }

    std::vector<Request> batch;
    const size_t take = std::min(options_.max_batch, chosen->pending.size());
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(chosen->pending.front()));
      chosen->pending.pop_front();
    }
    shard->pending_count -= take;
    const bool allow_sketch = !chosen->demoted;
    const QueryFunctionSpec spec = chosen->spec;
    const std::shared_ptr<StoreCounters> counters = chosen->counters;

    lock.unlock();
    // The queue-wait / batch-assembly boundary: everything before this
    // instant is time spent waiting in the per-key queue.
    ExecuteBatch(shard, chosen_key, spec, allow_sketch, &batch, Clock::now(),
                 counters.get());
    lock.lock();
  }
}

double ServeEngine::Fulfill(Shard* shard, Request* r, double value,
                            bool used_sketch, PlanPrecision tier,
                            StoreCounters* sc, Clock::time_point* now_out) {
  const Clock::time_point now = Clock::now();
  if (now_out != nullptr) *now_out = now;  // free timestamp for tracing
  const double us = MicrosBetween(r->enqueued, now);
  shard->latency.Add(us);
  sc->latency.Add(us);
  shard->queries.fetch_add(1, std::memory_order_relaxed);
  sc->queries.fetch_add(1, std::memory_order_relaxed);
  if (used_sketch) {
    shard->sketch_answers.fetch_add(1, std::memory_order_relaxed);
    sc->sketch_answers.fetch_add(1, std::memory_order_relaxed);
    // Ticked together with sketch_answers (and before the promise
    // resolves) so the f32 counter is always a consistent subset.
    if (tier == PlanPrecision::kF32) {
      shard->f32_sketch_answers.fetch_add(1, std::memory_order_relaxed);
      sc->f32_sketch_answers.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (std::isnan(value)) {
    shard->failed_answers.fetch_add(1, std::memory_order_relaxed);
    sc->failed_answers.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard->fallback_answers.fetch_add(1, std::memory_order_relaxed);
    sc->fallback_answers.fetch_add(1, std::memory_order_relaxed);
  }
  if (r->wave != nullptr) {
    r->wave->results[r->wave_slot] = ServeResult{value, used_sketch};
    if (r->wave->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      r->wave->promise.set_value(std::move(r->wave->results));
    }
    return us;
  }
  r->promise->set_value(ServeResult{value, used_sketch});
  return us;
}

void ServeEngine::ExecuteBatch(Shard* shard, const ServeKey& key,
                               const QueryFunctionSpec& spec,
                               bool allow_sketch, std::vector<Request>* batch,
                               Clock::time_point collected,
                               StoreCounters* sc) {
  shard->batches.fetch_add(1, std::memory_order_relaxed);
  const bool tracing = options_.stage_tracing;
  // Acquisition order matters for compaction safety: the delta SNAPSHOT
  // comes first, then the (sketch, watermarks) view, then the pinned base
  // version. Watermarks and the base fold watermark only ever advance, so
  // anything observed after the snapshot is >= the snapshot's begin —
  // rows can never fall between the snapshot and the base. Pinning first
  // would race a concurrent compact (swap + trim) into dropping rows from
  // both views. The snapshot is taken once per batch: every query
  // composes against the same appended-row prefix.
  std::shared_ptr<const DeltaBuffer> delta = store_->Delta(key.dataset);
  DeltaBuffer::Snapshot dsnap;
  bool has_delta = false;
  if (delta != nullptr) {
    dsnap = delta->Snap();
    has_delta = !dsnap.empty();
  }
  // One consistent read of (sketch, fold watermarks): the refresh path
  // swaps sketch + watermarks atomically in the store, so a batch either
  // corrects against the old version's watermarks or the new version's —
  // never a mix. A demoted key skips the sketch but still needs the delta
  // for exact composition.
  ServedView view;
  if (allow_sketch) view = store_->LookupServed(key);
  const std::shared_ptr<const NeuroSketch>& sketch = view.sketch;
  const ExactEngine* engine = store_->Engine(key.dataset);
  // Pinned AFTER the snapshot: one base version for the whole batch, kept
  // alive across any concurrent compaction swap.
  const ExactEngine::PinnedBase pinned =
      engine != nullptr ? engine->Pin() : ExactEngine::PinnedBase{};
  // Attribute count each query's predicate is compiled for (RangeScan).
  const size_t data_dim = pinned.table != nullptr
                              ? pinned.table->num_columns()
                              : dsnap.num_columns();

  // Requests own their queries and never read them again; steal the
  // buffers instead of cloning one heap allocation per query.
  std::vector<QueryInstance> queries;
  queries.reserve(batch->size());
  for (auto& r : *batch) queries.push_back(std::move(r.q));

  // Stage boundaries: assembly = collection -> inference start (store
  // lookup + query stealing), inference = inference start -> the FIRST
  // answer's delivery clock read (so it absorbs the NaN scan and budget
  // accounting), fulfill = first -> last answer's delivery clock read,
  // measured per micro-batch. Tracing latency discipline: on the
  // latency-critical singleton-batch path, tracing adds ZERO clock reads
  // — inference start reuses the collection stamp (assembly reads 0 and
  // its sub-microsecond lookup cost is absorbed into inference) and both
  // downstream boundaries reuse the clock reads Fulfill already pays
  // for; multi-query batches, where per-request cost is amortized, pay
  // one dedicated read to keep the full 4-way split. Every histogram
  // update is deferred to after the final promise resolves. This keeps
  // the tracing-on single-query p50 within the <2% budget that
  // tools/check_bench_gates.py (overhead) gates.
  Clock::time_point infer_start{};
  Clock::time_point infer_end{};
  // Delta composition window (scans plus exact recompute over base +
  // delta), nested inside inference; read only when the batch has a live
  // delta, so the no-delta path pays no extra clock read.
  Clock::time_point delta_start{};
  Clock::time_point delta_end{};
  bool delta_timed = false;
  Clock::time_point fulfill_end{};
  Clock::time_point* fulfill_now = tracing ? &fulfill_end : nullptr;
  const char* tier_name = "exact";

  // Offers this request's trace to the slow-query ring; everything past
  // the lock-free threshold gate is lazy (trace strings, the queue-wait
  // split, the shard hash), so the common (fast-query) case costs one
  // relaxed load and one compare.
  auto maybe_trace = [&](double total_us, Clock::time_point enqueued,
                         const char* tier) {
    if (total_us <= slow_queries_.min_kept_us()) return;
    metrics::SlowQueryTrace t;
    t.total_us = total_us;
    t.queue_us = MicrosBetween(enqueued, collected);
    t.assembly_us = MicrosBetween(collected, infer_start);
    t.inference_us = MicrosBetween(infer_start, infer_end);
    const double rest = total_us - t.queue_us - t.assembly_us - t.inference_us;
    t.fulfill_us = rest > 0.0 ? rest : 0.0;
    t.store = sc->display;
    t.tier = tier;
    t.batch_size = batch->size();
    t.shard = ShardIndexOf(key);
    slow_queries_.Offer(std::move(t));
  };

  // Deferred stage bookkeeping: queue waits are recomputed from the
  // requests' enqueue stamps (still valid after the query steal), so no
  // per-request state needs buffering on the critical path.
  auto record_stages = [&] {
    if (!tracing) return;
    for (const auto& r : *batch) {
      shard->stage_queue.Add(MicrosBetween(r.enqueued, collected));
    }
    shard->stage_assembly.Add(MicrosBetween(collected, infer_start));
    shard->stage_inference.Add(MicrosBetween(infer_start, infer_end));
    shard->stage_fulfill.Add(MicrosBetween(infer_end, fulfill_end));
    if (delta_timed) {
      shard->stage_delta.Add(MicrosBetween(delta_start, delta_end));
    }
  };

  if (sketch != nullptr) {
    // Dispatcher-thread answer buffer: capacity is retained across
    // batches, so with AnswerBatchVectorizedTo staging its bucketing in
    // the workspace arena the whole sketch path is allocation-free once
    // the thread is warm. With keys pinned to shards, only this shard's
    // thread ever warms this sketch's arena.
    thread_local std::vector<double> answers;
    answers.resize(queries.size());
    if (tracing) infer_start = batch->size() == 1 ? collected : Clock::now();
    sketch->AnswerBatchVectorizedTo(queries, answers.data());
    // Streaming composition: correct each sketch answer with the exact
    // contribution of the delta rows its leaf has not folded yet. Per
    // answer: 0 = pure sketch, 1 = sketch + scalar delta correction
    // (still a sketch answer), 2 = recomputed exactly over base + delta
    // (non-decomposable aggregate with matching unfolded rows; counted
    // as a fallback answer). Composition never changes NaN-ness, so the
    // NaN scan and budget accounting below read post-composition values
    // and see exactly the sketch's own answerability.
    thread_local std::vector<uint8_t> modes;
    modes.assign(answers.size(), 0);
    if (has_delta) {
      if (tracing) delta_start = Clock::now();
      const std::vector<uint64_t>* folded = view.leaf_folded.get();
      for (size_t i = 0; i < answers.size(); ++i) {
        if (std::isnan(answers[i])) continue;
        // Route once more to find this query's fold watermark: rows the
        // leaf's model already reflects must not be corrected twice.
        const auto* leaf = sketch->tree().Route(queries[i]);
        size_t from = dsnap.begin();
        if (folded != nullptr && leaf != nullptr && leaf->leaf_id >= 0 &&
            static_cast<size_t>(leaf->leaf_id) < folded->size()) {
          const size_t w = (*folded)[leaf->leaf_id];
          if (w > from) from = w;
        }
        if (from >= dsnap.end()) continue;  // leaf fully folded
        const RangeScan scan(*spec.predicate, queries[i], data_dim);
        if (Decomposable(spec.agg)) {
          const DeltaMatch m = ScanDelta(dsnap, from, spec, scan);
          if (m.matched == 0) continue;  // appends do not touch this query
          switch (spec.agg) {
            case Aggregate::kCount:
              answers[i] += static_cast<double>(m.matched);
              break;
            case Aggregate::kSum:
              answers[i] += m.sum;
              break;
            case Aggregate::kMin:
              answers[i] = std::min(answers[i], m.min);
              break;
            default:  // kMax
              answers[i] = std::max(answers[i], m.max);
              break;
          }
          modes[i] = 1;
        } else if (engine != nullptr && AnyDeltaMatch(dsnap, from, scan)) {
          answers[i] = ExactWithDelta(pinned, spec, scan, dsnap);
          modes[i] = 2;
        }
        // Non-decomposable with no exact engine: serve the (stale)
        // sketch answer — there is nothing better to compose from.
      }
      if (tracing) {
        delta_end = Clock::now();
        delta_timed = true;
      }
    }
    // infer_end is the first Fulfill's clock read, set in the loop below.
    size_t nans = 0;
    for (double a : answers) nans += std::isnan(a) ? 1 : 0;
    const size_t genuine = answers.size() - nans;
    const PlanPrecision tier = sketch->plan_precision();
    tier_name = PlanPrecisionName(tier);

    bool tripped = false;
    {
      // Error-budget accounting BEFORE any request is fulfilled: the
      // moment the last Fulfill resolves a client future, that client may
      // Snapshot() — the demotion decision must already be visible.
      // sketch_answers counts only genuinely sketch-answered queries —
      // repaired (NaN) queries must not dilute the failure-rate
      // denominator, or a half-broken sketch is demoted late or never.
      // The key lives on this shard, so the shard lock suffices (and is
      // uncontended: only this dispatcher and rare Snapshots take it).
      std::lock_guard<std::mutex> lock(shard->mu);
      KeyState& st = shard->keys[key];
      st.sketch_answers += genuine;
      st.sketch_nans += nans;
      if (!st.demoted &&
          st.sketch_answers + st.sketch_nans >= options_.budget_min_samples &&
          static_cast<double>(st.sketch_nans) >
              options_.max_sketch_failure_rate *
                  static_cast<double>(st.sketch_answers)) {
        st.demoted = true;
        tripped = true;
        shard->budget_trips.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Eviction-policy signals for the paged catalog (no-ops for fully
    // resident stores): genuine answers are this store's heat; a budget
    // trip zeroes it, so a demoted sketch — whose traffic now bypasses it
    // anyway — is the first thing the pool reclaims under pressure.
    if (genuine > 0) store_->NoteServed(key, genuine);
    if (tripped) store_->NotePenalized(key);

    for (size_t i = 0; i < answers.size(); ++i) {
      double total_us;
      const char* served_as;
      if (std::isnan(answers[i]) && engine != nullptr) {
        // Per-query exact repair: the sketch could not route/answer this
        // instance (e.g. out-of-domain), but the batch as a whole stays
        // on the fast path. Fulfill ticks fallback_answers (or
        // failed_answers when the engine is also stumped). With a live
        // delta the repair composes over base + appended rows, so the
        // repaired answer honors the same freshness contract.
        const double repaired = ExactWithDelta(
            pinned, spec, RangeScan(*spec.predicate, queries[i], data_dim),
            dsnap);
        total_us = Fulfill(shard, &(*batch)[i], repaired, false,
                           PlanPrecision::kF64, sc, fulfill_now);
        served_as = "exact";
      } else if (modes[i] == 2) {
        // Non-decomposable aggregate recomputed exactly over base+delta:
        // counted as a fallback answer (used_sketch=false) plus the
        // delta_exact sub-counter.
        shard->delta_exact_answers.fetch_add(1, std::memory_order_relaxed);
        sc->delta_exact_answers.fetch_add(1, std::memory_order_relaxed);
        total_us = Fulfill(shard, &(*batch)[i], answers[i], false,
                           PlanPrecision::kF64, sc, fulfill_now);
        served_as = "exact";
      } else {
        if (modes[i] == 1) {
          shard->delta_corrected_answers.fetch_add(1,
                                                   std::memory_order_relaxed);
          sc->delta_corrected_answers.fetch_add(1, std::memory_order_relaxed);
        }
        const bool genuine_answer = !std::isnan(answers[i]);
        total_us = Fulfill(shard, &(*batch)[i], answers[i], genuine_answer,
                           genuine_answer ? tier : PlanPrecision::kF64, sc,
                           fulfill_now);
        served_as = genuine_answer ? tier_name : "failed";
      }
      if (tracing) {
        if (i == 0) infer_end = fulfill_end;
        maybe_trace(total_us, (*batch)[i].enqueued, served_as);
      }
    }
    record_stages();
    return;
  }

  if (engine != nullptr) {
    if (tracing) infer_start = batch->size() == 1 ? collected : Clock::now();
    std::vector<double> answers;
    if (has_delta) {
      // Exact path with a live delta (demoted key, or no sketch yet):
      // every answer is the pinned-base accumulation continued over the
      // unfolded delta rows — bit-identical to scanning the appended
      // table from scratch, for every aggregate, across any concurrent
      // compaction.
      if (tracing) delta_start = Clock::now();
      answers.resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const RangeScan scan(*spec.predicate, queries[i], data_dim);
        answers[i] = ExactWithDelta(pinned, spec, scan, dsnap);
      }
      if (tracing) {
        delta_end = Clock::now();
        delta_timed = true;
      }
    } else {
      answers = engine->AnswerBatch(spec, queries, options_.exact_batch_threads);
    }
    for (size_t i = 0; i < answers.size(); ++i) {
      const double total_us = Fulfill(shard, &(*batch)[i], answers[i], false,
                                      PlanPrecision::kF64, sc, fulfill_now);
      if (tracing) {
        if (i == 0) infer_end = fulfill_end;
        maybe_trace(total_us, (*batch)[i].enqueued,
                    std::isnan(answers[i]) ? "failed" : "exact");
      }
    }
    record_stages();
    return;
  }

  // Neither a sketch nor an exact engine: answer NaN rather than hang —
  // no inference happens, so both boundaries reuse the collection stamp.
  if (tracing) infer_start = infer_end = collected;
  for (auto& r : *batch) {
    const double total_us = Fulfill(shard, &r, std::nan(""), false,
                                    PlanPrecision::kF64, sc, fulfill_now);
    if (tracing) maybe_trace(total_us, r.enqueued, "failed");
  }
  record_stages();
}

void ServeEngine::DemoteStore(const std::string& dataset,
                              const QueryFunctionSpec& spec) {
  const ServeKey key = ServeKey::From(dataset, spec);
  Shard* shard = shards_[ShardIndexOf(key)].get();
  bool tripped = false;
  {
    // Same lock discipline as the NaN error budget: the owning shard's
    // lock makes the decision visible before any later batch reads
    // `demoted` in its dispatch.
    std::lock_guard<std::mutex> lock(shard->mu);
    KeyState& st = KeyStateLocked(shard, key, spec);
    if (!st.demoted) {
      st.demoted = true;
      tripped = true;
      shard->budget_trips.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Demotion zeroes serving heat: a store whose drift outruns refresh is
  // the preferred eviction victim, exactly like a NaN-budget trip.
  if (tripped) store_->NotePenalized(key);
}

ServeStats ServeEngine::Snapshot() const {
  ServeStats s;
  s.num_shards = shards_.size();
  LatencyHistogram latency;
  LatencyHistogram stage_queue, stage_assembly, stage_inference, stage_fulfill,
      stage_delta;
  s.per_shard.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    ShardStatsSnapshot sd;
    sd.shard = i;
    sd.queries = sh.queries.load(std::memory_order_relaxed);
    sd.sketch_answers = sh.sketch_answers.load(std::memory_order_relaxed);
    sd.fallback_answers = sh.fallback_answers.load(std::memory_order_relaxed);
    sd.failed_answers = sh.failed_answers.load(std::memory_order_relaxed);
    sd.batches = sh.batches.load(std::memory_order_relaxed);
    sd.budget_trips = sh.budget_trips.load(std::memory_order_relaxed);
    sd.backpressure_waits =
        sh.backpressure_waits.load(std::memory_order_relaxed);
    sd.mean_batch_size =
        sd.batches > 0
            ? static_cast<double>(sd.queries) / static_cast<double>(sd.batches)
            : 0.0;
    sd.latency = LatencyBreakdown::From(sh.latency);

    s.queries += sd.queries;
    s.sketch_answers += sd.sketch_answers;
    s.f32_sketch_answers +=
        sh.f32_sketch_answers.load(std::memory_order_relaxed);
    s.fallback_answers += sd.fallback_answers;
    s.failed_answers += sd.failed_answers;
    s.delta_corrected_answers +=
        sh.delta_corrected_answers.load(std::memory_order_relaxed);
    s.delta_exact_answers +=
        sh.delta_exact_answers.load(std::memory_order_relaxed);
    s.batches += sd.batches;
    s.budget_trips += sd.budget_trips;
    latency.AddFrom(sh.latency);
    if (options_.stage_tracing) {
      stage_queue.AddFrom(sh.stage_queue);
      stage_assembly.AddFrom(sh.stage_assembly);
      stage_inference.AddFrom(sh.stage_inference);
      stage_fulfill.AddFrom(sh.stage_fulfill);
      stage_delta.AddFrom(sh.stage_delta);
    }
    s.per_shard.push_back(std::move(sd));
  }
  s.elapsed_seconds = uptime_.ElapsedSeconds();
  s.qps = s.elapsed_seconds > 0.0
              ? static_cast<double>(s.queries) / s.elapsed_seconds
              : 0.0;
  s.mean_batch_size =
      s.batches > 0
          ? static_cast<double>(s.queries) / static_cast<double>(s.batches)
          : 0.0;
  s.fallback_rate =
      s.queries > 0
          ? static_cast<double>(s.fallback_answers) /
                static_cast<double>(s.queries)
          : 0.0;
  s.p50_us = latency.PercentileUs(50);
  s.p95_us = latency.PercentileUs(95);
  s.p99_us = latency.PercentileUs(99);
  s.p999_us = latency.PercentileUs(99.9);

  s.stage_tracing = options_.stage_tracing;
  if (s.stage_tracing) {
    s.stage_queue = LatencyBreakdown::From(stage_queue);
    s.stage_assembly = LatencyBreakdown::From(stage_assembly);
    s.stage_inference = LatencyBreakdown::From(stage_inference);
    s.stage_fulfill = LatencyBreakdown::From(stage_fulfill);
    s.stage_delta = LatencyBreakdown::From(stage_delta);
  }

  // Per-store view: each shard's key map is only touched long enough to
  // copy the counter pointers; the counters themselves are read
  // lock-free.
  std::vector<std::pair<std::shared_ptr<StoreCounters>, bool>> stores;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    s.per_shard[i].resident_keys = sh.keys.size();
    for (const auto& [key, st] : sh.keys) {
      (void)key;
      if (st.counters != nullptr) stores.emplace_back(st.counters, st.demoted);
    }
  }
  s.per_store.reserve(stores.size());
  for (const auto& [sc, demoted] : stores) {
    StoreStatsSnapshot ss;
    ss.store = sc->display;
    ss.queries = sc->queries.load(std::memory_order_relaxed);
    ss.sketch_answers = sc->sketch_answers.load(std::memory_order_relaxed);
    ss.f32_sketch_answers =
        sc->f32_sketch_answers.load(std::memory_order_relaxed);
    ss.fallback_answers = sc->fallback_answers.load(std::memory_order_relaxed);
    ss.failed_answers = sc->failed_answers.load(std::memory_order_relaxed);
    ss.delta_corrected_answers =
        sc->delta_corrected_answers.load(std::memory_order_relaxed);
    ss.delta_exact_answers =
        sc->delta_exact_answers.load(std::memory_order_relaxed);
    ss.demoted = demoted;
    ss.fallback_rate = ss.queries > 0
                           ? static_cast<double>(ss.fallback_answers) /
                                 static_cast<double>(ss.queries)
                           : 0.0;
    ss.latency = LatencyBreakdown::From(sc->latency);
    s.per_store.push_back(std::move(ss));
  }
  std::sort(s.per_store.begin(), s.per_store.end(),
            [](const StoreStatsSnapshot& a, const StoreStatsSnapshot& b) {
              return a.store < b.store;
            });
  return s;
}

void ServeEngine::ResetStats() {
  // One window restart across every shard: take all shard locks first so
  // no new batch lands between the counter clear and the clock restart.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& sh : shards_) locks.emplace_back(sh->mu);
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    sh.queries.store(0, std::memory_order_relaxed);
    sh.sketch_answers.store(0, std::memory_order_relaxed);
    sh.f32_sketch_answers.store(0, std::memory_order_relaxed);
    sh.fallback_answers.store(0, std::memory_order_relaxed);
    sh.failed_answers.store(0, std::memory_order_relaxed);
    sh.delta_corrected_answers.store(0, std::memory_order_relaxed);
    sh.delta_exact_answers.store(0, std::memory_order_relaxed);
    sh.batches.store(0, std::memory_order_relaxed);
    sh.budget_trips.store(0, std::memory_order_relaxed);
    sh.backpressure_waits.store(0, std::memory_order_relaxed);
    sh.latency.Reset();
    sh.stage_queue.Reset();
    sh.stage_assembly.Reset();
    sh.stage_inference.Reset();
    sh.stage_fulfill.Reset();
    sh.stage_delta.Reset();
    for (auto& [key, st] : sh.keys) {
      (void)key;
      if (st.counters == nullptr) continue;
      st.counters->queries.store(0, std::memory_order_relaxed);
      st.counters->sketch_answers.store(0, std::memory_order_relaxed);
      st.counters->f32_sketch_answers.store(0, std::memory_order_relaxed);
      st.counters->fallback_answers.store(0, std::memory_order_relaxed);
      st.counters->failed_answers.store(0, std::memory_order_relaxed);
      st.counters->delta_corrected_answers.store(0, std::memory_order_relaxed);
      st.counters->delta_exact_answers.store(0, std::memory_order_relaxed);
      st.counters->latency.Reset();
    }
  }
  slow_queries_.Clear();
  uptime_.Reset();
}

std::vector<metrics::SlowQueryTrace> ServeEngine::SlowQueries() const {
  return slow_queries_.SlowestFirst();
}

void ServeEngine::ExportMetrics(metrics::MetricsRegistry* registry,
                                const std::string& prefix) const {
  const ServeStats s = Snapshot();
  registry->SetCounter(prefix + "queries_total", s.queries,
                       "Answers delivered");
  registry->SetCounter(prefix + "sketch_answers_total", s.sketch_answers,
                       "Answered by a sketch forward pass");
  registry->SetCounter(prefix + "f32_sketch_answers_total",
                       s.f32_sketch_answers);
  registry->SetCounter(prefix + "fallback_answers_total", s.fallback_answers,
                       "Answered by the exact engine");
  registry->SetCounter(prefix + "failed_answers_total", s.failed_answers,
                       "NaN with no fallback available");
  registry->SetCounter(prefix + "delta_corrected_answers_total",
                       s.delta_corrected_answers,
                       "Sketch answers corrected with unfolded delta rows");
  registry->SetCounter(prefix + "delta_exact_answers_total",
                       s.delta_exact_answers,
                       "Non-decomposable answers recomputed over base+delta");
  registry->SetCounter(prefix + "batches_total", s.batches,
                       "Micro-batches dispatched");
  registry->SetCounter(prefix + "budget_trips_total", s.budget_trips,
                       "Stores demoted by the error budget");
  registry->SetGauge(prefix + "elapsed_seconds", s.elapsed_seconds,
                     "Seconds since engine start or last ResetStats");
  registry->SetGauge(prefix + "mean_batch_size", s.mean_batch_size);
  registry->SetGauge(prefix + "shards", static_cast<double>(s.num_shards),
                     "Dispatcher shards (one dedicated thread each)");

  // Paged-catalog residency: all-zero series when the store has no paged
  // catalog attached (the pool is the single source of truth, snapshotted
  // exactly under its mutex — budget dashboards must not see torn reads).
  const BufferPoolStats pool = store_->PagedStats();
  registry->SetGauge(prefix + "resident_bytes",
                     static_cast<double>(pool.resident_bytes),
                     "Bytes of paged sketches currently faulted in");
  registry->SetGauge(prefix + "resident_bytes_peak",
                     static_cast<double>(pool.peak_resident_bytes),
                     "High-water mark of nsketch_serve_resident_bytes");
  registry->SetGauge(prefix + "resident_budget_bytes",
                     static_cast<double>(pool.max_bytes),
                     "max_resident_bytes budget (0 = unbounded)");
  registry->SetCounter(prefix + "faultins_total", pool.faultins,
                       "Cold sketches loaded from the paged catalog");
  registry->SetCounter(prefix + "faultin_hits_total", pool.hits,
                       "Paged lookups served without touching disk");
  registry->SetCounter(prefix + "evictions_total", pool.evictions,
                       "Resident sketches dropped back to cold");

  // Streaming-delta residency, one series set per streaming dataset.
  for (const auto& [dataset, ds] : store_->DeltaStats()) {
    const std::string label = "{dataset=\"" + dataset + "\"}";
    registry->SetGauge(prefix + "delta_rows" + label,
                       static_cast<double>(ds.rows),
                       "Live (untrimmed) delta rows per streaming dataset");
    registry->SetGauge(prefix + "delta_bytes" + label,
                       static_cast<double>(ds.bytes),
                       "Bytes held by live delta rows");
    registry->SetCounter(prefix + "delta_appends_total" + label, ds.appends,
                         "Writer calls (Append or AppendRows) accepted into "
                         "the delta buffer");
    registry->SetCounter(prefix + "delta_rows_appended_total" + label,
                         ds.rows_appended,
                         "Rows accepted across all delta writer calls");
    registry->SetCounter(prefix + "delta_trimmed_rows_total" + label,
                         ds.trimmed_rows,
                         "Delta rows dropped by Trim after base compaction");
  }
  for (const auto& [dataset, cs] : store_->CompactionStats()) {
    const std::string label = "{dataset=\"" + dataset + "\"}";
    registry->SetCounter(prefix + "delta_compactions_total" + label,
                         cs.compactions,
                         "Base-table compactions (fold + swap) per dataset");
    registry->SetCounter(prefix + "delta_folded_rows_total" + label,
                         cs.folded_rows,
                         "Delta rows folded into the base table per dataset");
  }

  auto copy_hist = [&](const std::string& name, const LatencyHistogram& h,
                       const std::string& help) {
    LatencyHistogram* dst = registry->GetHistogram(name, help);
    if (dst != nullptr) dst->CopyFrom(h);
  };
  {
    LatencyHistogram latency;
    for (const auto& sh : shards_) latency.AddFrom(sh->latency);
    copy_hist(prefix + "latency_us", latency,
              "Submit->answer latency, microseconds");
  }
  if (const metrics::LogHistogram* faultin = store_->FaultinLatency()) {
    copy_hist(prefix + "faultin_latency_us", *faultin,
              "Paged-catalog fault-in (disk load) latency, microseconds");
  }
  if (options_.stage_tracing) {
    LatencyHistogram q, a, inf, ful, del;
    for (const auto& sh : shards_) {
      q.AddFrom(sh->stage_queue);
      a.AddFrom(sh->stage_assembly);
      inf.AddFrom(sh->stage_inference);
      ful.AddFrom(sh->stage_fulfill);
      del.AddFrom(sh->stage_delta);
    }
    copy_hist(prefix + "stage_us{stage=\"queue\"}", q,
              "Per-stage serve pipeline latency, microseconds");
    copy_hist(prefix + "stage_us{stage=\"assembly\"}", a, "");
    copy_hist(prefix + "stage_us{stage=\"inference\"}", inf, "");
    copy_hist(prefix + "stage_us{stage=\"fulfill\"}", ful, "");
    copy_hist(prefix + "stage_us{stage=\"delta\"}", del, "");
  }
  for (const auto& ss : s.per_store) {
    const std::string label = "{store=\"" + ss.store + "\"}";
    registry->SetCounter(prefix + "store_queries_total" + label, ss.queries,
                         "Answers delivered per store");
    registry->SetCounter(prefix + "store_sketch_answers_total" + label,
                         ss.sketch_answers);
    registry->SetCounter(prefix + "store_fallback_answers_total" + label,
                         ss.fallback_answers);
    registry->SetCounter(prefix + "store_failed_answers_total" + label,
                         ss.failed_answers);
    registry->SetGauge(prefix + "store_demoted" + label,
                       ss.demoted ? 1.0 : 0.0,
                       "1 when the error budget tripped for this store");
    registry->SetGauge(prefix + "store_p99_us" + label, ss.latency.p99_us,
                       "Per-store submit->answer p99, microseconds");
  }
  // Per-shard series: tail attribution can tell a hot shard (one
  // dispatcher saturated) from a hot store (one key saturated).
  for (const auto& sd : s.per_shard) {
    const std::string label = "{shard=\"" + std::to_string(sd.shard) + "\"}";
    registry->SetCounter(prefix + "shard_queries_total" + label, sd.queries,
                         "Answers delivered per dispatcher shard");
    registry->SetCounter(prefix + "shard_batches_total" + label, sd.batches,
                         "Micro-batches dispatched per shard");
    registry->SetCounter(prefix + "shard_backpressure_waits_total" + label,
                         sd.backpressure_waits,
                         "Submissions that blocked on a full shard ring");
    registry->SetGauge(prefix + "shard_resident_keys" + label,
                       static_cast<double>(sd.resident_keys),
                       "Store keys routed to this shard");
    registry->SetGauge(prefix + "shard_p99_us" + label, sd.latency.p99_us,
                       "Per-shard submit->answer p99, microseconds");
  }
}

}  // namespace serve
}  // namespace neurosketch
