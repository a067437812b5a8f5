// ServeEngine: concurrent request front end over a SketchStore (paper
// Sec. 4 / Alg. 5 turned into a serving system), rearchitected shard-per-
// core. Stores are partitioned across N dispatcher shards by a stable
// hash of their (dataset, query function) key; each shard owns a
// dedicated dispatcher thread, its own wait-free MPSC submission ring,
// its own per-key micro-batch queues, and its own counter/histogram
// block, so dispatchers never contend with each other and a sketch's
// thread-local workspace arena is only ever warmed by one core.
//
// Client submission is wait-free: Submit/SubmitMany claim a ring slot
// with one unconditional fetch_add (no engine-wide mutex, no CAS retry
// loop) and block only when the target shard's ring is full — bounded-
// queue backpressure, counted per shard. The answer pipeline is
// decoupled from submission: while a shard's dispatcher runs inference
// on batch k, clients keep publishing batch k+1 into the ring; the
// dispatcher drains the ring into per-key queues (batch assembly) each
// time it comes back from a forward pass.
//
// Batching semantics are unchanged from the single-queue engine: time/
// size bounded micro-batches per (dataset, query function), one
// vectorized forward pass per batch (NeuroSketch::AnswerBatchVectorizedTo:
// flat-buffer fused kernels + thread-local workspace, zero heap
// allocations per query), exact-engine fallback and per-store error
// budgets. Answers are bit-identical to per-query NeuroSketch::Answer.
//
// Observability: every counter and stage histogram is kept per shard
// (merged at Snapshot), so the export carries both per-store and
// per-shard labeled series — a hot shard is distinguishable from a hot
// store. The slow-query ring records the serving shard in each trace.
// All stage tracing remains behind ServeOptions::stage_tracing.
#ifndef NEUROSKETCH_SERVE_SERVE_ENGINE_H_
#define NEUROSKETCH_SERVE_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve_stats.h"
#include "serve/sketch_store.h"
#include "util/metrics.h"
#include "util/mpsc_queue.h"
#include "util/shard_router.h"
#include "util/timer.h"
#include "util/trace_ring.h"

namespace neurosketch {
namespace serve {

struct ServeOptions {
  /// Micro-batch size bound: a batch dispatches as soon as this many
  /// requests are pending for one store entry. 1 disables batching
  /// (per-query dispatch).
  size_t max_batch = 256;
  /// Micro-batch time bound in microseconds: a batch dispatches once its
  /// oldest request has waited this long, full or not. 0 disables the
  /// wait (dispatch as soon as a dispatcher is free).
  double batch_window_us = 200.0;
  /// Dispatcher shards, each with a dedicated thread, submission ring and
  /// per-key queues. 0 = hardware concurrency. Store keys are pinned to
  /// shards by a stable hash, so one store's traffic is always served by
  /// the same core.
  size_t num_shards = 0;
  /// Per-shard submission ring capacity in entries (one Submit or one
  /// SubmitMany burst each), rounded up to a power of two. A full ring
  /// blocks the submitting client until the shard catches up.
  size_t submit_queue_capacity = 1024;
  /// Threads for exact-engine fallback batches (0 = hardware concurrency).
  size_t exact_batch_threads = 0;
  /// Error budget: once a store entry has attempted at least
  /// `budget_min_samples` sketch answers, it is demoted — all later
  /// traffic goes to the exact engine — when its NaN (unanswerable) count
  /// exceeds `max_sketch_failure_rate` times its count of genuinely
  /// sketch-answered queries. Repaired queries do not count as sketch
  /// answers, so a mostly-broken sketch cannot dilute its own failure
  /// rate.
  double max_sketch_failure_rate = 0.1;
  size_t budget_min_samples = 64;
  /// Per-stage pipeline tracing + slow-query capture. When off, the
  /// engine skips the stage clock reads and histogram increments — the
  /// residual cost is one branch per micro-batch; the aggregate counters
  /// and submit->answer latency histogram are always maintained.
  bool stage_tracing = true;
  /// Capacity of the slowest-K query trace ring (0 disables capture;
  /// only consulted when stage_tracing is on).
  size_t slow_query_capacity = 32;
};

/// \brief One delivered answer.
struct ServeResult {
  double value = 0.0;
  bool used_sketch = false;
};

/// \brief Concurrent micro-batching query server, shard-per-core.
class ServeEngine {
 public:
  explicit ServeEngine(const SketchStore* store, ServeOptions options = {});

  /// \brief Drains every pending request, then stops the dispatchers.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// \brief Enqueue one query; the future resolves when its micro-batch
  /// has been answered. Thread-safe; wait-free except when the target
  /// shard's submission ring is full (backpressure).
  std::future<ServeResult> Submit(const std::string& dataset,
                                  const QueryFunctionSpec& spec,
                                  QueryInstance q);

  /// \brief Enqueue a burst of queries sharing one future; the results
  /// come back in submission order. Semantically identical to calling
  /// Submit per query, but the burst occupies ONE ring slot and pays one
  /// promise — the client half of micro-batching.
  std::future<std::vector<ServeResult>> SubmitMany(
      const std::string& dataset, const QueryFunctionSpec& spec,
      std::vector<QueryInstance> queries);

  /// \brief Blocking convenience: Submit + wait.
  ServeResult Answer(const std::string& dataset,
                     const QueryFunctionSpec& spec, QueryInstance q);

  /// \brief Current counters; cheap enough to poll. Engine-wide values
  /// are sums over the per-shard blocks. Consistency contract documented
  /// on ServeStats (relaxed reads, ~one batch stale).
  ServeStats Snapshot() const;

  /// \brief Restart the stats window as one operation: zeroes every
  /// counter and histogram (per-shard, per-stage, and per-store),
  /// empties the slow-query ring, and resets the elapsed-time clock,
  /// holding every shard lock so no new batch lands between the counter
  /// clear and the clock restart. Error-budget state (per-store failure
  /// accounting and demotions) is control state, not stats, and is
  /// preserved. See ServeStats for what in-flight answers may do.
  void ResetStats();

  /// \brief The K slowest queries observed since start (or ResetStats),
  /// slowest first, with their stage breakdowns and serving shard. Empty
  /// when tracing or the ring is disabled.
  std::vector<metrics::SlowQueryTrace> SlowQueries() const;

  /// \brief Mirror the current counters and histograms into `registry`
  /// under `prefix` (counters, stage + latency histograms, labeled
  /// per-store series, and labeled per-shard series), for text/JSON
  /// exposition alongside other subsystems.
  void ExportMetrics(metrics::MetricsRegistry* registry,
                     const std::string& prefix = "nsketch_serve_") const;

  /// \brief Demote a store key as if its error budget tripped: all later
  /// traffic for (dataset, spec) goes to the exact engine (still with
  /// exact delta composition), and the key's paged-catalog heat is
  /// zeroed (NotePenalized). The refresh controller calls this when a
  /// store's drift outruns refresh — repeated refresh failures must not
  /// leave a known-stale sketch serving. Idempotent; counted under
  /// budget_trips on the first call.
  void DemoteStore(const std::string& dataset, const QueryFunctionSpec& spec);

  /// \brief The shard a key's traffic is pinned to: a pure function of
  /// the key and the shard count, stable across Register/Unregister of
  /// any store (including this one).
  size_t ShardOf(const std::string& dataset,
                 const QueryFunctionSpec& spec) const;

  size_t num_shards() const { return shards_.size(); }
  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Completion state for one SubmitMany burst: the last answered slot
  /// resolves the shared promise.
  struct Wave {
    std::vector<ServeResult> results;
    std::atomic<size_t> remaining{0};
    std::promise<std::vector<ServeResult>> promise;
  };

  struct Request {
    QueryInstance q;
    Clock::time_point enqueued;
    std::unique_ptr<std::promise<ServeResult>> promise;  // single Submit
    std::shared_ptr<Wave> wave;                          // SubmitMany
    size_t wave_slot = 0;
  };

  /// One ring entry: a single request or a whole SubmitMany burst, with
  /// enough routing context (key + canonical spec) for the dispatcher to
  /// file it into the right per-key queue.
  struct Submission {
    ServeKey key;
    QueryFunctionSpec spec;
    Clock::time_point enqueued;
    // Single Submit:
    QueryInstance q;
    std::unique_ptr<std::promise<ServeResult>> promise;
    // SubmitMany burst:
    std::vector<QueryInstance> queries;
    std::shared_ptr<Wave> wave;
  };

  /// Per-store lock-free counters, updated on the fulfill path and read
  /// by Snapshot. Owned via shared_ptr so ExecuteBatch can update them
  /// after dropping the shard lock.
  struct StoreCounters {
    std::string display;  // "dataset/agg(col N)"
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> sketch_answers{0};
    std::atomic<uint64_t> f32_sketch_answers{0};
    std::atomic<uint64_t> fallback_answers{0};
    std::atomic<uint64_t> failed_answers{0};
    std::atomic<uint64_t> delta_corrected_answers{0};
    std::atomic<uint64_t> delta_exact_answers{0};
    LatencyHistogram latency;
  };

  /// Per (dataset, query function) pending queue + error-budget health.
  /// Owned by exactly one shard; mutated only by that shard's dispatcher
  /// under the shard lock (Snapshot takes the same lock to read).
  struct KeyState {
    QueryFunctionSpec spec;  // canonical spec, set by the first Submit
    std::deque<Request> pending;
    uint64_t sketch_answers = 0;  // genuinely sketch-answered (non-NaN)
    uint64_t sketch_nans = 0;     // sketch NaNs (repaired or failed)
    bool demoted = false;  // error budget exceeded; serve exact only
    std::shared_ptr<StoreCounters> counters;  // created on first Submit
  };

  /// One dispatcher shard: submission ring, dedicated thread, per-key
  /// queues, and its own counter/histogram block. Cacheline-aligned so
  /// neighboring shards' hot atomics never share a line.
  struct alignas(64) Shard {
    MpscRing<Submission> ring;
    std::thread dispatcher;

    /// Guards keys + pending_count (dispatcher vs Snapshot/ResetStats —
    /// effectively uncontended at serving time) and backs the cv.
    std::mutex mu;
    std::condition_variable cv;
    /// Sleep/wake handshake: set (seq_cst) by the dispatcher just before
    /// it decides to wait; producers re-check it after publishing (with a
    /// seq_cst fence between), so a submission can never be published
    /// without either the dispatcher seeing it or the producer seeing
    /// `sleeping` and ringing the cv.
    std::atomic<bool> sleeping{false};
    std::map<ServeKey, KeyState> keys;
    size_t pending_count = 0;

    // Shard-local metrics (relaxed atomics; Snapshot sums across shards).
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> sketch_answers{0};
    std::atomic<uint64_t> f32_sketch_answers{0};
    std::atomic<uint64_t> fallback_answers{0};
    std::atomic<uint64_t> failed_answers{0};
    std::atomic<uint64_t> delta_corrected_answers{0};
    std::atomic<uint64_t> delta_exact_answers{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> budget_trips{0};
    std::atomic<uint64_t> backpressure_waits{0};
    LatencyHistogram latency;
    // Stage histograms (only written when options_.stage_tracing).
    LatencyHistogram stage_queue;
    LatencyHistogram stage_assembly;
    LatencyHistogram stage_inference;
    LatencyHistogram stage_fulfill;
    LatencyHistogram stage_delta;  // nested inside stage_inference

    explicit Shard(size_t ring_capacity) : ring(ring_capacity) {}
  };

  void DispatchLoop(Shard* shard);
  /// Moves every published ring entry into the shard's per-key queues.
  /// Caller holds shard->mu. Returns the number of requests filed.
  size_t DrainRingLocked(Shard* shard);
  /// Routes a submission to its shard: one ring Push (wait-free claim)
  /// plus the sleep/wake handshake.
  void Route(Submission s);
  /// `collected` is the instant the dispatcher picked the batch off the
  /// queue — the queue-wait / batch-assembly stage boundary.
  void ExecuteBatch(Shard* shard, const ServeKey& key,
                    const QueryFunctionSpec& spec, bool allow_sketch,
                    std::vector<Request>* batch, Clock::time_point collected,
                    StoreCounters* sc);
  /// `tier` is the precision the answer was served from; only meaningful
  /// when used_sketch is true (fallback/failed answers pass kF64).
  /// Returns the submit->answer latency in microseconds. When `now_out`
  /// is non-null it receives the clock read Fulfill pays for anyway, so
  /// tracing can bound the fulfill stage without an extra Clock::now().
  double Fulfill(Shard* shard, Request* r, double value, bool used_sketch,
                 PlanPrecision tier, StoreCounters* sc,
                 Clock::time_point* now_out = nullptr);
  /// Locates (creating on demand) the KeyState for a submission; caller
  /// must hold the shard's lock. Only the owning dispatcher calls this.
  KeyState& KeyStateLocked(Shard* shard, const ServeKey& key,
                           const QueryFunctionSpec& spec);

  size_t ShardIndexOf(const ServeKey& key) const {
    return router_.ShardOf(key.Hash());
  }

  const SketchStore* store_;
  const ServeOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};

  metrics::SlowQueryRing slow_queries_;
  Timer uptime_;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_SERVE_ENGINE_H_
