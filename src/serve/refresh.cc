#include "serve/refresh.h"

#include <chrono>
#include <exception>
#include <sstream>
#include <utility>

#include "query/aggregate.h"
#include "query/engine.h"

namespace neurosketch {
namespace serve {

namespace {
using Clock = std::chrono::steady_clock;

std::string DisplayKey(const std::string& dataset,
                       const QueryFunctionSpec& spec) {
  // Matches ServeEngine's StoreCounters display so refresh gauges and
  // serve counters join on the same {store="…"} label.
  return dataset + "/" + AggregateName(spec.agg) + "(col " +
         std::to_string(spec.measure_col) + ")";
}
}  // namespace

RefreshController::RefreshController(SketchStore* store, ServeEngine* engine,
                                     RefreshOptions options)
    : store_(store), engine_(engine), options_(std::move(options)) {}

RefreshController::~RefreshController() { Stop(); }

void RefreshController::AddTarget(RefreshTarget target) {
  std::lock_guard<std::mutex> lock(mu_);
  targets_.push_back(std::move(target));
}

void RefreshController::SetFaultHook(std::function<void(NeuroSketch*)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(hook);
}

RefreshOutcome RefreshController::RefreshTargetLocked(RefreshTarget& target) {
  // Caller holds run_mu_ (one pass at a time); mu_ is taken briefly for
  // shared-state updates. `target` is the caller's private copy, so
  // AddTarget reallocating targets_ mid-pass is harmless.
  RefreshOutcome out;
  const QueryFunctionSpec& spec = target.monitor.spec();
  const ServeKey key = ServeKey::From(target.dataset, spec);
  const std::string display = DisplayKey(target.dataset, spec);
  const Clock::time_point t0 = Clock::now();

  const ServedView view = store_->LookupServed(key);
  if (view.sketch == nullptr) {
    out.message = "no sketch registered for " + display;
    return out;
  }
  const ExactEngine* base = store_->Engine(target.dataset);
  if (base == nullptr) {
    out.message = "no exact engine for dataset " + target.dataset;
    return out;
  }

  // Ground truth reflects the appended table: the base rows plus every
  // delta row the base does not already hold, in append order. The
  // snapshot taken here is also the fold watermark a successful swap
  // publishes — rows appended after this instant stay unfolded and keep
  // being corrected by the serve path. Snapshot-before-pin (see
  // data/streaming_table.h): the base version pinned afterwards has
  // folded >= the snapshot's begin, so base + delta[folded, end) covers
  // the logical history exactly once even when a compaction swaps the
  // table mid-pass.
  DeltaBuffer::Snapshot dsnap;
  if (view.delta != nullptr) dsnap = view.delta->Snap();
  const ExactEngine::PinnedBase pinned = base->Pin();
  Table merged = *pinned.table;
  if (!dsnap.empty()) {
    const size_t from = dsnap.begin() < pinned.folded
                            ? static_cast<size_t>(pinned.folded)
                            : dsnap.begin();
    std::vector<double> row(dsnap.num_columns());
    dsnap.ForEachRow(from, dsnap.end(), [&](const double* r) {
      row.assign(r, r + dsnap.num_columns());
      // Column counts match by EnableStreaming's contract; a mismatch
      // surfaces as missing rows in the (validated) post-retrain probe.
      (void)merged.AppendRow(row);
    });
  }
  const ExactEngine merged_engine(&merged);

  const std::vector<double> truth = merged_engine.AnswerBatch(
      spec, target.monitor.probes(), options_.probe_threads);
  const DriftReport report = target.monitor.CheckAgainst(*view.sketch, truth);
  out.probed = true;
  out.pre_mae = report.normalized_mae;
  out.post_mae = report.normalized_mae;

  if (!report.retrain_recommended) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.runs;
    ++stats_.skipped;
    if (report.conclusive) {
      // Drift back in bound clears the failure streak: the store earned
      // its way out of the demotion countdown.
      failure_streak_.erase(display);
      last_mae_[display] = report.normalized_mae;
    }
    refresh_duration_us_.Add(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    return out;
  }

  out.stale_leaves = report.StaleLeaves();

  // Retrain on a private copy; serving continues on the registered
  // version until the swap below.
  std::function<void(NeuroSketch*)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = fault_hook_;
  }
  bool ok = true;
  std::string fail_msg;
  // NeuroSketch is move-only (the kd-tree owns its nodes); the private
  // retrain copy comes from the bit-exact serialization round-trip.
  NeuroSketch fresh;
  {
    std::stringstream buf;
    const Status saved = view.sketch->SaveTo(&buf);
    if (!saved.ok()) {
      ok = false;
      fail_msg = "clone (SaveTo): " + saved.message();
    } else {
      Result<NeuroSketch> loaded = NeuroSketch::LoadFrom(&buf);
      if (!loaded.ok()) {
        ok = false;
        fail_msg = "clone (LoadFrom): " + loaded.status().message();
      } else {
        fresh = std::move(loaded).value();
      }
    }
  }
  const std::vector<QueryInstance>& train_q =
      target.train_queries.empty() ? target.monitor.probes()
                                   : target.train_queries;
  if (ok) {
    try {
      std::vector<double> train_a =
          target.train_queries.empty()
              ? truth
              : merged_engine.AnswerBatch(spec, train_q,
                                          options_.probe_threads);
      const Status st = fresh.RetrainLeaves(out.stale_leaves, train_q,
                                            train_a, target.config);
      if (!st.ok()) {
        ok = false;
        fail_msg = "RetrainLeaves: " + st.message();
      } else if (hook) {
        hook(&fresh);
      }
    } catch (const std::exception& e) {
      ok = false;
      fail_msg = std::string("refresh threw: ") + e.what();
    }
  }

  if (ok) {
    // Validation gate: the retrained sketch must answer the probe set
    // within the drift policy bound on the SAME merged truth, or it never
    // reaches the store (the out-of-bound fault-injection path).
    const DriftReport post = target.monitor.CheckAgainst(fresh, truth);
    out.post_mae = post.normalized_mae;
    out.retrained = true;
    if (post.normalized_mae > target.monitor.policy().max_normalized_mae) {
      ok = false;
      fail_msg = "retrained sketch out of bound (normalized_mae " +
                 std::to_string(post.normalized_mae) + " > " +
                 std::to_string(target.monitor.policy().max_normalized_mae) +
                 ")";
    }
  }

  if (ok) {
    // Publish: new fold watermarks cover exactly the snapshot the retrain
    // saw, for exactly the leaves retrained. The (sketch, watermarks)
    // pair swaps into the store's version slot atomically.
    auto folded = view.leaf_folded != nullptr
                      ? std::make_shared<std::vector<uint64_t>>(
                            *view.leaf_folded)
                      : std::make_shared<std::vector<uint64_t>>(
                            fresh.num_partitions(), 0);
    folded->resize(fresh.num_partitions(), 0);
    for (int id : out.stale_leaves) {
      (*folded)[static_cast<size_t>(id)] = dsnap.end();
    }
    out.retrained_leaves = out.stale_leaves.size();
    const Result<uint64_t> reg = store_->Register(
        target.dataset, spec,
        std::make_shared<const NeuroSketch>(std::move(fresh)), 0,
        std::move(folded));
    if (!reg.ok()) {
      ok = false;
      out.retrained_leaves = 0;
      fail_msg = "Register: " + reg.status().message();
    } else {
      out.swapped = true;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.runs;
  if (ok) {
    ++stats_.swaps;
    stats_.retrained_leaves += out.retrained_leaves;
    failure_streak_.erase(display);
    last_mae_[display] = out.post_mae;
  } else {
    out.failed = true;
    out.message = fail_msg;
    ++stats_.failures;
    const size_t streak = ++failure_streak_[display];
    if (options_.max_failures_before_demote > 0 &&
        streak >= options_.max_failures_before_demote && engine_ != nullptr) {
      // Drift is outrunning refresh: stop serving the stale sketch.
      // DemoteStore is idempotent, so repeated streak hits are safe.
      engine_->DemoteStore(target.dataset, spec);
      ++stats_.demotions;
      out.demoted = true;
    }
  }
  refresh_duration_us_.Add(
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  return out;
}

void RefreshController::MaybeCompactLocked(const std::string& dataset) {
  if (options_.compact_min_rows == 0 && options_.compact_min_bytes == 0) {
    return;  // compaction disabled
  }
  const std::shared_ptr<const DeltaBuffer> delta = store_->Delta(dataset);
  if (delta == nullptr) return;
  if (store_->StreamingTableFor(dataset) == nullptr) {
    return;  // nowhere to fold: dataset serves a plain static base
  }
  const DeltaBufferStats s = delta->Stats();
  const bool rows_hit =
      options_.compact_min_rows > 0 && s.rows >= options_.compact_min_rows;
  const bool bytes_hit =
      options_.compact_min_bytes > 0 && s.bytes >= options_.compact_min_bytes;
  if (!rows_hit && !bytes_hit) return;
  const Result<CompactionOutcome> res = store_->Compact(dataset);
  // Below-watermark passes (compacted=false) are normal when leaves have
  // not been refreshed past the resident rows yet; the next pass retries.
  if (!res.ok() || !res.value().compacted) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.compactions;
  stats_.compaction_folded_rows += res.value().folded_rows;
}

Result<RefreshOutcome> RefreshController::RefreshNow(
    const std::string& dataset, const QueryFunctionSpec& spec) {
  const ServeKey want = ServeKey::From(dataset, spec);
  std::unique_ptr<RefreshTarget> target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const RefreshTarget& t : targets_) {
      if (ServeKey::From(t.dataset, t.monitor.spec()) == want) {
        target = std::make_unique<RefreshTarget>(t);
        break;
      }
    }
  }
  if (target == nullptr) {
    return Status::InvalidArgument("no refresh target for " +
                                   DisplayKey(dataset, spec));
  }
  std::lock_guard<std::mutex> run(run_mu_);
  RefreshOutcome out = RefreshTargetLocked(*target);
  MaybeCompactLocked(target->dataset);
  if (!out.probed) return Status::FailedPrecondition(out.message);
  return out;
}

std::vector<RefreshOutcome> RefreshController::RefreshAll() {
  std::vector<RefreshTarget> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    targets = targets_;
  }
  std::vector<RefreshOutcome> outcomes;
  outcomes.reserve(targets.size());
  std::lock_guard<std::mutex> run(run_mu_);
  for (RefreshTarget& t : targets) {
    outcomes.push_back(RefreshTargetLocked(t));
  }
  // Refresh swaps just advanced fold watermarks; sweep every streaming
  // dataset (targeted or not — exact-only datasets compact too) so delta
  // residency stays bounded under sustained ingest.
  for (const auto& [dataset, stats] : store_->DeltaStats()) {
    (void)stats;
    MaybeCompactLocked(dataset);
  }
  return outcomes;
}

void RefreshController::Start() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  loop_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(loop_mu_);
    while (!stop_requested_) {
      loop_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                        [this] { return stop_requested_; });
      if (stop_requested_) break;
      lock.unlock();
      RefreshAll();
      lock.lock();
    }
  });
}

void RefreshController::Stop() {
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!running_) return;
    stop_requested_ = true;
    running_ = false;
    joinable = std::move(loop_);
  }
  loop_cv_.notify_all();
  joinable.join();
}

RefreshStats RefreshController::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RefreshController::ExportMetrics(metrics::MetricsRegistry* registry,
                                      const std::string& prefix) const {
  RefreshStats s;
  std::map<std::string, double> mae;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    mae = last_mae_;
  }
  registry->SetCounter(prefix + "refresh_runs_total", s.runs,
                       "Drift-probe refresh passes over registered targets");
  registry->SetCounter(prefix + "refresh_swaps_total", s.swaps,
                       "Refreshes that registered a new sketch version");
  registry->SetCounter(prefix + "refresh_retrained_leaves_total",
                       s.retrained_leaves,
                       "Kd-tree leaves retrained across all swaps");
  registry->SetCounter(prefix + "refresh_failures_total", s.failures,
                       "Refreshes discarded (exception or out-of-bound)");
  registry->SetCounter(prefix + "refresh_demotions_total", s.demotions,
                       "Stores demoted after a refresh-failure streak");
  registry->SetCounter(prefix + "refresh_skipped_total", s.skipped,
                       "Passes where the drift probe was within bound");
  registry->SetCounter(
      prefix + "refresh_compactions_total", s.compactions,
      "Threshold-triggered delta compactions that folded rows into base");
  registry->SetCounter(
      prefix + "refresh_compaction_folded_rows_total",
      s.compaction_folded_rows,
      "Delta rows folded into base tables by controller compactions");
  if (metrics::LogHistogram* h = registry->GetHistogram(
          prefix + "refresh_duration_us",
          "Wall time of one refresh pass, microseconds")) {
    h->CopyFrom(refresh_duration_us_);
  }
  for (const auto& [store, v] : mae) {
    registry->SetGauge(
        prefix + "refresh_last_normalized_mae{store=\"" + store + "\"}", v,
        "Probe normalized MAE after the store's last refresh pass");
  }
}

}  // namespace serve
}  // namespace neurosketch
