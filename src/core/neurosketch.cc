#include "core/neurosketch.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>

#include "nn/serialize.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace neurosketch {

namespace {

// Trailer appended after the model blocks by Save(): precision tier plus
// the f32 validation record. Sketches written before the trailer existed
// simply end at the last model; Load treats that as f64. Flag bits in the
// precision word: bit 0 = f32 active, bit 1 = f32 plans compiled. Bits 2-3
// belong to an older format that Load still accepts (see LoadFrom).
constexpr uint32_t kPrecisionMagic = 0x4e535031;  // "NSP1"
constexpr size_t kPrecisionTrailerBytes =
    2 * sizeof(uint32_t) + 2 * sizeof(double);

bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Serializes lazy trainer rebuilds (EnsureTrainer on a const sketch).
// Process-wide rather than per-sketch so NeuroSketch keeps its implicit
// copy/move operations; the rebuild is a cold path (once per sketch after
// Load/ReleaseTrainer), so cross-sketch serialization is harmless.
std::mutex g_trainer_rebuild_mu;

}  // namespace

const char* PlanPrecisionName(PlanPrecision p) {
  switch (p) {
    case PlanPrecision::kF32:
      return "f32";
    case PlanPrecision::kF64:
      break;
  }
  return "f64";
}

// CI hook: NEUROSKETCH_FORCE_F32_PLANS=1 upgrades default-precision
// training to the f32 tier so the whole test suite exercises it.
bool ForceF32PlansFromEnv() {
  return EnvFlagSet("NEUROSKETCH_FORCE_F32_PLANS");
}

Result<NeuroSketch> NeuroSketch::Train(
    const std::vector<QueryInstance>& queries,
    const std::vector<double>& answers, const NeuroSketchConfig& config) {
  if (queries.size() != answers.size()) {
    return Status::InvalidArgument("queries/answers size mismatch");
  }
  // Drop undefined answers (e.g. AVG over an empty range).
  std::vector<QueryInstance> q_ok;
  std::vector<double> a_ok;
  q_ok.reserve(queries.size());
  a_ok.reserve(answers.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (std::isnan(answers[i])) continue;
    q_ok.push_back(queries[i]);
    a_ok.push_back(answers[i]);
  }
  if (q_ok.size() < 2) {
    return Status::InvalidArgument("need at least 2 defined training answers");
  }
  const size_t qdim = q_ok[0].dim();
  for (const auto& q : q_ok) {
    if (q.dim() != qdim) {
      return Status::InvalidArgument("inconsistent query dimensionality");
    }
  }

  NeuroSketch sketch;
  sketch.stats_.training_queries = q_ok.size();

  Timer part_timer;
  PartitionConfig pc;
  pc.tree_height = config.tree_height;
  pc.target_leaves = config.target_partitions;
  pc.aqc = config.aqc;
  pc.num_threads = config.train_threads;
  PartitionResult partition = PartitionQuerySpace(q_ok, a_ok, pc);
  sketch.tree_ = std::move(partition.tree);
  sketch.routing_doubles_ = sketch.tree_.EncodeRouting().size();
  sketch.stats_.leaf_aqc = std::move(partition.leaf_aqc);
  sketch.stats_.partition_seconds = part_timer.ElapsedSeconds();

  Timer train_timer;
  auto leaves = sketch.tree_.Leaves();
  sketch.stats_.num_partitions = leaves.size();
  sketch.models_.resize(leaves.size());
  sketch.plans_.resize(leaves.size());
  sketch.target_mean_.assign(leaves.size(), 0.0);
  sketch.target_scale_.assign(leaves.size(), 1.0);

  // Leaf models are independent: each derives its init and shuffle seeds
  // from its leaf id alone and writes only its own slots, so training them
  // concurrently on the shared pool reproduces the sequential build
  // bit-for-bit regardless of thread count or completion order.
  auto train_leaf = [&](size_t li) {
    const auto* leaf = leaves[li];
    const int id = leaf->leaf_id;
    const auto& ids = leaf->query_ids;
    nn::Mlp& model = sketch.models_[id];
    model = nn::Mlp(nn::MlpConfig::Paper(qdim, config.n_layers, config.l_first,
                                         config.l_rest),
                    config.seed + id);
    if (!ids.empty()) {
      // Per-leaf target standardization keeps the MSE well-scaled across
      // query functions with very different answer magnitudes.
      std::vector<double> targets;
      targets.reserve(ids.size());
      for (size_t i : ids) targets.push_back(a_ok[i]);
      const double mean = stats::Mean(targets);
      double scale = stats::Stddev(targets);
      if (scale <= 1e-12) scale = 1.0;
      sketch.target_mean_[id] = mean;
      sketch.target_scale_[id] = scale;

      Matrix inputs(ids.size(), qdim);
      Matrix outputs(ids.size(), 1);
      for (size_t i = 0; i < ids.size(); ++i) {
        const auto& q = q_ok[ids[i]];
        for (size_t jj = 0; jj < qdim; ++jj) inputs(i, jj) = q.q[jj];
        outputs(i, 0) = (a_ok[ids[i]] - mean) / scale;
      }
      nn::TrainConfig tc = config.train;
      tc.seed = config.train.seed + static_cast<uint64_t>(id) * 1000003ULL;
      nn::TrainRegressor(&model, inputs, outputs, tc);
    }
    // An untrained (empty-leaf) model still gets a plan: it predicts the
    // initialization's output, matching the previous behavior.
    sketch.plans_[id] = nn::CompiledMlp::FromMlp(model);
  };
  ThreadPool::Shared().ParallelFor(leaves.size(), config.train_threads,
                                   train_leaf);
  sketch.trainer_ready_.store(true);
  sketch.stats_.train_seconds = train_timer.ElapsedSeconds();

  Timer calib_timer;
  if (sketch.EnableRequestedTier(q_ok, config)) {
    sketch.stats_.calibrate_seconds = calib_timer.ElapsedSeconds();
  }
  return sketch;
}

bool NeuroSketch::EnableRequestedTier(
    const std::vector<QueryInstance>& validation,
    const NeuroSketchConfig& config) {
  if (config.plan_precision != PlanPrecision::kF32 && !ForceF32PlansFromEnv()) {
    return false;
  }
  // Compile the f32 tier and validate it over the workload; on a blown
  // error bound EnableF32 leaves the sketch serving f64.
  EnableF32(validation, config.f32_error_bound, config.train_threads);
  return true;
}

Status NeuroSketch::RetrainLeaves(const std::vector<int>& leaf_ids,
                                  const std::vector<QueryInstance>& queries,
                                  const std::vector<double>& answers,
                                  const NeuroSketchConfig& config) {
  if (!compiled()) {
    return Status::InvalidArgument("RetrainLeaves on an untrained sketch");
  }
  if (queries.size() != answers.size()) {
    return Status::InvalidArgument("queries/answers size mismatch");
  }
  std::vector<char> wanted(plans_.size(), 0);
  std::vector<int> ids;
  for (int id : leaf_ids) {
    if (id < 0 || static_cast<size_t>(id) >= plans_.size()) {
      return Status::InvalidArgument("leaf id out of range");
    }
    if (!wanted[id]) {
      wanted[id] = 1;
      ids.push_back(id);
    }
  }
  if (ids.empty()) return Status::OK();

  const size_t qdim = tree_.query_dim();
  std::vector<QueryInstance> q_ok;
  std::vector<double> a_ok;
  q_ok.reserve(queries.size());
  a_ok.reserve(answers.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (std::isnan(answers[i])) continue;
    if (queries[i].dim() != qdim) {
      return Status::InvalidArgument("inconsistent query dimensionality");
    }
    q_ok.push_back(queries[i]);
    a_ok.push_back(answers[i]);
  }
  if (q_ok.size() < 2) {
    return Status::InvalidArgument("need at least 2 defined training answers");
  }

  // Re-gather each retrained leaf's training set by routing through the
  // FIXED tree — the partition is untouched, which is the whole point of
  // a leaf-granular refresh (readers keep routing identically; only the
  // flagged leaves' parameters move).
  std::vector<std::vector<size_t>> members(plans_.size());
  for (size_t i = 0; i < q_ok.size(); ++i) {
    const auto* leaf = tree_.Route(q_ok[i]);
    if (leaf == nullptr || leaf->leaf_id < 0 ||
        static_cast<size_t>(leaf->leaf_id) >= plans_.size()) {
      continue;
    }
    if (wanted[leaf->leaf_id]) members[leaf->leaf_id].push_back(i);
  }

  // The untouched leaves' trainable forms must survive the partial
  // rebuild (Save and AnswerScalar read them all); materialize them
  // before overwriting the retrained slots.
  EnsureTrainer();

  // Identical per-leaf training to Train's train_leaf: same init seed,
  // same standardization (stddev floored to 1), same shuffle-seed
  // derivation — retraining a leaf here is bit-identical to a clean
  // rebuild of that leaf over the same partition and training set.
  auto retrain_leaf = [&](size_t k) {
    const int id = ids[k];
    const auto& idxs = members[id];
    nn::Mlp& model = models_[id];
    model = nn::Mlp(nn::MlpConfig::Paper(qdim, config.n_layers, config.l_first,
                                         config.l_rest),
                    config.seed + id);
    target_mean_[id] = 0.0;
    target_scale_[id] = 1.0;
    if (!idxs.empty()) {
      std::vector<double> targets;
      targets.reserve(idxs.size());
      for (size_t i : idxs) targets.push_back(a_ok[i]);
      const double mean = stats::Mean(targets);
      double scale = stats::Stddev(targets);
      if (scale <= 1e-12) scale = 1.0;
      target_mean_[id] = mean;
      target_scale_[id] = scale;

      Matrix inputs(idxs.size(), qdim);
      Matrix outputs(idxs.size(), 1);
      for (size_t i = 0; i < idxs.size(); ++i) {
        const auto& q = q_ok[idxs[i]];
        for (size_t jj = 0; jj < qdim; ++jj) inputs(i, jj) = q.q[jj];
        outputs(i, 0) = (a_ok[idxs[i]] - mean) / scale;
      }
      nn::TrainConfig tc = config.train;
      tc.seed = config.train.seed + static_cast<uint64_t>(id) * 1000003ULL;
      nn::TrainRegressor(&model, inputs, outputs, tc);
    }
    plans_[id] = nn::CompiledMlp::FromMlp(model);
  };
  ThreadPool::Shared().ParallelFor(ids.size(), config.train_threads,
                                   retrain_leaf);
  trainer_ready_.store(true);

  // The f32 tier was validated against the OLD leaf parameters; serving
  // it over the new ones would be unvalidated. Drop it and re-run the
  // same validate-or-fallback step as Train — the divergence record is
  // whole-sketch state, so the replay covers every leaf, not just the
  // retrained ones.
  std::vector<nn::CompiledMlpT<float>>().swap(plans_f32_);
  f32_available_ = false;
  precision_ = PlanPrecision::kF64;
  EnableRequestedTier(q_ok, config);
  return Status::OK();
}

Result<NeuroSketch> NeuroSketch::TrainFromEngine(
    const ExactEngine& engine, const QueryFunctionSpec& spec,
    WorkloadGenerator* workload, size_t num_train,
    const NeuroSketchConfig& config) {
  std::vector<QueryInstance> queries =
      workload->GenerateMany(num_train, &engine, &spec);
  std::vector<double> answers = engine.AnswerBatch(spec, queries);
  return Train(queries, answers, config);
}

bool NeuroSketch::EnableF32(const std::vector<QueryInstance>& validation,
                            double error_bound, size_t num_threads) {
  if (!compiled()) return false;
  // Per-leaf narrowing is independent and deterministic; compile the tier
  // concurrently on the shared pool.
  ThreadPool& pool = ThreadPool::Shared();
  plans_f32_.resize(plans_.size());
  pool.ParallelFor(plans_.size(), num_threads, [&](size_t i) {
    plans_f32_[i] = nn::CompiledMlpT<float>::FromPlan(plans_[i]);
  });
  // Measure the worst |f32 - f64| divergence in standardized units (the
  // raw network output, before per-leaf rescaling) so the bound does not
  // depend on the magnitude of the query function's answers. Queries
  // shard into contiguous ranges, each shard keeps a local max and count,
  // and the shards fold in fixed order below. max and + are exact, so the
  // record is bit-identical to a serial sweep for any shard layout — the
  // determinism contract construction_parallel_test pins.
  const size_t shards = pool.NumShards(validation.size(), num_threads);
  std::vector<double> shard_max(shards, 0.0);
  std::vector<size_t> shard_measured(shards, 0);
  pool.ParallelForShards(
      validation.size(), num_threads, [&](size_t s, size_t begin, size_t end) {
        nn::Workspace& ws = nn::Workspace::ThreadLocal();
        double local_max = 0.0;
        size_t local_measured = 0;
        for (size_t v = begin; v < end; ++v) {
          const auto& q = validation[v];
          const auto* leaf = tree_.Route(q);
          if (leaf == nullptr || leaf->leaf_id < 0 ||
              static_cast<size_t>(leaf->leaf_id) >= plans_.size()) {
            continue;
          }
          const int id = leaf->leaf_id;
          const double raw64 = plans_[id].PredictOne(q.q.data(), &ws);
          const double raw32 = plans_f32_[id].PredictOne(q.q.data(), &ws);
          const double div = std::fabs(raw32 - raw64);
          if (div > local_max) local_max = div;
          ++local_measured;
        }
        shard_max[s] = local_max;
        shard_measured[s] = local_measured;
      });
  double max_div = 0.0;
  size_t measured = 0;
  for (size_t s = 0; s < shards; ++s) {
    if (shard_max[s] > max_div) max_div = shard_max[s];
    measured += shard_measured[s];
  }
  f32_error_bound_ = error_bound;
  f32_max_divergence_ = max_div;
  if (measured == 0 || !(max_div <= error_bound)) {
    // Blown bound, NaN divergence, or no validation coverage at all: f32
    // is never served blind — drop the tier, keep serving f64.
    plans_f32_.clear();
    f32_available_ = false;
    precision_ = PlanPrecision::kF64;
    return false;
  }
  f32_available_ = true;
  precision_ = PlanPrecision::kF32;
  return true;
}

Status NeuroSketch::SelectPrecision(PlanPrecision precision) {
  // Materializes the tier if it is carried but released (lazy Load /
  // ReleaseTier); fails when the sketch does not carry it at all.
  NS_RETURN_NOT_OK(EnsureTier(precision));
  precision_ = precision;
  return Status::OK();
}

Status NeuroSketch::EnsureTier(PlanPrecision precision) {
  if (precision == PlanPrecision::kF32) {
    if (!f32_available_) {
      return Status::InvalidArgument(
          "no f32 plans compiled: train with plan_precision = kF32 or call "
          "EnableF32");
    }
    if (plans_f32_.empty()) {
      // Deterministic narrowing of the resident f64 parameters — the
      // exact rebuild Load performs, so the plans match the validated
      // ones bit-for-bit.
      plans_f32_.resize(plans_.size());
      for (size_t i = 0; i < plans_.size(); ++i) {
        plans_f32_[i] = nn::CompiledMlpT<float>::FromPlan(plans_[i]);
      }
    }
    return Status::OK();
  }
  // kF64: the canonical parameter store, always resident on a warm sketch.
  return Status::OK();
}

size_t NeuroSketch::ReleaseTier(PlanPrecision precision) {
  // The active tier and the f64 parameter store are not releasable: the
  // former would break Answer's invariant that the active tier is
  // materialized, the latter is what every rebuild derives from (shedding
  // it means going cold — dropping the whole sketch object).
  if (precision == precision_ || precision == PlanPrecision::kF64) return 0;
  const size_t freed = PlanBytes(precision);
  std::vector<nn::CompiledMlpT<float>>().swap(plans_f32_);
  return freed;
}

void NeuroSketch::EnsureTrainer() const {
  if (trainer_ready_.load()) return;
  std::lock_guard<std::mutex> lock(g_trainer_rebuild_mu);
  if (trainer_ready_.load()) return;
  // ToMlp round-trips the f64 parameters bit-exactly, so the rebuilt
  // reference models answer identically to the originally trained ones.
  std::vector<nn::Mlp> rebuilt;
  rebuilt.reserve(plans_.size());
  for (const auto& p : plans_) rebuilt.push_back(p.ToMlp());
  models_ = std::move(rebuilt);
  trainer_ready_.store(true);
}

size_t NeuroSketch::ReleaseTrainer() {
  const size_t freed = TrainerBytes();
  std::vector<nn::Mlp>().swap(models_);
  trainer_ready_.store(false);
  return freed;
}

size_t NeuroSketch::TrainerBytes() const {
  if (!trainer_ready_.load()) return 0;
  // Each trainable layer holds its parameters plus same-shaped gradient
  // buffers; the cached forward activations are batch-sized transients
  // (empty outside a training step) and are not counted.
  size_t bytes = 0;
  for (const auto& m : models_) {
    bytes += 2 * m.num_params() * sizeof(double);
  }
  return bytes;
}

size_t NeuroSketch::ResidentBytes() const {
  size_t bytes = routing_doubles_ * sizeof(double);
  bytes += 2 * plans_.size() * sizeof(double);  // per-leaf mean + scale
  bytes += PlanBytes(PlanPrecision::kF64);
  bytes += PlanBytes(PlanPrecision::kF32);
  bytes += TrainerBytes();
  return bytes;
}

double NeuroSketch::Answer(const QueryInstance& q) const {
  const auto* leaf = tree_.Route(q);
  if (leaf == nullptr || leaf->leaf_id < 0 ||
      static_cast<size_t>(leaf->leaf_id) >= plans_.size()) {
    return std::nan("");
  }
  const int id = leaf->leaf_id;
  nn::Workspace& ws = nn::Workspace::ThreadLocal();
  const double raw = OnTier(precision_, [&](const auto& plans) {
    return plans[id].PredictOne(q.q.data(), &ws);
  });
  return raw * target_scale_[id] + target_mean_[id];
}

double NeuroSketch::AnswerScalar(const QueryInstance& q) const {
  // The reference models rebuild lazily after Load/ReleaseTrainer —
  // bit-exact, so callers cannot tell whether they were kept resident.
  EnsureTrainer();
  const auto* leaf = tree_.Route(q);
  if (leaf == nullptr || leaf->leaf_id < 0 ||
      static_cast<size_t>(leaf->leaf_id) >= models_.size()) {
    return std::nan("");
  }
  const int id = leaf->leaf_id;
  const double raw = models_[id].PredictOne(q.q);
  return raw * target_scale_[id] + target_mean_[id];
}

std::vector<double> NeuroSketch::AnswerBatch(
    const std::vector<QueryInstance>& queries) const {
  std::vector<double> out(queries.size());
  AnswerBatchVectorizedTo(queries, out.data());
  return out;
}

namespace {

// One leaf's bucket of a vectorized batch: gather the bucket's inputs
// straight into the arena as the plan's element type (for f32, casting
// once per element during the copy instead of staging doubles and
// re-reading them for a separate narrowing pass), run one batched forward
// pass, and scatter the de-standardized answers back by query index. Per
// batch cost is bookkeeping only; the model math never allocates.
template <typename T>
void AnswerBucket(const nn::CompiledMlpT<T>& plan,
                  const std::vector<QueryInstance>& queries,
                  const std::vector<size_t>& ids, size_t qdim, double scale,
                  double mean, nn::Workspace* ws, double* out) {
  T* inputs = ws->Input<T>(ids.size() * qdim);
  for (size_t r = 0; r < ids.size(); ++r) {
    const auto& q = queries[ids[r]].q;
    T* dst = inputs + r * qdim;
    for (size_t j = 0; j < qdim; ++j) dst[j] = static_cast<T>(q[j]);
  }
  double* pred = ws->Output<double>(ids.size());
  plan.PredictBatchNative(inputs, ids.size(), ws, pred);
  for (size_t r = 0; r < ids.size(); ++r) {
    out[ids[r]] = pred[r] * scale + mean;
  }
}

}  // namespace

void NeuroSketch::AnswerBatchVectorizedTo(
    const std::vector<QueryInstance>& queries, double* out) const {
  if (queries.empty()) return;
  if (queries.size() == 1) {
    // Serve fast path: a single-query "batch" skips bucket bookkeeping and
    // runs the zero-allocation compiled plan directly.
    out[0] = Answer(queries[0]);
    return;
  }
  for (size_t i = 0; i < queries.size(); ++i) out[i] = std::nan("");
  // Bucket query indices by leaf model, staging the buckets in the arena
  // so a warm thread performs zero heap allocations per batch.
  nn::Workspace& ws = nn::Workspace::ThreadLocal();
  std::vector<std::vector<size_t>>& buckets = ws.Buckets(plans_.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto* leaf = tree_.Route(queries[i]);
    if (leaf == nullptr || leaf->leaf_id < 0 ||
        static_cast<size_t>(leaf->leaf_id) >= plans_.size()) {
      continue;
    }
    buckets[leaf->leaf_id].push_back(i);
  }
  const size_t qdim = tree_.query_dim();
  OnTier(precision_, [&](const auto& plans) {
    for (size_t m = 0; m < plans.size(); ++m) {
      if (buckets[m].empty()) continue;
      AnswerBucket(plans[m], queries, buckets[m], qdim, target_scale_[m],
                   target_mean_[m], &ws, out);
    }
  });
}

size_t NeuroSketch::PlanBytes(PlanPrecision precision) const {
  return OnTier(precision, [](const auto& plans) {
    size_t bytes = 0;
    for (const auto& p : plans) bytes += p.SizeBytes();
    return bytes;
  });
}

void NeuroSketch::ExportBuildMetrics(metrics::MetricsRegistry* registry,
                                     const std::string& prefix) const {
  registry->SetGauge(prefix + "partition_seconds", stats_.partition_seconds,
                     "Construction phase wall time: kd-tree build + AQC merge");
  registry->SetGauge(prefix + "train_seconds", stats_.train_seconds,
                     "Construction phase wall time: per-leaf MLP training");
  registry->SetGauge(prefix + "calibrate_seconds", stats_.calibrate_seconds,
                     "Construction phase wall time: f32 "
                     "compile-and-validate replay (0 for plain f64)");
  registry->SetGauge(prefix + "num_partitions",
                     static_cast<double>(stats_.num_partitions),
                     "Final leaf count after the AQC merge");
  registry->SetGauge(prefix + "training_queries",
                     static_cast<double>(stats_.training_queries),
                     "Training-set size after NaN drops");
  registry->SetGauge(prefix + "size_bytes", static_cast<double>(SizeBytes()),
                     "Serialized sketch size (the paper's storage metric)");
  registry->SetGauge(prefix + "resident_bytes",
                     static_cast<double>(ResidentBytes()),
                     "In-memory sketch footprint: materialized tiers + "
                     "trainer (moves with EnsureTier/ReleaseTier)");
  double aqc_max = 0.0, aqc_sum = 0.0;
  for (double a : stats_.leaf_aqc) {
    aqc_sum += a;
    if (a > aqc_max) aqc_max = a;
  }
  registry->SetGauge(prefix + "leaf_aqc_max", aqc_max,
                     "Max per-leaf AQC after merging");
  registry->SetGauge(
      prefix + "leaf_aqc_mean",
      stats_.leaf_aqc.empty() ? 0.0 : aqc_sum / stats_.leaf_aqc.size());
  registry->SetGauge(prefix + "active_precision",
                     static_cast<double>(precision_),
                     "Serving tier: 0 = f64, 1 = f32");
  for (PlanPrecision tier : {PlanPrecision::kF64, PlanPrecision::kF32}) {
    registry->SetGauge(prefix + "plan_bytes{tier=\"" +
                           std::string(PlanPrecisionName(tier)) + "\"}",
                       static_cast<double>(PlanBytes(tier)),
                       "Resident compiled-plan bytes per precision tier");
  }
  // The validate-or-fallback record: a tier whose measured divergence
  // exceeds its bound was dropped (fell back to f64), which reads here
  // as divergence > bound with zero plan bytes for the tier.
  registry->SetGauge(prefix + "f32_max_divergence", f32_max_divergence_,
                     "Max |f32 - f64| over the validation workload, "
                     "standardized units");
  registry->SetGauge(prefix + "f32_error_bound", f32_error_bound_);
}

size_t NeuroSketch::SizeBytes() const {
  // Exactly the bytes Save() writes, in the same order: header fields,
  // routing block, per-leaf scales, serialized models, precision trailer.
  size_t bytes = 3 * sizeof(uint64_t);  // qdim, routing size, model count
  bytes += tree_.EncodeRouting().size() * sizeof(double);
  bytes += 2 * plans_.size() * sizeof(double);  // per-leaf mean + scale
  for (const auto& p : plans_) bytes += nn::SerializedModelBytes(p);
  bytes += kPrecisionTrailerBytes;
  return bytes;
}

Status NeuroSketch::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path);
  NS_RETURN_NOT_OK(SaveTo(&out));
  if (!out.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Status NeuroSketch::SaveTo(std::ostream* out_stream) const {
  std::ostream& out = *out_stream;
  const uint64_t qdim = tree_.query_dim();
  out.write(reinterpret_cast<const char*>(&qdim), sizeof(qdim));
  const std::vector<double> routing = tree_.EncodeRouting();
  const uint64_t rsize = routing.size();
  out.write(reinterpret_cast<const char*>(&rsize), sizeof(rsize));
  out.write(reinterpret_cast<const char*>(routing.data()),
            static_cast<std::streamsize>(rsize * sizeof(double)));
  // plans_ is what the loop below serializes; counting it (rather than
  // models_) keeps the header honest if the two vectors ever diverge.
  const uint64_t nmodels = plans_.size();
  out.write(reinterpret_cast<const char*>(&nmodels), sizeof(nmodels));
  out.write(reinterpret_cast<const char*>(target_mean_.data()),
            static_cast<std::streamsize>(nmodels * sizeof(double)));
  out.write(reinterpret_cast<const char*>(target_scale_.data()),
            static_cast<std::streamsize>(nmodels * sizeof(double)));
  // Serialize from the compiled plans: the flat buffer is already in
  // on-disk parameter order, so each model is one contiguous write and the
  // bytes are identical to SaveMlp on the corresponding Mlp. Parameters
  // are always stored in f64 — the f32 tier is a deterministic narrowing
  // rebuilt on Load.
  for (const auto& p : plans_) {
    NS_RETURN_NOT_OK(nn::SaveCompiledMlp(p, &out));
  }
  const uint32_t magic = kPrecisionMagic;
  // Bit 0: f32 is the active serving tier. Bit 1: the sketch carries the
  // f32 tier (it may be carried while f64 is temporarily selected, or
  // released from memory; the tier must survive the round-trip either
  // way). Carried, not materialized: a released tier serializes
  // identically because the rebuild is a pure function of the f64
  // parameters.
  const uint32_t precision = (precision_ == PlanPrecision::kF32 ? 1u : 0u) |
                             (f32_available_ ? 2u : 0u);
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&precision), sizeof(precision));
  out.write(reinterpret_cast<const char*>(&f32_error_bound_),
            sizeof(f32_error_bound_));
  out.write(reinterpret_cast<const char*>(&f32_max_divergence_),
            sizeof(f32_max_divergence_));
  if (!out.good()) return Status::IOError("sketch write failed");
  return Status::OK();
}

Result<NeuroSketch> NeuroSketch::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadFrom(&in);
}

Result<NeuroSketch> NeuroSketch::LoadFrom(std::istream* in_stream) {
  std::istream& in = *in_stream;
  uint64_t qdim = 0, rsize = 0, nmodels = 0;
  in.read(reinterpret_cast<char*>(&qdim), sizeof(qdim));
  in.read(reinterpret_cast<char*>(&rsize), sizeof(rsize));
  if (!in.good()) return Status::IOError("truncated sketch header");
  // Every length field is checked against the bytes left before it sizes
  // an allocation: a hostile count must fail as a Status, not abort.
  NS_RETURN_NOT_OK(
      nn::CheckStreamHolds(&in, rsize, sizeof(double), "sketch routing"));
  std::vector<double> routing(rsize);
  in.read(reinterpret_cast<char*>(routing.data()),
          static_cast<std::streamsize>(rsize * sizeof(double)));
  in.read(reinterpret_cast<char*>(&nmodels), sizeof(nmodels));
  if (!in.good()) return Status::IOError("truncated sketch routing");

  NeuroSketch sketch;
  NS_ASSIGN_OR_RETURN(sketch.tree_,
                      QuerySpaceKdTree::DecodeRouting(routing, qdim));
  sketch.routing_doubles_ = routing.size();
  NS_RETURN_NOT_OK(nn::CheckStreamHolds(&in, nmodels, 2 * sizeof(double),
                                        "sketch scales"));
  sketch.target_mean_.resize(nmodels);
  sketch.target_scale_.resize(nmodels);
  in.read(reinterpret_cast<char*>(sketch.target_mean_.data()),
          static_cast<std::streamsize>(nmodels * sizeof(double)));
  in.read(reinterpret_cast<char*>(sketch.target_scale_.data()),
          static_cast<std::streamsize>(nmodels * sizeof(double)));
  if (!in.good()) return Status::IOError("truncated sketch scales");
  sketch.plans_.reserve(nmodels);
  for (uint64_t i = 0; i < nmodels; ++i) {
    // Compile-on-load: the plan is the deserialization target (one
    // contiguous parameter read). The trainable form is NOT rehydrated
    // here — it rebuilds lazily (bit-exactly) on the first AnswerScalar,
    // so a loaded sketch comes up at its lean serving footprint.
    NS_ASSIGN_OR_RETURN(nn::CompiledMlp plan, nn::LoadCompiledMlp(&in));
    sketch.plans_.push_back(std::move(plan));
  }
  sketch.stats_.num_partitions = nmodels;

  // Optional precision trailer; sketches written before it existed end at
  // the last model (a clean EOF here) and load as f64.
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in.good() && in.gcount() != 0) {
    // A partial magic read is a truncated trailer, not a legacy file.
    return Status::IOError("truncated precision trailer");
  }
  if (in.good()) {
    if (magic != kPrecisionMagic) {
      return Status::InvalidArgument("bad precision trailer in sketch file");
    }
    uint32_t precision = 0;
    in.read(reinterpret_cast<char*>(&precision), sizeof(precision));
    in.read(reinterpret_cast<char*>(&sketch.f32_error_bound_),
            sizeof(sketch.f32_error_bound_));
    in.read(reinterpret_cast<char*>(&sketch.f32_max_divergence_),
            sizeof(sketch.f32_max_divergence_));
    if (!in.good()) return Status::IOError("truncated precision trailer");
    if (precision > 15u) {
      return Status::InvalidArgument("unknown plan precision in sketch file");
    }
    // Bits 2-3 (and the block they announce) come from sketches written
    // while an int8 plan tier existed: bit 2 = int8 active, bit 3 = int8
    // carried. That tier is retired; its calibration block is parsed
    // with the original truncation and shape checks and discarded, and an
    // int8-active image comes up on f32 when it carries f32, else on f64.
    const bool active_f32 = (precision & 1u) != 0;
    const bool has_f32 = (precision & 2u) != 0 || active_f32;
    const bool has_int8 = (precision & 12u) != 0;
    // Carried tiers are recorded but NOT materialized here — only the
    // active tier's plans are rebuilt below, so a loaded sketch starts
    // at its lean serving footprint. EnsureTier/SelectPrecision rebuild
    // an inactive carried tier on demand, bit-identically.
    sketch.f32_available_ = has_f32;
    if (has_int8) {
      // int8 bound + measured divergence, then per leaf a layer count and
      // that many per-layer absmax doubles (0 layers = uncovered leaf).
      double record[2];
      in.read(reinterpret_cast<char*>(record), sizeof(record));
      if (!in.good()) return Status::IOError("truncated int8 calibration");
      for (size_t i = 0; i < sketch.plans_.size(); ++i) {
        uint64_t nl = 0;
        in.read(reinterpret_cast<char*>(&nl), sizeof(nl));
        if (!in.good()) return Status::IOError("truncated int8 calibration");
        if (nl == 0) continue;
        if (nl != sketch.plans_[i].layers().size()) {
          return Status::InvalidArgument(
              "int8 calibration does not match model architecture");
        }
        std::vector<double> absmax(nl);
        in.read(reinterpret_cast<char*>(absmax.data()),
                static_cast<std::streamsize>(nl * sizeof(double)));
        if (!in.good()) return Status::IOError("truncated int8 calibration");
      }
    }
    const bool narrow_active = (precision & 5u) != 0;  // f32 or int8
    sketch.precision_ = has_f32 && narrow_active ? PlanPrecision::kF32
                                                 : PlanPrecision::kF64;
    // Uphold the serving invariant: the ACTIVE tier is always
    // materialized (Answer never checks).
    NS_RETURN_NOT_OK(sketch.EnsureTier(sketch.precision_));
  }
  return sketch;
}

}  // namespace neurosketch
