// NeuroSketch (paper Sec. 4): the query-specialized neural framework.
//
// Preprocessing (Fig. 4): (1) partition & index the query space with a
// kd-tree (Alg. 2); (2) merge easy leaves using the AQC complexity proxy
// (Alg. 3); (3) train one MLP per remaining leaf on (query, answer) pairs
// (Alg. 4). Query time (Alg. 5): route the query instance down the kd-tree
// and run one forward pass.
#ifndef NEUROSKETCH_CORE_NEUROSKETCH_H_
#define NEUROSKETCH_CORE_NEUROSKETCH_H_

#include <atomic>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/partitioner.h"
#include "index/kdtree.h"
#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/workload.h"
#include "util/metrics.h"
#include "util/status.h"

namespace neurosketch {
namespace internal {

/// \brief An atomic<bool> that is copyable/movable by value so classes
/// holding one keep their implicit copy and move operations. Copies
/// transfer the value, not any in-flight synchronization — fine for
/// "already materialized" latches whose protected state is copied along
/// with the flag in the same (externally synchronized) operation.
class MovableFlag {
 public:
  MovableFlag() = default;
  explicit MovableFlag(bool v) : v_(v) {}
  MovableFlag(const MovableFlag& o) : v_(o.load()) {}
  MovableFlag& operator=(const MovableFlag& o) {
    store(o.load());
    return *this;
  }
  bool load() const { return v_.load(std::memory_order_acquire); }
  void store(bool v) { v_.store(v, std::memory_order_release); }

 private:
  std::atomic<bool> v_{false};
};

}  // namespace internal

/// \brief Numeric tier the compiled inference plans execute in. kF64 is
/// the accuracy reference (bit-identical to the scalar Mlp path); kF32 is
/// the opt-in fast tier: half the flat-buffer footprint, twice the SIMD
/// lanes, validated against the f64 reference before it is allowed to
/// serve (falling back to f64 when out of bound).
enum class PlanPrecision { kF64 = 0, kF32 = 1 };

const char* PlanPrecisionName(PlanPrecision p);

/// \brief True when NEUROSKETCH_FORCE_F32_PLANS is set (CI hook): Train
/// upgrades default-precision (kF64) requests to the f32 tier. Exposed so
/// tests can key their expectations off the same predicate Train uses.
bool ForceF32PlansFromEnv();

struct NeuroSketchConfig {
  /// Partitioning (paper defaults: height 4, merge to s = 8 leaves).
  size_t tree_height = 4;
  size_t target_partitions = 8;
  AqcOptions aqc;

  /// Architecture (paper defaults: 5 layers, first 60 units, rest 30).
  size_t n_layers = 5;
  size_t l_first = 60;
  size_t l_rest = 30;

  nn::TrainConfig train;
  uint64_t seed = 17;

  /// Construction parallelism for every phase of Train — the kd-tree
  /// partition/merge, per-leaf training, and the f32 validation replay —
  /// on the shared pool: 0 = one job per hardware thread, 1 = sequential,
  /// n = at most n concurrent workers. Results are bit-identical for every
  /// setting: tree splits are pure functions of each node's query set,
  /// each leaf derives its init and shuffle seeds from its leaf id alone,
  /// and the sharded validation reduction (max / counts) is exact
  /// regardless of shard boundaries (see docs/ARCHITECTURE.md,
  /// "Construction pipeline").
  size_t train_threads = 0;

  /// Serving precision for the compiled plans. kF32 compiles both tiers,
  /// measures the max |f32 - f64| divergence over the training workload,
  /// and serves f32 only if it stays within `f32_error_bound`; otherwise
  /// the sketch automatically falls back to f64. (The environment
  /// variable NEUROSKETCH_FORCE_F32_PLANS=1 upgrades kF64 requests so CI
  /// can run the whole suite on the f32 tier.)
  PlanPrecision plan_precision = PlanPrecision::kF64;

  /// Max tolerated |f32 - f64| divergence, measured in standardized (per-
  /// leaf z-score) units — the space the MLPs are trained in — so the
  /// bound is scale-free across query functions. Divergence in answer
  /// units is this times the leaf's target scale. Typical measured values
  /// are ~1e-6..1e-5; the default leaves two orders of magnitude headroom
  /// while still catching pathological f32 blow-ups.
  double f32_error_bound = 1e-3;
};

/// \brief A trained NeuroSketch for one query function.
class NeuroSketch {
 public:
  /// Per-phase wall times of the construction pipeline. Every phase runs
  /// on the shared pool under `NeuroSketchConfig::train_threads`:
  /// partition (kd-tree build + AQC merge), train (per-leaf MLP training +
  /// plan compilation), calibrate (the f32 compile-and-validate replay;
  /// 0 when the sketch trains at the default f64 precision).
  struct BuildStats {
    double partition_seconds = 0.0;
    double train_seconds = 0.0;
    double calibrate_seconds = 0.0;
    std::vector<double> leaf_aqc;  // per final leaf
    size_t num_partitions = 0;
    size_t training_queries = 0;
  };

  NeuroSketch() = default;

  /// \brief Train from a precomputed training set. `answers[i]` must be
  /// f_D(queries[i]); NaN answers are dropped. All queries must share the
  /// same dimensionality.
  static Result<NeuroSketch> Train(const std::vector<QueryInstance>& queries,
                                   const std::vector<double>& answers,
                                   const NeuroSketchConfig& config);

  /// \brief Convenience: generate `num_train` queries from `workload`,
  /// answer them exactly with `engine`, then train.
  static Result<NeuroSketch> TrainFromEngine(const ExactEngine& engine,
                                             const QueryFunctionSpec& spec,
                                             WorkloadGenerator* workload,
                                             size_t num_train,
                                             const NeuroSketchConfig& config);

  /// \brief Partial rebuild for the streaming refresh path: retrain only
  /// `leaf_ids` on the FIXED kd-tree partition, leaving every other
  /// leaf's parameters untouched bit-for-bit. `answers[i]` must be
  /// f_D(queries[i]) on the *current* data (base + delta); queries route
  /// through the existing tree to re-gather each leaf's training set, the
  /// leaf's target standardization is recomputed, and its model retrains
  /// with the identical seed derivation Train uses (init seed
  /// `config.seed + leaf_id`, shuffle seed `config.train.seed +
  /// leaf_id * 1000003`), so retraining leaf L here is bit-identical to
  /// what a clean rebuild over the same partition would produce for L.
  /// Runs per-leaf training in parallel on the shared pool under
  /// `config.train_threads`. The f32 tier was validated against the old
  /// leaf models, so it is dropped and rebuilt through the same
  /// validate-or-fallback step as Train over `queries`;
  /// SizeBytes()==Save() stays pinned throughout. NOT thread-safe with
  /// concurrent Answer calls — the serving path retrains a copy and
  /// atomically swaps it into the store.
  Status RetrainLeaves(const std::vector<int>& leaf_ids,
                       const std::vector<QueryInstance>& queries,
                       const std::vector<double>& answers,
                       const NeuroSketchConfig& config);

  /// \brief Alg. 5: answer one query with a kd-tree route + forward pass.
  /// Runs on the compiled plan of the active precision tier: zero heap
  /// allocations once the calling thread's workspace is warm.
  double Answer(const QueryInstance& q) const;

  /// \brief Reference implementation of Answer on the uncompiled Mlp
  /// (Matrix-allocating scalar path, always f64). Bit-identical to Answer
  /// when the active precision is kF64; kept for golden equivalence tests,
  /// f32 validation, and scalar-vs-plan benchmarks.
  double AnswerScalar(const QueryInstance& q) const;

  /// \brief Answer a batch: allocating wrapper over
  /// AnswerBatchVectorizedTo. Bit-identical to calling Answer per query.
  std::vector<double> AnswerBatch(
      const std::vector<QueryInstance>& queries) const;

  /// \brief Batched answering into a caller-owned buffer: routes all
  /// queries first, then runs one batched forward pass per partition model,
  /// writing queries.size() answers to `out`. Bit-identical to Answer per
  /// query. All bucketing scratch lives in the thread-local workspace
  /// arena: zero heap allocations once the calling thread's arena is warm.
  void AnswerBatchVectorizedTo(const std::vector<QueryInstance>& queries,
                               double* out) const;

  /// \brief Serialized model size in bytes — the paper's storage metric.
  /// Exactly the number of bytes Save() writes. Independent of which
  /// tiers happen to be materialized in memory (ResidentBytes() tracks
  /// that): parameters serialize in f64 with tier metadata either way.
  size_t SizeBytes() const;

  /// \brief Bytes this sketch currently holds in memory: the routing
  /// block, per-leaf scales, every *materialized* plan tier, and (when
  /// resident) the trainable Mlp forms
  /// (parameters + gradient buffers; training activation caches are
  /// transient and excluded). Unlike SizeBytes() this moves with
  /// EnsureTier/ReleaseTier/ReleaseTrainer — it is the admission unit of
  /// the serving buffer pool.
  size_t ResidentBytes() const;

  size_t num_partitions() const { return plans_.size(); }
  const BuildStats& stats() const { return stats_; }
  size_t query_dim() const { return tree_.query_dim(); }
  /// \brief The routing kd-tree (read-only). Lets tests and tools compare
  /// partitions structurally (e.g. EncodeRouting between builds).
  const QuerySpaceKdTree& tree() const { return tree_; }

  /// \brief True once every leaf model has a compiled inference plan
  /// (always the case after Train or Load).
  bool compiled() const { return !plans_.empty(); }

  /// \brief The precision tier Answer / AnswerBatch* currently serve from.
  PlanPrecision plan_precision() const { return precision_; }
  /// \brief True when the sketch *carries* the tier: validated at train
  /// time and deterministically rebuildable from the f64 parameters by
  /// narrowing. Carrying a tier does not imply it is materialized — see
  /// TierResident / EnsureTier / ReleaseTier.
  bool has_f32_plans() const { return f32_available_; }

  /// \brief True when the tier's compiled plans are resident right now.
  /// kF64 plans are the canonical in-memory parameter store and are
  /// always resident on a warm sketch.
  bool TierResident(PlanPrecision precision) const {
    return precision == PlanPrecision::kF32 ? !plans_f32_.empty()
                                            : !plans_.empty();
  }

  /// \brief True when the trainable Mlp forms (the scalar reference path)
  /// are resident. Train leaves them resident; Load does not — they
  /// rebuild lazily (bit-exactly, via CompiledMlp::ToMlp) on the first
  /// AnswerScalar, or explicitly via EnsureTrainer.
  bool trainer_resident() const { return trainer_ready_.load(); }
  /// \brief Max |f32 - f64| divergence measured by the last f32
  /// validation pass, in standardized units (0 when never validated).
  double f32_max_divergence() const { return f32_max_divergence_; }
  double f32_error_bound() const { return f32_error_bound_; }
  /// \brief Resident bytes of a tier's compiled flat buffers (0 when that
  /// tier is not materialized). The f32 tier is half the f64 tier.
  size_t PlanBytes(PlanPrecision precision) const;

  /// \brief Materialize a carried tier's compiled plans if they are not
  /// resident: f32 narrows the f64 parameters — deterministic, so the
  /// rebuilt plans are bit-identical to the ones Train validated.
  /// InvalidArgument when the sketch does not carry the tier (never
  /// validated, or validation dropped it). kF64 is always resident on a
  /// warm sketch and returns OK. NOT thread-safe: like SelectPrecision,
  /// tier mutation must happen-before concurrent Answer calls (the serve
  /// path materializes before publishing a faulted-in sketch).
  Status EnsureTier(PlanPrecision precision);

  /// \brief Drop a materialized tier's compiled plans, returning the
  /// bytes freed (ResidentBytes() shrinks by exactly that much). The
  /// tier stays carried — EnsureTier rebuilds it bit-identically on
  /// demand. Refuses (returns 0) for kF64 — the canonical parameter
  /// store; shedding it means going cold, i.e. dropping the whole sketch
  /// and re-Loading later — and for the currently active tier. Same
  /// thread-safety contract as EnsureTier.
  size_t ReleaseTier(PlanPrecision precision);

  /// \brief Materialize the trainable Mlp forms from the compiled f64
  /// plans (bit-exact; parameters round-trip through ToMlp). Safe to
  /// call concurrently with const use — AnswerScalar calls it lazily.
  void EnsureTrainer() const;

  /// \brief Drop the trainable Mlp forms, returning the bytes freed.
  /// AnswerScalar transparently rebuilds them later; Answer and the
  /// batched paths never need them. Same thread-safety contract as
  /// EnsureTier.
  size_t ReleaseTrainer();

  /// \brief Compile the f32 plan tier and validate it against the f64
  /// reference on `validation` queries. Activates f32 serving and returns
  /// true iff the measured max divergence stays within `error_bound`;
  /// otherwise drops the f32 plans and stays on (or reverts to) f64. The
  /// measured divergence is available from f32_max_divergence() either
  /// way. The validation replay shards across `num_threads` workers on
  /// the shared pool (0 = hardware concurrency); per-shard maxima combine
  /// in fixed shard order, so the record is bit-identical to a serial
  /// sweep for every thread count.
  bool EnableF32(const std::vector<QueryInstance>& validation,
                 double error_bound, size_t num_threads = 0);

  /// \brief Switch the active serving tier. kF32 requires the f32 plans
  /// (compiled by Train with plan_precision = kF32, EnableF32, or Load of
  /// a sketch carrying the tier).
  Status SelectPrecision(PlanPrecision precision);

  /// \brief Mirror the construction-side record — BuildStats phase wall
  /// times, partition/AQC shape, per-tier validation divergences and
  /// bounds, plan footprints, and the active precision tier — into
  /// `registry` under `prefix`, so `nsketch_cli` and the benches emit one
  /// uniform metrics document covering build and serve.
  void ExportBuildMetrics(metrics::MetricsRegistry* registry,
                          const std::string& prefix = "nsketch_build_") const;

  /// \brief Serialize / deserialize the full sketch (routing + scales +
  /// model parameters + precision tier). Parameters are always stored in
  /// f64 — the accuracy reference — and the f32 tier deterministically
  /// rebuilds from them on Load by narrowing, so round-trips are
  /// bit-exact in every tier. Load comes up
  /// warm-and-lean: only the active tier's plans are materialized
  /// (carried inactive tiers rebuild through EnsureTier) and the
  /// trainable Mlp forms rebuild lazily on first AnswerScalar. The
  /// stream variants serve the paged catalog format, which concatenates
  /// many sketch images into one file. LoadFrom returns a Status (never
  /// aborts) on truncated or hostile input: every length field is checked
  /// against the bytes left in the stream before anything is allocated.
  Status Save(const std::string& path) const;
  Status SaveTo(std::ostream* out) const;
  static Result<NeuroSketch> Load(const std::string& path);
  static Result<NeuroSketch> LoadFrom(std::istream* in);

 private:
  size_t TrainerBytes() const;
  /// Run `fn` on the plans of tier `precision` (plans_ or plans_f32_), so
  /// code that serves from either tier is written once, as a generic
  /// lambda over std::vector<nn::CompiledMlpT<T>>.
  template <typename Fn>
  decltype(auto) OnTier(PlanPrecision precision, Fn&& fn) const {
    return precision == PlanPrecision::kF32 ? fn(plans_f32_) : fn(plans_);
  }
  /// Compile and validate the tier `config` asks for (plan_precision,
  /// upgraded to kF32 by NEUROSKETCH_FORCE_F32_PLANS) over `validation`.
  /// Returns false when f64 was requested and nothing ran.
  bool EnableRequestedTier(const std::vector<QueryInstance>& validation,
                           const NeuroSketchConfig& config);

  QuerySpaceKdTree tree_;
  /// Trainable/reference forms, indexed by leaf_id. Mutable + latch:
  /// rebuilt lazily (and bit-exactly) from plans_ under a rebuild mutex
  /// when a const caller needs the scalar reference path after Load or
  /// ReleaseTrainer.
  mutable std::vector<nn::Mlp> models_;
  mutable internal::MovableFlag trainer_ready_;
  std::vector<nn::CompiledMlp> plans_;  // serving form, same indexing
  std::vector<nn::CompiledMlpT<float>> plans_f32_;  // opt-in fast tier
  /// Tier availability (carried, validated, rebuildable) — survives
  /// ReleaseTier, which only drops the materialized plans.
  bool f32_available_ = false;
  size_t routing_doubles_ = 0;  // EncodeRouting().size(), cached
  std::vector<double> target_mean_;     // per-leaf target standardization
  std::vector<double> target_scale_;
  PlanPrecision precision_ = PlanPrecision::kF64;
  double f32_error_bound_ = 0.0;     // bound in effect when validated
  double f32_max_divergence_ = 0.0;  // measured by the validation pass
  BuildStats stats_;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_CORE_NEUROSKETCH_H_
