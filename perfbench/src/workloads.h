// The three serving workloads of the benchmark and the per-layer probes of
// a traced run. See perfbench/README.md for why each workload exists and
// which layer metric should move which end-to-end metric.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/neurosketch.h"
#include "query/engine.h"
#include "query/query.h"
#include "serve/serve_stats.h"
#include "serve/sketch_store.h"
#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny loads (small training sets, one set-up) for the smoke check.
  bool smoke = false;
  /// Where spans, provenance and a metrics copy are written.
  std::string out_dir;
};

/// Client-side threads (generators, collectors, appenders) and engine
/// shards a workload runs; their sum stays within 4 hardware threads.
struct ThreadBudget {
  size_t load_threads = 0;
  size_t shards = 0;
};

bool KnownWorkload(const std::string& name);
ThreadBudget BudgetOf(const std::string& workload);

/// Runs one workload: set-up, the measured phase(s), the correctness check
/// and, when traced, the per-layer probes. Spans go to
/// `opts.out_dir/<workload>.spans.csv`.
Report RunWorkload(const Options& opts);

/// Inputs of the per-layer probes: direct, individually timed calls into
/// each module's public functions on the workload's own objects.
struct LayerProbe {
  const neurosketch::NeuroSketch* sketch = nullptr;
  neurosketch::NeuroSketchConfig config;
  const std::vector<neurosketch::QueryInstance>* queries = nullptr;
  /// Engine's observed mean micro-batch size in the traced phase.
  double mean_batch = 1.0;
  const neurosketch::ExactEngine* engine = nullptr;
  neurosketch::QueryFunctionSpec exact_spec;
  const neurosketch::serve::SketchStore* store = nullptr;
  neurosketch::serve::ServeKey key;
  SpanLog* log = nullptr;
};

/// Adds core.*, index.*, nn.*, tensor.*, query.* and the store lookup
/// metrics to `report`.
void ProbeLayers(const LayerProbe& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
