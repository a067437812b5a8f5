// Serving benchmark entry point.
//
//   perfbench_serving --workload batch|point|stream --seed N --seconds S
//                     --trace 0|1 [--smoke] [--out-dir DIR] [--git-sha SHA]
//
// Prints a provenance record, then, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// served answer was wrong or any operation failed, 2 on bad arguments and
// 3 when the workload could not be set up.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_serving --workload batch|point|stream "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR] "
               "[--git-sha SHA]\n",
               msg);
  return 2;
}

std::string Provenance(const Options& o, const std::string& git_sha) {
  const ThreadBudget b = BudgetOf(o.workload);
  std::ostringstream os;
  os << "{\"provenance\": {\"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\""
     << ", \"cmake\": \"" << PERFBENCH_CMAKE_VERSION << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"git_sha\": \"" << git_sha << "\""
     << ", \"workload\": \"" << o.workload << "\""
     << ", \"seed\": " << o.seed << ", \"load_threads\": " << b.load_threads
     << ", \"engine_shards\": " << b.shards
     << ", \"threads_total\": " << b.load_threads + b.shards
     << ", \"run_seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"smoke\": " << (o.smoke ? "true" : "false") << "}}";
  return os.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  NowNs();  // fixes the clock epoch at process start
  Options o;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" || a == "--trace" ||
                a == "--out-dir" || a == "--git-sha") &&
               (v = next()) != nullptr) {
      char* end = nullptr;
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::strtoull(v, &end, 10);
        have_seed = end != v && *end == '\0';
      } else if (a == "--seconds") {
        o.seconds = std::strtod(v, &end);
        have_seconds = end != v && *end == '\0' && o.seconds > 0.0 && o.seconds <= 600.0;
      } else if (a == "--trace") {
        o.trace = std::string(v) == "1";
        have_trace = o.trace || std::string(v) == "0";
      } else if (a == "--out-dir") {
        o.out_dir = v;
      } else {
        git_sha = v;
      }
    } else {
      return Usage(("bad argument: " + a).c_str());
    }
  }
  if (!have_workload || !KnownWorkload(o.workload)) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (!o.out_dir.empty() && !MakeDirs(o.out_dir)) return Usage("cannot create --out-dir");

  const std::string provenance = Provenance(o, git_sha);
  std::printf("%s\n", provenance.c_str());
  std::fflush(stdout);
  Report r;
  try {
    r = RunWorkload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  r.correct = r.failed == 0;
  std::fprintf(stderr, "[%s] failed_frac=%.6g (%llu of %llu operations)\n", o.workload.c_str(),
               r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                               : 0.0,
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.attempted));
  const std::string json = r.ToJson();
  if (!o.out_dir.empty()) {
    const std::string stem = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                             "-trace" + (o.trace ? "1" : "0");
    WriteFile(stem + ".provenance.json", provenance);
    WriteFile(stem + ".metrics.json", json);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
