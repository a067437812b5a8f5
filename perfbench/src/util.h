// Shared pieces of the serving benchmark: clocks, percentiles, windowed
// latency summaries, the metric report, and the in-memory span log used by
// traced runs.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

/// Busy-waits until NowNs() >= deadline_ns. The open-loop generators spin
/// because sleep granularity (~50 us) is coarser than their schedules.
void SpinUntil(int64_t deadline_ns);

/// Sleeps until NowNs() >= deadline_ns (coarse; returns at once when past).
void SleepUntil(int64_t deadline_ns);

/// Nearest-rank percentile (p in [0, 100]) of `v`; sorts a copy. 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Kernel id of the calling thread.
int64_t ThisThreadId();

/// CPU seconds (user + system) of every thread of this process, by thread
/// id, from /proc/self/task. Time a virtual CPU spends stolen by its host
/// is not CPU time, so figures built from it do not follow steal.
std::map<int64_t, double> ThreadCpuSeconds();

/// One completed request: when it finished and how long it took.
struct LatSample {
  int64_t done_ns = 0;
  double latency_us = 0.0;
  uint32_t queries = 1;  // answers the request delivered
};

/// Per-thread sample store with a fixed capacity that is written (and so
/// resident) from the start: the benchmark's own memory then does not grow
/// with throughput and move the process's peak RSS.
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity) : v_(capacity) {}
  void Add(const LatSample& s) {
    if (n_ < v_.size()) {
      v_[n_] = s;
    } else {
      v_.push_back(s);
    }
    ++n_;
  }
  void AppendTo(std::vector<LatSample>* out) const {
    out->insert(out->end(), v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(n_));
  }

 private:
  std::vector<LatSample> v_;
  size_t n_ = 0;
};

/// Windowed summary of a measured phase: the phase is cut into equal
/// windows by completion time, each window gets its own throughput and
/// percentiles, and the reported figure is the median over windows.
struct WindowedStats {
  size_t samples = 0;  // requests completed inside the phase
  uint64_t answered = 0;  // queries those requests delivered
  size_t windows = 0;
  size_t min_window_samples = 0;
  double qps = 0.0;     // median over windows of answered queries / s
  double p50_us = 0.0;  // median over windows of the window p50
  double p90_us = 0.0;  // median over windows of the window p90
  double p99_us = 0.0;  // median over windows of the window p99
};

/// Summarizes samples completed in [start_ns, end_ns). The phase is cut
/// into as many windows as hold `min_per_window` samples each (at most 200,
/// at least 1), so every window p99 has min_per_window / 100 samples beyond
/// it. Short windows keep a steal burst of the virtual CPU inside a few
/// windows, where the median over windows ignores it.
WindowedStats Summarize(const std::vector<LatSample>& samples, int64_t start_ns,
                        int64_t end_ns, size_t min_per_window = 1000);

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation prints as its last stdout line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  std::string ToJson() const;
};

/// One traced interval. `parent` indexes the same SpanLog (-1 = root);
/// spans of one request share `request`.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread, append-only span buffer. Spans stay in memory until the run
/// ends; nothing is written while the workload is measured.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }
  int64_t Add(const char* name, uint64_t request, int64_t parent,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, request, parent, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-span-name totals over a set of logs.
struct SpanSummary {
  std::string name;
  size_t count = 0;
  double p50_dur_ns = 0.0;
  double p50_self_ns = 0.0;  // duration minus the time covered by children
  double total_self_ns = 0.0;
};

/// Self time per span name across `logs` (children are summed within the
/// log that holds their parent).
std::vector<SpanSummary> SummarizeSpans(const std::vector<const SpanLog*>& logs);

/// p50 span duration (ns) of `name`, 0 when absent.
double SpanP50(const std::vector<SpanSummary>& s, const std::string& name);

/// Prints the self-time table of a traced run to stderr.
void PrintSpanSummary(const std::vector<SpanSummary>& s);

/// Writes every span as CSV (log,index,name,request,parent,start_ns,end_ns).
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Creates `dir` and its parents; true when it exists afterwards.
bool MakeDirs(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
