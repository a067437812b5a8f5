#include "util.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void SpinUntil(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

void SleepUntil(int64_t deadline_ns) {
  const int64_t wait = deadline_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0.0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int64_t ThisThreadId() { return static_cast<int64_t>(syscall(SYS_gettid)); }

std::map<int64_t, double> ThreadCpuSeconds() {
  std::map<int64_t, double> out;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream ss(line.substr(close + 1));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int f = 3; f <= 15 && (ss >> field); ++f) {
      if (f == 14) utime = std::strtod(field.c_str(), nullptr);
      if (f == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    out[std::strtoll(e->d_name, nullptr, 10)] = (utime + stime) / tick;
  }
  closedir(dir);
  return out;
}

WindowedStats Summarize(const std::vector<LatSample>& samples, int64_t start_ns,
                        int64_t end_ns, size_t min_per_window) {
  WindowedStats out;
  std::vector<const LatSample*> in;
  in.reserve(samples.size());
  for (const auto& s : samples) {
    if (s.done_ns >= start_ns && s.done_ns < end_ns) in.push_back(&s);
  }
  out.samples = in.size();
  if (in.empty() || end_ns <= start_ns) return out;
  std::sort(in.begin(), in.end(),
            [](const LatSample* a, const LatSample* b) { return a->done_ns < b->done_ns; });
  size_t windows = std::min<size_t>(200, in.size() / std::max<size_t>(1, min_per_window));
  if (windows == 0) windows = 1;
  out.windows = windows;
  const double width = static_cast<double>(end_ns - start_ns) /
                       static_cast<double>(windows);
  std::vector<std::vector<double>> lat(windows);
  // Throughput of a window: answers delivered after its first completion,
  // over the time from its first to its last completion.
  std::vector<double> answered(windows, 0.0);
  std::vector<int64_t> first(windows, INT64_MAX), last(windows, INT64_MIN);
  for (const LatSample* s : in) {
    size_t w = static_cast<size_t>(static_cast<double>(s->done_ns - start_ns) / width);
    if (w >= windows) w = windows - 1;
    out.answered += s->queries;
    if (!lat[w].empty()) answered[w] += s->queries;
    lat[w].push_back(s->latency_us);
    first[w] = std::min(first[w], s->done_ns);
    last[w] = std::max(last[w], s->done_ns);
  }
  std::vector<double> qps, p50, p90, p99;
  out.min_window_samples = in.size();
  for (size_t w = 0; w < windows; ++w) {
    out.min_window_samples = std::min(out.min_window_samples, lat[w].size());
    if (lat[w].empty()) continue;
    if (last[w] > first[w]) {
      qps.push_back(answered[w] / (static_cast<double>(last[w] - first[w]) * 1e-9));
    }
    p50.push_back(Percentile(lat[w], 50.0));
    p90.push_back(Percentile(lat[w], 90.0));
    p99.push_back(Percentile(lat[w], 99.0));
  }
  out.qps = Median(qps);
  out.p50_us = Median(p50);
  out.p90_us = Median(p90);
  out.p99_us = Median(p99);
  return out;
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::vector<SpanSummary> SummarizeSpans(const std::vector<const SpanLog*>& logs) {
  struct Acc {
    std::vector<double> dur, self;
  };
  std::map<std::string, Acc> by_name;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      Acc& a = by_name[spans[i].name];
      a.dur.push_back(dur);
      a.self.push_back(std::max(0.0, dur - static_cast<double>(child_ns[i])));
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, a] : by_name) {
    SpanSummary s;
    s.name = name;
    s.count = a.dur.size();
    for (double x : a.self) s.total_self_ns += x;
    s.p50_dur_ns = Median(std::move(a.dur));
    s.p50_self_ns = Median(std::move(a.self));
    out.push_back(std::move(s));
  }
  return out;
}

double SpanP50(const std::vector<SpanSummary>& s, const std::string& name) {
  for (const auto& x : s) {
    if (x.name == name) return x.p50_dur_ns;
  }
  return 0.0;
}

void PrintSpanSummary(const std::vector<SpanSummary>& s) {
  std::fprintf(stderr, "%-32s %10s %14s %14s %14s\n", "span", "count", "p50_ns",
               "p50_self_ns", "total_self_ms");
  for (const auto& x : s) {
    std::fprintf(stderr, "%-32s %10zu %14.0f %14.0f %14.3f\n", x.name.c_str(), x.count,
                 x.p50_dur_ns, x.p50_self_ns, x.total_self_ns * 1e-6);
  }
}

bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "log,index,name,request,parent,start_ns,end_ns\n");
  for (size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%s,%llu,%lld,%lld,%lld\n", l, i, s.name,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

bool MakeDirs(const std::string& dir) {
  std::string partial;
  std::istringstream ss(dir);
  std::string part;
  if (!dir.empty() && dir[0] == '/') partial = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  struct stat st;
  return stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace perfbench
