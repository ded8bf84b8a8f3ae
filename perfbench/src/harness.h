// Shared plumbing of the repository benchmark: clocks, latency samples,
// span tracing, the host-noise record and the result line.
//
// Every workload runs in two modes. Untraced (--trace 0) it times the
// user-visible operations and reports the end-to-end metrics. Traced
// (--trace 1) it first repeats the untraced run, then replays what that
// run did one layer lower with a span around every call the benchmark
// makes into a library layer, and reports the per-layer metrics. Spans are
// recorded only by this benchmark's code, never inside the library.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pivot/analysis/analyses.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;   // build directory inside the checkout
  std::string work_dir;  // this run's scratch directory under out_dir
};

// Latency samples in microseconds.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  std::size_t size() const { return values_.size(); }
  // Nearest-rank percentile, p in (0, 100].
  double Percentile(double p) const;

 private:
  std::vector<double> values_;
};

double Median(std::vector<double> values);

// One stretch of a timed phase, measured on its own: its ops, the
// read-only ones among them, and its wall time.
struct Block {
  Samples ops;
  Samples reads;
  double seconds = 0.0;
};

// A timed phase as consecutive blocks. Each time metric is the median over
// the blocks of the block's own figure, so a stretch of the run that the
// host slowed (a co-runner on the CPU, a burst of steal) moves only the
// blocks it falls in, as long as they are fewer than half. A block holds
// about 1000 reads, so its p99 has about ten samples beyond it.
struct Timed {
  std::vector<Block> blocks;

  double Seconds() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// CPU steal share over an interval and the load average at its end, from
// /proc/stat and /proc/loadavg. Not metrics: they let a disagreeing set of
// runs be traced to the host.
class HostNoise {
 public:
  void Start();
  void Stop();
  double steal_frac() const { return steal_frac_; }
  double loadavg_1m() const { return loadavg_1m_; }

 private:
  std::uint64_t steal0_ = 0;
  std::uint64_t total0_ = 0;
  double steal_frac_ = 0.0;
  double loadavg_1m_ = 0.0;
};

// What one run prints: every metric it measured (perfbench/run.py picks
// the result line's metrics out of them by BENCHMARK.json).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  HostNoise host;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // A failed output check fails every op of the run.
  void FailCheck(const std::string& what);
  double OkFrac() const;
  // ops_per_s, op_p50_us, op_p99_us, read_p50_us and read_p99_us: each
  // the median over `timed`'s blocks of the block's own figure.
  void AddTimedMetrics(const Timed& timed);
};

double PeakRssMb();  // VmHWM of this process

// In-memory span recorder (one per thread). A span's parent is the span
// open on the same recorder when it began; spans of one workload op share
// the op id.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    std::int64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };

  int Begin(const char* name, std::int64_t op);
  void End(int id);

  template <typename Fn>
  decltype(auto) Time(const char* name, std::int64_t op, Fn&& fn) {
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->End(id); }
    } closer{this, Begin(name, op)};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Per-name totals over one or more recorders: self time (a span minus the
// part its child spans cover) and call counts.
struct SpanTotals {
  std::map<std::string, double> self_us;
  std::map<std::string, std::uint64_t> calls;

  void Add(const Tracer& tracer);
  double Self(const std::string& name) const;
  std::uint64_t Calls(const std::string& name) const;
};

// Appends every span of `tracers` to `path` as CSV (written at exit).
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

// --- analysis attribution from outside the library ---------------------

constexpr int kFamilies = pivot::AnalysisCache::kNumFamilies;
using FamilyCounts = std::array<std::uint64_t, kFamilies>;
constexpr std::uint16_t kAllFamilies = (1u << kFamilies) - 1;

FamilyCounts ReadFamilies(const pivot::AnalysisCache& cache);
// Bit f set when family f was rebuilt between `before` and `after`.
std::uint16_t RebuiltMask(const FamilyCounts& before,
                          const FamilyCounts& after);

// Calls the accessors of the families in `mask`, in dependency order, each
// in its own analysis.<family> span. Placed right before a read-only call
// whose rebuilds an untimed counting pass recorded, it moves exactly that
// call's analysis work into attributable spans.
void PrimeFamilies(pivot::AnalysisCache& cache, std::uint16_t mask,
                   Tracer& tracer, std::int64_t op);

// Adds analysis.busy_us, analysis.rebuilds and the per-family metrics.
// `busy` spans are normalised per op; rebuild counts (from `rebuilds`,
// which include rebuilds inside mutating calls) likewise.
void AddAnalysisMetrics(Result& result, const SpanTotals& totals,
                        const FamilyCounts& rebuilds, double ops);

// Per-op self time of a span name, in µs.
inline double PerOp(const SpanTotals& totals, const std::string& name,
                    double ops) {
  return ops > 0 ? totals.Self(name) / ops : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
