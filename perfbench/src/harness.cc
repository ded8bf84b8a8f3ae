#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Timed::Seconds() const {
  double seconds = 0.0;
  for (const Block& block : blocks) seconds += block.seconds;
  return seconds;
}

void Result::AddTimedMetrics(const Timed& timed) {
  std::vector<double> rate, op50, op99, read50, read99;
  for (const Block& block : timed.blocks) {
    rate.push_back(static_cast<double>(block.ops.size()) / block.seconds);
    op50.push_back(block.ops.Percentile(50));
    op99.push_back(block.ops.Percentile(99));
    read50.push_back(block.reads.Percentile(50));
    read99.push_back(block.reads.Percentile(99));
  }
  Add("ops_per_s", Median(rate), "1/s");
  Add("op_p50_us", Median(op50), "us");
  Add("op_p99_us", Median(op99), "us");
  Add("read_p50_us", Median(read50), "us");
  Add("read_p99_us", Median(read99), "us");
}

void Result::FailCheck(const std::string& what) {
  correct = false;
  check_failures.push_back(what);
}

double Result::OkFrac() const {
  if (attempted == 0) return 0.0;
  const std::uint64_t ok = correct ? attempted - std::min(failed, attempted)
                                   : 0;
  return static_cast<double>(ok) / static_cast<double>(attempted);
}

namespace {

// "cpu  user nice system idle iowait irq softirq steal ..." → (steal, total)
std::pair<std::uint64_t, std::uint64_t> ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

}  // namespace

void HostNoise::Start() {
  const auto [steal, total] = ReadCpuTimes();
  steal0_ = steal;
  total0_ = total;
}

void HostNoise::Stop() {
  const auto [steal, total] = ReadCpuTimes();
  const std::uint64_t dt = total > total0_ ? total - total0_ : 0;
  steal_frac_ = dt > 0 ? static_cast<double>(steal - steal0_) / dt : 0.0;
  std::ifstream load("/proc/loadavg");
  load >> loadavg_1m_;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int Tracer::Begin(const char* name, std::int64_t op) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, op, Clock::now(), {}});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  open_.pop_back();
}

void SpanTotals::Add(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          MicrosBetween(span.start, span.end);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = MicrosBetween(spans[i].start, spans[i].end);
    self_us[spans[i].name] += dur - child_us[i];
    ++calls[spans[i].name];
  }
}

double SpanTotals::Self(const std::string& name) const {
  const auto it = self_us.find(name);
  return it == self_us.end() ? 0.0 : it->second;
}

std::uint64_t SpanTotals::Calls(const std::string& name) const {
  const auto it = calls.find(name);
  return it == calls.end() ? 0 : it->second;
}

void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path, std::ios::trunc);
  out << "recorder,id,name,parent,op,start_us,end_us\n";
  Clock::time_point origin = Clock::time_point::max();
  for (const Tracer* tracer : tracers) {
    if (!tracer->spans().empty()) {
      origin = std::min(origin, tracer->spans().front().start);
    }
  }
  for (std::size_t r = 0; r < tracers.size(); ++r) {
    const auto& spans = tracers[r]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << r << ',' << i << ',' << spans[i].name << ',' << spans[i].parent
          << ',' << spans[i].op << ','
          << MicrosBetween(origin, spans[i].start) << ','
          << MicrosBetween(origin, spans[i].end) << '\n';
    }
  }
}

namespace {

constexpr const char* kFamilyNames[kFamilies] = {
    "flat",     "cfg",   "doms",    "loops",     "facts",
    "reaching", "liveness", "avail", "defuse",  "deps",
    "pdg",      "summaries", "block_dags"};
constexpr const char* kFamilySpans[kFamilies] = {
    "analysis.flat",     "analysis.cfg",     "analysis.doms",
    "analysis.loops",    "analysis.facts",   "analysis.reaching",
    "analysis.liveness", "analysis.avail",   "analysis.defuse",
    "analysis.deps",     "analysis.pdg",     "analysis.summaries",
    "analysis.block_dags"};

void Access(pivot::AnalysisCache& cache, int family) {
  using F = pivot::AnalysisCache::Family;
  switch (static_cast<F>(family)) {
    case F::kFlat: cache.flat(); break;
    case F::kCfg: cache.cfg(); break;
    case F::kDoms: cache.doms(); break;
    case F::kLoops: cache.loops(); break;
    case F::kFacts: cache.facts(); break;
    case F::kReaching: cache.reaching(); break;
    case F::kLiveness: cache.liveness(); break;
    case F::kAvail: cache.avail(); break;
    case F::kDefuse: cache.defuse(); break;
    case F::kDeps: cache.deps(); break;
    case F::kPdg: cache.pdg(); break;
    case F::kSummaries: cache.summaries(); break;
    case F::kBlockDags: cache.block_dags(); break;
  }
}

}  // namespace

FamilyCounts ReadFamilies(const pivot::AnalysisCache& cache) {
  FamilyCounts counts{};
  for (int f = 0; f < kFamilies; ++f) {
    counts[static_cast<std::size_t>(f)] = cache.family_rebuilds(
        static_cast<pivot::AnalysisCache::Family>(f));
  }
  return counts;
}

std::uint16_t RebuiltMask(const FamilyCounts& before,
                          const FamilyCounts& after) {
  std::uint16_t mask = 0;
  for (int f = 0; f < kFamilies; ++f) {
    if (after[static_cast<std::size_t>(f)] !=
        before[static_cast<std::size_t>(f)]) {
      mask = static_cast<std::uint16_t>(mask | (1u << f));
    }
  }
  return mask;
}

void PrimeFamilies(pivot::AnalysisCache& cache, std::uint16_t mask,
                   Tracer& tracer, std::int64_t op) {
  for (int f = 0; f < kFamilies; ++f) {
    if ((mask & (1u << f)) != 0) {
      tracer.Time(kFamilySpans[f], op, [&] { Access(cache, f); });
    }
  }
}

void AddAnalysisMetrics(Result& result, const SpanTotals& totals,
                        const FamilyCounts& rebuilds, double ops) {
  double busy = 0.0;
  std::uint64_t all_rebuilds = 0;
  for (int f = 0; f < kFamilies; ++f) {
    const double family_busy = PerOp(totals, kFamilySpans[f], ops);
    const std::uint64_t family_rebuilds = rebuilds[static_cast<std::size_t>(f)];
    busy += family_busy;
    all_rebuilds += family_rebuilds;
    const std::string prefix = std::string("analysis.") + kFamilyNames[f];
    result.Add(prefix + ".busy_us", family_busy, "us/op");
    result.Add(prefix + ".rebuilds",
               ops > 0 ? static_cast<double>(family_rebuilds) / ops : 0.0,
               "count/op");
  }
  result.Add("analysis.busy_us", busy, "us/op");
  result.Add("analysis.rebuilds",
             ops > 0 ? static_cast<double>(all_rebuilds) / ops : 0.0,
             "count/op");
}

}  // namespace perfbench
