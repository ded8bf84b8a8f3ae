// undo_independent: one interactive Session undoing in independent order.
//
// Why: the Figure-4 affecting walk, region derivation, indexed scans,
// safety checks and cascades do the work here, and they do almost none in
// search_anneal. The program (GenerateRandomProgram, 300 statements,
// 48-name pools) is the regime RegionIndex was built for.
//
// Set-up parses the program and applies kSetupApplies seeded-random
// transformations. The timed stream refills with a random apply whenever
// the live count is below the set-up level; otherwise it undoes a random
// live record that is not the newest (50%), batch-undoes three such
// records (15%), or previews one (35%, the read). History keeps growing,
// so costs that grow with history length on every transaction show too.
#include <memory>

#include "harness.h"
#include "replay.h"
#include "workloads.h"
#include "pivot/ir/parser.h"
#include "pivot/ir/printer.h"
#include "pivot/ir/random_program.h"
#include "pivot/oracle/oracle.h"
#include "pivot/search/cost.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/rng.h"
#include "pivot/transform/catalog.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kProgramSeed = 21;
constexpr int kProgramStmts = 300;
constexpr int kNamePool = 48;
constexpr int kSetupApplies = 300;
constexpr int kSetupReps = 5;
constexpr std::uint64_t kStreamSalt = 0x5bd1e995ULL;
// Stream ops per --seconds: a fixed amount of work (about --seconds on a
// 4-vCPU host).
constexpr double kOpsPerSecond = 1000.0;
// Ops per block of the timed stream: about 1000 of them Previews (1 op in
// 8 at seed 21).
constexpr std::size_t kBlockOps = 8000;

std::string GenerateSource() {
  pivot::RandomProgramOptions gen;
  gen.seed = kProgramSeed;
  gen.target_stmts = kProgramStmts;
  gen.num_scalars = kNamePool;
  gen.num_arrays = kNamePool / 3;
  return pivot::ToSource(pivot::GenerateRandomProgram(gen));
}

// Applies one random opportunity: a random kind order, the first kind with
// any opportunity, a uniform index. Appends the choice to `record`.
bool ApplyRandom(pivot::Session& session, pivot::Rng& rng, std::int64_t op,
                 std::vector<ReplayOp>& record) {
  std::vector<pivot::TransformKind> kinds = pivot::AllTransformKinds();
  rng.Shuffle(kinds);
  for (const pivot::TransformKind kind : kinds) {
    const std::vector<pivot::Opportunity> found =
        session.FindOpportunities(kind);
    if (found.empty()) continue;
    const std::size_t index = rng.Index(found.size());
    session.Apply(found[index]);
    ReplayOp r;
    r.type = ReplayOp::Type::kApply;
    r.kind = kind;
    r.index = static_cast<int>(index);
    r.op = op;
    record.push_back(r);
    return true;
  }
  return false;
}

struct SetUpResult {
  std::unique_ptr<pivot::Session> session;
  std::vector<ReplayOp> ops;
};

SetUpResult SetUp(const std::string& source, std::uint64_t seed) {
  SetUpResult out;
  out.session = std::make_unique<pivot::Session>(pivot::Parse(source));
  pivot::Rng rng(seed);
  for (int i = 0; i < kSetupApplies; ++i) {
    if (!ApplyRandom(*out.session, rng, -1, out.ops)) break;
  }
  return out;
}

// Picks `count` distinct live stamps, never the newest live record.
std::vector<pivot::OrderStamp> PickOlder(
    const std::vector<pivot::TransformRecord*>& live, pivot::Rng& rng,
    std::size_t count) {
  std::vector<pivot::OrderStamp> picked;
  const std::size_t older = live.size() - 1;
  while (picked.size() < count) {
    const pivot::OrderStamp stamp = live[rng.Index(older)]->stamp;
    bool seen = false;
    for (const pivot::OrderStamp s : picked) seen = seen || s == stamp;
    if (!seen) picked.push_back(stamp);
  }
  return picked;
}

}  // namespace

Result RunUndoIndependent(const Config& cfg) {
  Result result;
  const std::string source = GenerateSource();

  std::vector<double> setups;
  SetUpResult state;
  for (int i = 0; i < kSetupReps; ++i) {
    state = SetUpResult{};
    const Clock::time_point t0 = Clock::now();
    state = SetUp(source, cfg.seed);
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  pivot::Session& session = *state.session;
  const std::size_t live_target = session.history().Live().size();

  HostNoise noise;
  noise.Start();
  pivot::Rng rng(cfg.seed ^ kStreamSalt);
  Timed timed;
  std::vector<ReplayOp> stream;
  std::int64_t op = 0;
  const auto stream_ops = static_cast<std::int64_t>(cfg.seconds * kOpsPerSecond);
  Block block;
  Clock::time_point block_start = Clock::now();
  Clock::time_point now = block_start;
  while (op < stream_ops) {
    const std::vector<pivot::TransformRecord*> live = session.history().Live();
    ReplayOp r;
    r.op = op;
    bool is_read = false;
    const Clock::time_point t0 = Clock::now();
    try {
      if (live.size() < live_target || live.size() < 4) {
        if (!ApplyRandom(session, rng, op, stream)) ++result.failed;
      } else {
        const double draw = rng.UniformReal();
        if (draw < 0.50) {
          r.type = ReplayOp::Type::kUndo;
          r.stamps = PickOlder(live, rng, 1);
          session.Undo(r.stamps[0]);
        } else if (draw < 0.65) {
          r.type = ReplayOp::Type::kUndoSet;
          r.stamps = PickOlder(live, rng, 3);
          session.UndoSet(r.stamps);
        } else {
          r.type = ReplayOp::Type::kPreview;
          r.stamps = PickOlder(live, rng, 1);
          is_read = true;
          session.engine().Preview(r.stamps[0]);
        }
        stream.push_back(r);
      }
    } catch (const pivot::ProgramError&) {
      ++result.failed;  // the session rolled the op back
    }
    now = Clock::now();
    block.ops.Add(MicrosBetween(t0, now));
    if (is_read) block.reads.Add(MicrosBetween(t0, now));
    ++op;
    if (block.ops.size() == kBlockOps || op == stream_ops) {
      block.seconds = SecondsBetween(block_start, now);
      timed.blocks.push_back(std::move(block));
      block = Block{};
      block_start = Clock::now();
    }
  }
  const double peak_rss = PeakRssMb();
  noise.Stop();
  result.host = noise;
  result.attempted = static_cast<std::uint64_t>(op);
  const std::uint64_t rollbacks = session.recovery().rollbacks;
  const double final_score = pivot::ScoreProgram(session.analyses()).score;
  const std::string final_source = session.Source();

  // Output checks: the final program still computes what the original
  // did, and undoing every live record restores it exactly.
  {
    const pivot::Program original = pivot::Parse(source);
    const pivot::SemanticsOracle oracle(original,
                                        pivot::DefaultOracleInputs());
    const std::string diverged = oracle.Check(session.program());
    if (!diverged.empty()) {
      result.FailCheck("undo_independent semantics: " + diverged);
    }
    std::vector<pivot::OrderStamp> all;
    for (const pivot::TransformRecord* rec : session.history().Live()) {
      all.push_back(rec->stamp);
    }
    session.UndoSet(all);
    const std::string unrestored =
        pivot::StructuralOracle(original).CheckRestored(session.program());
    if (!unrestored.empty()) {
      result.FailCheck("undo_independent restore: " + unrestored);
    }
  }

  if (!cfg.trace) {
    result.Add("setup_s", Median(setups), "s");
    result.AddTimedMetrics(timed);
    result.Add("ok_frac", result.OkFrac(), "frac");
    result.Add("peak_rss_mb", peak_rss, "MB");
    return result;
  }

  // Traced: replay set-up and stream (plus the final score) on fresh
  // sessions, counting pass first.
  ReplayOp score;
  score.type = ReplayOp::Type::kScore;
  score.op = op;
  stream.push_back(score);
  std::vector<std::uint16_t> setup_masks;
  std::vector<std::uint16_t> stream_masks;
  {
    ReplayCounters ignored;
    pivot::Session counting(pivot::Parse(source));
    setup_masks = CountRebuilds(counting, state.ops, ignored);
    stream_masks = CountRebuilds(counting, stream, ignored);
  }
  Tracer setup;
  Tracer traced;
  ReplayCounters setup_counters;
  ReplayCounters counters;
  std::unique_ptr<pivot::Session> replay;
  setup.Time("setup", -1, [&] {
    pivot::Program program =
        setup.Time("ir.parse", -1, [&] { return pivot::Parse(source); });
    replay = setup.Time("core.session", -1, [&] {
      return std::make_unique<pivot::Session>(std::move(program));
    });
    TimedReplay(*replay, state.ops, setup_masks, setup, setup_counters);
  });
  const FamilyCounts before = ReadFamilies(replay->analyses());
  const Clock::time_point t0 = Clock::now();
  TimedReplay(*replay, stream, stream_masks, traced, counters);
  const double traced_s = SecondsBetween(t0, Clock::now());
  const FamilyCounts after = ReadFamilies(replay->analyses());
  FamilyCounts rebuilds{};
  for (int f = 0; f < kFamilies; ++f) {
    rebuilds[static_cast<std::size_t>(f)] =
        after[static_cast<std::size_t>(f)] - before[static_cast<std::size_t>(f)];
  }
  if (replay->Source() != final_source ||
      counters.last_score != final_score) {
    result.FailCheck("undo_independent: traced replay diverged from the run");
  }

  SpanTotals setup_totals;
  setup_totals.Add(setup);
  SpanTotals totals;
  totals.Add(traced);
  const double n = static_cast<double>(op);
  result.Add("ir.parse_us", setup_totals.Self("ir.parse"), "us");
  AddAnalysisMetrics(result, totals, rebuilds, n);
  AddReplayMetrics(result, totals, counters, n);
  result.Add("core.preview_us", PerOp(totals, "core.preview", n), "us/op");
  result.Add("actions.journal_records",
             static_cast<double>(replay->journal().records().size()), "count");
  result.Add("core.history_records",
             static_cast<double>(replay->history().size()), "count");
  result.Add("core.rollbacks", static_cast<double>(rollbacks), "count");
  result.Add("search.final_score", final_score, "score");
  double layer_us = 0.0;
  for (const auto& [name, self] : totals.self_us) {
    if (name != "op") layer_us += self;
  }
  result.Add("trace.coverage", layer_us / (timed.Seconds() * 1e6), "frac");
  result.Add("trace.overhead", traced_s / timed.Seconds(), "ratio");
  WriteSpans(SpansPath(cfg), {&setup, &traced});
  return result;
}

}  // namespace perfbench
