// search_anneal: Searcher::Run in anneal mode on the ROADMAP's program.
//
// Why: opportunity matching, analysis rebuilds and scoring do almost all
// the work, and every reject undoes the newest record through the
// ProvablyNoLiveLaterThan fast path. Changes to analysis, transform or
// search show here; changes to the undo scans should not.
//
// The program is fixed (GenerateRandomProgram, 120 statements, seed 21);
// --seed drives the anneal trajectory. One op is one proposal, timed
// between consecutive apply commits by a CommitListener, so the benchmark
// never re-implements the search loop. A round is one Searcher::Run of
// kBudget proposals on a fresh session; --seconds sets the number of rounds
// (at least kScoredRounds, whose mean final ScoreProgram is
// search.final_score, exact for a seed).
#include <algorithm>
#include <memory>

#include "harness.h"
#include "replay.h"
#include "workloads.h"
#include "pivot/ir/parser.h"
#include "pivot/ir/printer.h"
#include "pivot/ir/random_program.h"
#include "pivot/search/searcher.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kProgramSeed = 21;
constexpr int kProgramStmts = 120;
constexpr int kBudget = 1000;
constexpr int kScoredRounds = 3;
// Rounds per --seconds: a fixed amount of work, so every run of a seed
// searches the same trajectories. A 4-vCPU host runs 1.1k-2.5k proposals/s,
// so the rounds take half to all of --seconds. Each round is one block of
// the timed phase (Timed), so the medians are over many trajectories.
constexpr double kRoundsPerSecond = 1.0;

// Round 0 keeps --seed itself. The stride must not be Rng's SplitMix
// increment (0x9E3779B97F4A7C15): with it, consecutive rounds' generators
// would share three of their four state words.
std::uint64_t RoundSeed(std::uint64_t seed, int round) {
  return seed + static_cast<std::uint64_t>(round) * 0xD1B54A32D192ED03ULL;
}

// Times proposals from outside the searcher: an op runs from one apply
// commit to the next (or to the end of the round); its read-only stretch
// runs from the apply commit to the next program mutation (scoring, the
// accept decision, the reject's planning or the next proposal's matching).
class ProposalClock final : public pivot::CommitListener,
                            public pivot::Program::MutationListener {
 public:
  ProposalClock() = default;
  ProposalClock(const ProposalClock&) = delete;
  ProposalClock& operator=(const ProposalClock&) = delete;

  void OnCommit(const pivot::TxnDescriptor&) override {}
  void OnCommitted(const pivot::TxnDescriptor& desc) override {
    if (desc.op != pivot::TxnOp::kApply) return;
    const Clock::time_point now = Clock::now();
    Close(now);
    boundary_ = now;
    op_open_ = true;
    read_open_ = true;
  }
  void OnProgramMutation(pivot::StmtId, bool) override {
    if (read_open_) {
      reads_.Add(MicrosBetween(boundary_, Clock::now()));
      read_open_ = false;
    }
  }
  void Close(Clock::time_point now) {
    if (read_open_) reads_.Add(MicrosBetween(boundary_, now));
    if (op_open_) ops_.Add(MicrosBetween(boundary_, now));
    read_open_ = false;
    op_open_ = false;
  }
  const Samples& ops() const { return ops_; }
  const Samples& reads() const { return reads_; }

 private:
  Clock::time_point boundary_;
  bool op_open_ = false;
  bool read_open_ = false;
  Samples ops_;
  Samples reads_;
};

std::string GenerateSource() {
  pivot::RandomProgramOptions gen;
  gen.seed = kProgramSeed;
  gen.target_stmts = kProgramStmts;
  return pivot::ToSource(pivot::GenerateRandomProgram(gen));
}

std::unique_ptr<pivot::Session> SetUp(const std::string& source) {
  auto session = std::make_unique<pivot::Session>(pivot::Parse(source));
  session->analyses().PrimeAll();
  return session;
}

struct Round {
  std::vector<pivot::SearchStep> steps;
  std::string final_source;
};

// The stream a round's replay executes: per proposal FindOpportunities +
// Apply + ScoreProgram, then UndoSet for a reject (and a re-score when the
// reject cascaded). Probes of kinds without opportunities are not
// replayed; coverage shows what they cost.
std::vector<ReplayOp> ReplayStream(const std::vector<pivot::SearchStep>& steps,
                                   std::int64_t first_op) {
  std::vector<ReplayOp> ops;
  std::int64_t op = first_op;
  for (const pivot::SearchStep& step : steps) {
    ++op;
    if (step.outcome == pivot::SearchStep::Outcome::kApplyFailed) continue;
    ReplayOp apply;
    apply.type = ReplayOp::Type::kApply;
    apply.kind = step.kind;
    apply.index = step.op_index;
    apply.op = op;
    ops.push_back(apply);
    ReplayOp score;
    score.type = ReplayOp::Type::kScore;
    score.op = op;
    ops.push_back(score);
    if (step.outcome == pivot::SearchStep::Outcome::kRejected) {
      ReplayOp reject;
      reject.type = ReplayOp::Type::kUndoSet;
      reject.stamps = {step.stamp};
      reject.op = op;
      ops.push_back(reject);
      if (!step.cascades.empty()) ops.push_back(score);
    }
  }
  return ops;
}

void TraceRounds(const std::string& source, const std::vector<Round>& rounds,
                 double untraced_s, Result& result, Tracer& setup,
                 Tracer& stream) {
  ReplayCounters counters;
  FamilyCounts rebuilds{};
  double traced_s = 0.0;
  double history = 0.0;
  double journal = 0.0;
  double ops = 0.0;
  std::int64_t first_op = 0;
  for (const Round& round : rounds) {
    const std::vector<ReplayOp> stream_ops =
        ReplayStream(round.steps, first_op);
    first_op += static_cast<std::int64_t>(round.steps.size());
    ops += static_cast<double>(round.steps.size());

    ReplayCounters ignored;
    std::vector<std::uint16_t> masks;
    {
      auto counting = SetUp(source);
      masks = CountRebuilds(*counting, stream_ops, ignored);
    }

    std::unique_ptr<pivot::Session> session;
    setup.Time("setup", -1, [&] {
      pivot::Program program =
          setup.Time("ir.parse", -1, [&] { return pivot::Parse(source); });
      session = setup.Time("core.session", -1, [&] {
        return std::make_unique<pivot::Session>(std::move(program));
      });
      PrimeFamilies(session->analyses(), kAllFamilies, setup, -1);
    });
    const FamilyCounts before = ReadFamilies(session->analyses());
    const Clock::time_point t0 = Clock::now();
    TimedReplay(*session, stream_ops, masks, stream, counters);
    traced_s += SecondsBetween(t0, Clock::now());
    const FamilyCounts after = ReadFamilies(session->analyses());
    for (int f = 0; f < kFamilies; ++f) {
      rebuilds[static_cast<std::size_t>(f)] +=
          after[static_cast<std::size_t>(f)] -
          before[static_cast<std::size_t>(f)];
    }
    history += static_cast<double>(session->history().size());
    journal += static_cast<double>(session->journal().records().size());
    if (session->Source() != round.final_source) {
      result.FailCheck("search_anneal: traced replay diverged from the run");
    }
  }

  SpanTotals setup_totals;
  setup_totals.Add(setup);
  SpanTotals totals;
  totals.Add(stream);
  const double n_rounds = static_cast<double>(rounds.size());
  result.Add("ir.parse_us",
             setup_totals.Self("ir.parse") /
                 static_cast<double>(setup_totals.Calls("ir.parse")),
             "us");
  AddAnalysisMetrics(result, totals, rebuilds, ops);
  AddReplayMetrics(result, totals, counters, ops);
  result.Add("core.reject_us", PerOp(totals, "core.undo", ops), "us/op");
  result.Add("actions.journal_records", journal / n_rounds, "count");
  result.Add("core.history_records", history / n_rounds, "count");
  double layer_us = 0.0;
  for (const auto& [name, self] : totals.self_us) {
    if (name != "op") layer_us += self;
  }
  result.Add("trace.coverage", layer_us / (untraced_s * 1e6), "frac");
  result.Add("trace.overhead", traced_s / untraced_s, "ratio");
}

}  // namespace

Result RunSearchAnneal(const Config& cfg) {
  Result result;
  const std::string source = GenerateSource();

  // One untimed round first: a process's first round runs slower than the
  // rest (heap growth), so the timed rounds start warm.
  {
    auto session = SetUp(source);
    pivot::SearchOptions options;
    options.mode = pivot::SearchMode::kAnneal;
    options.budget = kBudget;
    options.seed = RoundSeed(cfg.seed, -1);
    pivot::Searcher(*session, options).Run();
  }

  HostNoise noise;
  noise.Start();
  Timed timed;  // one block per round
  std::vector<double> setups;  // each timed round's own set-up
  std::vector<Round> rounds;
  double score_sum = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t rollbacks = 0;
  double peak_rss = 0.0;
  const int rounds_to_run = std::max(
      kScoredRounds, static_cast<int>(cfg.seconds * kRoundsPerSecond + 0.5));
  for (int round = 0; round < rounds_to_run; ++round) {
    const Clock::time_point setup_start = Clock::now();
    auto session = SetUp(source);
    setups.push_back(SecondsBetween(setup_start, Clock::now()));
    ProposalClock clock;
    session->set_commit_listener(&clock);
    session->program().AddMutationListener(&clock);
    pivot::SearchOptions options;
    options.mode = pivot::SearchMode::kAnneal;
    options.budget = kBudget;
    options.seed = RoundSeed(cfg.seed, round);
    pivot::Searcher searcher(*session, options);
    const Clock::time_point t0 = Clock::now();
    pivot::SearchResult run = searcher.Run();
    const Clock::time_point t1 = Clock::now();
    clock.Close(t1);
    session->program().RemoveMutationListener(&clock);
    session->set_commit_listener(nullptr);
    timed.blocks.push_back(
        {clock.ops(), clock.reads(), SecondsBetween(t0, t1)});
    peak_rss = PeakRssMb();

    result.attempted += run.stats.proposals;
    result.failed += run.stats.apply_failures + run.stats.reject_failures;
    accepted += run.stats.accepted;
    rollbacks += session->recovery().rollbacks;
    if (round < kScoredRounds) score_sum += run.final_cost.score;

    const std::string deviation =
        pivot::VerifyAcceptedPrefix(pivot::Parse(source), run.steps, *session);
    if (!deviation.empty()) {
      result.FailCheck("search_anneal round " + std::to_string(round) +
                       ": " + deviation);
    }
    if (cfg.trace) rounds.push_back({std::move(run.steps), session->Source()});
  }
  noise.Stop();
  result.host = noise;

  if (!cfg.trace) {
    result.Add("setup_s", Median(setups), "s");
    result.AddTimedMetrics(timed);
    result.Add("ok_frac", result.OkFrac(), "frac");
    result.Add("peak_rss_mb", peak_rss, "MB");
    return result;
  }

  Tracer setup;
  Tracer stream;
  TraceRounds(source, rounds, timed.Seconds(), result, setup, stream);
  result.Add("core.rollbacks", static_cast<double>(rollbacks), "count");
  result.Add("search.proposals", static_cast<double>(result.attempted),
             "count");
  result.Add("search.accept_frac",
             result.attempted > 0 ? static_cast<double>(accepted) /
                                        static_cast<double>(result.attempted)
                                  : 0.0,
             "frac");
  result.Add("search.final_score", score_sum / kScoredRounds, "score");
  WriteSpans(SpansPath(cfg), {&setup, &stream});
  return result;
}

}  // namespace perfbench
