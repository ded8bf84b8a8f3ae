// Fault-injection tests for the transactional session layer.
//
// The central property is *atomicity*: a session operation either completes
// or leaves no trace. The oracle captures the program text, the interpreter
// output, the rendered history and the rendered annotations before an
// operation, injects a fault at the Nth fault-point crossing, and asserts
// that all four are bit-identical after the rollback. Iterating N over
// every crossing until the operation finally completes un-faulted walks the
// operation's entire failure surface.
#include <gtest/gtest.h>

#include <algorithm>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/ir/printer.h"
#include "pivot/ir/random_program.h"
#include "pivot/ir/validate.h"
#include "pivot/support/fault_injector.h"
#include "pivot/support/rng.h"
#include "pivot/transform/catalog.h"

namespace pivot {
namespace {

// The injector is process-wide; every test starts and ends disarmed.
class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

class FaultWalkProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

std::vector<double> InputFor(Rng& rng) {
  return {static_cast<double>(rng.UniformInt(-5, 5)),
          static_cast<double>(rng.UniformInt(1, 9)) / 2.0};
}

// Everything the atomicity oracle compares. All four renderings are exact
// functions of the session's compound state, so equality here means the
// rollback restored program, journal, annotations and history alike.
struct Snapshot {
  std::string source;
  std::string history;
  std::string annotations;
  std::size_t journal_size = 0;
  OrderStamp next_stamp = kNoStamp;
  bool ran_ok = false;
  std::vector<double> output;
};

Snapshot Take(Session& s, const std::vector<double>& input) {
  Snapshot snap;
  snap.source = s.Source();
  snap.history = s.HistoryToString();
  snap.annotations = s.AnnotationsToString();
  snap.journal_size = s.journal().records().size();
  snap.next_stamp = s.history().next_stamp();
  const InterpResult r = s.Execute(input);
  snap.ran_ok = r.ok;
  snap.output = r.output;
  return snap;
}

void ExpectSame(const Snapshot& before, const Snapshot& after,
                const char* label) {
  EXPECT_EQ(before.source, after.source) << label;
  EXPECT_EQ(before.history, after.history) << label;
  EXPECT_EQ(before.annotations, after.annotations) << label;
  EXPECT_EQ(before.journal_size, after.journal_size) << label;
  EXPECT_EQ(before.next_stamp, after.next_stamp) << label;
  EXPECT_EQ(before.ran_ok, after.ran_ok) << label;
  EXPECT_EQ(before.output, after.output) << label;
}

// Runs `op` with a fault injected at crossing 1, then 2, ... until it
// completes un-faulted. Every faulted attempt must leave the session in
// its pre-operation state. Returns false if the operation failed for a
// non-fault reason (e.g. an undo legitimately blocked by an edit) — that
// failure must be traceless too.
template <typename Op>
bool RunWithExhaustiveFaults(Session& s, const std::vector<double>& input,
                             const char* label, Op&& op) {
  FaultInjector& injector = FaultInjector::Instance();
  for (int crossing = 1; crossing < 5000; ++crossing) {
    const Snapshot before = Take(s, input);
    injector.ArmNthCrossing(crossing);
    try {
      op();
      injector.Disarm();  // completed before the countdown ran out
      return true;
    } catch (const FaultInjectedError&) {
      ExpectSame(before, Take(s, input), label);
    } catch (const ProgramError&) {
      injector.Disarm();
      ExpectSame(before, Take(s, input), label);
      return false;
    }
  }
  ADD_FAILURE() << label << ": operation never completed";
  return false;
}

// Every crossing of a random apply/undo workload, faulted exhaustively.
TEST_P(FaultWalkProperty, EveryCrossingRollsBackCleanly) {
  Rng rng(GetParam() * 6364136223846793005ull + 1442695040888963407ull);
  RandomProgramOptions gen;
  gen.seed = GetParam() * 53 + 29;
  gen.target_stmts = 24;
  Program program = GenerateRandomProgram(gen);
  const std::string original_text = ToSource(program);
  const std::vector<double> input = InputFor(rng);

  SessionOptions options;
  options.strict = true;  // validate every committed transaction as well
  Session s(std::move(program), options);

  std::vector<OrderStamp> stamps;
  for (int step = 0; step < 10; ++step) {
    const TransformKind kind =
        TransformKindFromIndex(rng.UniformInt(0, kNumTransformKinds - 1));
    const auto ops = GetTransformation(kind).Find(s.analyses());
    if (ops.empty()) continue;
    const Opportunity op = ops[rng.Index(ops.size())];
    if (RunWithExhaustiveFaults(s, input, TransformKindName(kind),
                                [&] { s.Apply(op); })) {
      stamps.push_back(s.history().records().back().stamp);
    }
    ExpectValid(s.program());
  }

  // Unwind everything in random (independent) order, same treatment.
  rng.Shuffle(stamps);
  for (OrderStamp t : stamps) {
    if (s.history().FindByStamp(t)->undone) continue;
    RunWithExhaustiveFaults(s, input, "undo", [&] { s.Undo(t); });
    ExpectValid(s.program());
  }
  EXPECT_EQ(ToSource(s.program()), original_text);

  // The walk exercised real faults and every one was absorbed by a
  // rollback; the validator signed off on every commit.
  const RecoveryReport& rep = s.recovery();
  EXPECT_EQ(rep.faults_absorbed, rep.rollbacks);
  EXPECT_GT(rep.rollbacks, 0u);
  EXPECT_EQ(rep.validator_failures, 0u);
  EXPECT_EQ(rep.commits + rep.rollbacks, rep.transactions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultWalkProperty,
                         ::testing::Values(2, 5, 8, 11, 14, 17));

// A deterministic apply-everything / undo-everything workload. When a
// script is armed for `point`, the one fault it fires must be absorbed
// tracelessly and the spent operation must succeed on retry; returns
// whether the fault fired at all.
bool RunArmedWorkload(Session& s, const std::vector<double>& input,
                      const std::string& point) {
  bool hit = false;
  auto attempt = [&](auto&& op) {
    const Snapshot before = Take(s, input);
    try {
      op();
    } catch (const FaultInjectedError& e) {
      EXPECT_EQ(e.point(), point);
      ExpectSame(before, Take(s, input), point.c_str());
      hit = true;
      op();  // the script is spent; the retry must commit
    }
  };
  for (int i = 0; i < kNumTransformKinds; ++i) {
    const TransformKind kind = TransformKindFromIndex(i);
    for (int n = 0; n < 4; ++n) {
      // Opportunity discovery can cross analysis.rebuild.pre outside any
      // transaction; that is safe (caches are consistent, the rebuild is
      // lazy) but must be just as traceless.
      std::vector<Opportunity> ops;
      attempt([&] { ops = GetTransformation(kind).Find(s.analyses()); });
      if (ops.empty()) break;
      attempt([&] { s.Apply(ops.front()); });
    }
  }
  while (true) {
    TransformRecord* last = s.history().LastLive();
    if (last == nullptr) break;
    const OrderStamp t = last->stamp;
    attempt([&] { s.Undo(t); });
  }
  return hit;
}

// Arm every registered fault point in turn: each point the workload
// crosses must fire exactly there and roll back to a bit-identical state;
// after the rollback the identical deterministic trajectory resumes.
TEST_F(FaultInjection, EveryRegisteredPointInTurn) {
  const std::vector<double> input = {2, 1.5};
  RandomProgramOptions gen;
  gen.seed = 777;
  gen.target_stmts = 28;

  // First an un-armed observing run to learn which of the registered
  // points this workload actually crosses.
  FaultInjector::Instance().StartObserving();
  {
    Session s(GenerateRandomProgram(gen));
    RunArmedWorkload(s, input, "");
  }
  const std::vector<std::string> crossed =
      FaultInjector::Instance().observed_points();
  FaultInjector::Instance().Reset();
  ASSERT_GE(crossed.size(), 10u)
      << "workload too small to exercise the fault surface";
  for (const std::string& point : crossed) {
    EXPECT_NE(std::find(FaultInjector::KnownPoints().begin(),
                        FaultInjector::KnownPoints().end(), point),
              FaultInjector::KnownPoints().end());
  }

  for (const std::string& point : crossed) {
    Session s(GenerateRandomProgram(gen));
    FaultInjector::Instance().Arm(point);
    EXPECT_TRUE(RunArmedWorkload(s, input, point))
        << point << " observed but never fired when armed";
    EXPECT_EQ(FaultInjector::Instance().faults_fired(), 1u) << point;
    FaultInjector::Instance().Reset();
  }
}

// Probabilistic soak: random faults at 4% per crossing over a larger
// workload; every absorbed fault must be traceless.
TEST_P(FaultWalkProperty, ProbabilisticSoakStaysConsistent) {
  Rng rng(GetParam() ^ 0x9e3779b9);
  RandomProgramOptions gen;
  gen.seed = GetParam() * 193 + 71;
  gen.target_stmts = 26;
  Program program = GenerateRandomProgram(gen);
  const std::vector<double> input = InputFor(rng);

  SessionOptions options;
  options.strict = true;
  Session s(std::move(program), options);
  FaultInjector::Instance().ArmProbabilistic(0.04, GetParam() * 31 + 7);

  std::vector<OrderStamp> stamps;
  for (int step = 0; step < 60; ++step) {
    const Snapshot before = Take(s, input);
    try {
      if (!stamps.empty() && rng.Chance(0.4)) {
        const OrderStamp t = stamps[rng.Index(stamps.size())];
        if (!s.history().FindByStamp(t)->undone) s.Undo(t);
      } else {
        const TransformKind kind = TransformKindFromIndex(
            rng.UniformInt(0, kNumTransformKinds - 1));
        const auto ops = GetTransformation(kind).Find(s.analyses());
        if (ops.empty()) continue;
        s.Apply(ops[rng.Index(ops.size())]);
        stamps.push_back(s.history().records().back().stamp);
      }
    } catch (const FaultInjectedError&) {
      ExpectSame(before, Take(s, input), "soak");
    } catch (const ProgramError&) {
      ExpectSame(before, Take(s, input), "soak-blocked");
    }
    ExpectValid(s.program());
  }
  FaultInjector::Instance().Disarm();
  EXPECT_TRUE(s.Validate().ok()) << s.Validate().ToString();
  EXPECT_EQ(s.recovery().validator_failures, 0u);
}

// The stale-opportunity path: applying an opportunity whose pre-condition
// no longer holds throws and leaves journal, history and the stamp counter
// untouched — no half-issued transaction.
TEST_F(FaultInjection, StaleOpportunityLeavesStateUntouched) {
  Session s(Parse("x = 1\nx = 2\nwrite x"));
  const auto ops = s.FindOpportunities(TransformKind::kDce);
  ASSERT_FALSE(ops.empty());
  s.Apply(ops.front());  // consumes the dead store

  const Snapshot before = Take(s, {});
  EXPECT_THROW(s.Apply(ops.front()), ProgramError);  // now stale
  ExpectSame(before, Take(s, {}), "stale-apply");
  EXPECT_EQ(s.recovery().rollbacks, 1u);
  EXPECT_EQ(s.recovery().faults_absorbed, 0u);  // not an injected fault
}

// A scripted fault at a named point is absorbed, reported, and the same
// operation succeeds on retry.
TEST_F(FaultInjection, ScriptedFaultIsAbsorbedAndReported) {
  Session s(Parse("c = 1\nx = c\nwrite x\nwrite c"));
  const auto ops = s.FindOpportunities(TransformKind::kCtp);
  ASSERT_FALSE(ops.empty());

  FaultInjector::Instance().Arm("journal.modify.pre");
  const Snapshot before = Take(s, {});
  EXPECT_THROW(s.Apply(ops.front()), FaultInjectedError);
  ExpectSame(before, Take(s, {}), "scripted");

  const RecoveryReport& rep = s.recovery();
  EXPECT_EQ(rep.rollbacks, 1u);
  EXPECT_EQ(rep.faults_absorbed, 1u);
  ASSERT_EQ(rep.fault_points_hit.size(), 1u);
  EXPECT_EQ(rep.fault_points_hit.front(), "journal.modify.pre");
  EXPECT_NE(rep.last_rollback_reason.find("journal.modify.pre"),
            std::string::npos);

  // The script is spent; the retry commits.
  s.Apply(ops.front());
  EXPECT_EQ(s.recovery().commits, 1u);
  EXPECT_NE(s.AnnotationsToString().find("md_"), std::string::npos);
}

// A misspelt or retired point name must not arm silently: such a script
// never fires, and a one-shot Arm test would then pass without testing
// anything.
TEST_F(FaultInjection, ArmRefusesNamesNoSiteCrosses) {
  FaultInjector& injector = FaultInjector::Instance();
  EXPECT_THROW(injector.Arm("journal.modify.pree"), InternalError);
  EXPECT_THROW(injector.Arm("server.evict.compact.pre"), InternalError);
  EXPECT_THROW(injector.Arm("wal.write.transient"), InternalError);
  EXPECT_THROW(injector.ArmTransient("persist.txn.mid", 1), InternalError);
  EXPECT_THROW(injector.ArmTransient("wal.read.transient", 1), InternalError);
  EXPECT_FALSE(injector.armed());

  for (const std::string& point : FaultInjector::KnownPoints()) {
    injector.Arm(point);
  }
  injector.ArmTransient("wal.write.transient", 1);
  injector.ArmTransient("wal.fsync.transient", 1);
  EXPECT_TRUE(injector.armed());
}

// Strict mode re-checks cross-layer invariants before every commit and
// rolls the transaction back when they fail.
TEST_F(FaultInjection, StrictModeRejectsIncoherentState) {
  SessionOptions options;
  options.strict = true;
  Session s(Parse("x = 1\nx = 2\nwrite x"), options);

  // A committed healthy transaction first.
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce).has_value());
  EXPECT_EQ(s.recovery().validator_runs, 1u);
  EXPECT_EQ(s.recovery().validator_failures, 0u);
  s.Undo(1);

  // Corrupt the annotation layer behind the session's back: an annotation
  // naming an action the journal never issued.
  Annotation bogus;
  bogus.kind = ActionKind::kMove;
  bogus.stamp = 1;
  bogus.action = ActionId(9999);
  s.journal().annotations().AddStmt(s.program().top().front()->id, bogus);
  EXPECT_FALSE(s.Validate().ok());

  const std::size_t history_before = s.history().size();
  const auto ops = s.FindOpportunities(TransformKind::kDce);
  ASSERT_FALSE(ops.empty());
  EXPECT_THROW(s.Apply(ops.front()), ProgramError);
  EXPECT_EQ(s.history().size(), history_before);  // rolled back
  EXPECT_EQ(s.recovery().validator_failures, 1u);
  EXPECT_NE(s.recovery().last_rollback_reason.find("validator"),
            std::string::npos);
}

// Observation mode: a full apply-everything-undo-everything workload
// traverses known fault points only, and covers the journal, analysis and
// undo-cascade layers.
TEST_F(FaultInjection, WorkloadTraversesKnownPoints) {
  FaultInjector::Instance().StartObserving();

  RandomProgramOptions gen;
  gen.seed = 4242;
  gen.target_stmts = 30;
  Session s(GenerateRandomProgram(gen));
  for (int i = 0; i < kNumTransformKinds; ++i) {
    s.ApplyEverywhere(TransformKindFromIndex(i), 4);
  }
  UndoStats stats;
  while (true) {
    TransformRecord* last = s.history().LastLive();
    if (last == nullptr) break;
    stats += s.Undo(last->stamp);
  }
  FaultInjector::Instance().StopObserving();

  const auto& known = FaultInjector::KnownPoints();
  const auto& observed = FaultInjector::Instance().observed_points();
  for (const std::string& point : observed) {
    EXPECT_NE(std::find(known.begin(), known.end(), point), known.end())
        << "unregistered fault point: " << point;
  }
  for (const char* expected :
       {"journal.invert.pre", "journal.invert.post", "analysis.rebuild.pre",
        "undo.region.pre"}) {
    EXPECT_NE(std::find(observed.begin(), observed.end(), expected),
              observed.end())
        << "workload never crossed " << expected;
  }
  EXPECT_GE(observed.size(), 8u);
  // The undo stats surfaced the failure surface it walked.
  EXPECT_GT(stats.fault_crossings, 0);
}

}  // namespace
}  // namespace pivot
