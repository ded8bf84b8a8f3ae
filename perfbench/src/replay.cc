#include "replay.h"

#include <limits>

#include "pivot/search/cost.h"
#include "pivot/support/diagnostics.h"

namespace perfbench {
namespace {

// One executor for both passes: with `record` set it counts rebuilds per
// read-only call; otherwise it primes from `masks` and records spans.
void Execute(pivot::Session& session, const std::vector<ReplayOp>& ops,
             std::vector<std::uint16_t>* record,
             const std::vector<std::uint16_t>* masks, Tracer* tracer,
             ReplayCounters& counters) {
  pivot::AnalysisCache& cache = session.analyses();
  std::size_t next_mask = 0;
  auto read_call = [&](const char* span, std::int64_t op, auto&& fn) {
    if (record != nullptr) {
      const FamilyCounts before = ReadFamilies(cache);
      fn();
      record->push_back(RebuiltMask(before, ReadFamilies(cache)));
      return;
    }
    PrimeFamilies(cache, (*masks)[next_mask++], *tracer, op);
    tracer->Time(span, op, fn);
  };
  auto write_call = [&](const char* span, std::int64_t op, auto&& fn) {
    try {
      if (tracer != nullptr) {
        tracer->Time(span, op, fn);
      } else {
        fn();
      }
    } catch (const pivot::ProgramError&) {
      ++counters.failures;  // the session rolled the call back
    }
  };

  std::int64_t open_op = std::numeric_limits<std::int64_t>::min();
  int op_span = -1;
  for (const ReplayOp& r : ops) {
    if (tracer != nullptr && r.op != open_op) {
      if (op_span >= 0) tracer->End(op_span);
      op_span = tracer->Begin("op", r.op);
      open_op = r.op;
    }
    switch (r.type) {
      case ReplayOp::Type::kApply: {
        std::vector<pivot::Opportunity> found;
        read_call("transform.find", r.op,
                  [&] { found = session.FindOpportunities(r.kind); });
        ++counters.find_calls;
        counters.opportunities += found.size();
        if (static_cast<std::size_t>(r.index) >= found.size()) {
          ++counters.failures;
          break;
        }
        write_call("core.apply", r.op, [&] {
          session.Apply(found[static_cast<std::size_t>(r.index)]);
        });
        break;
      }
      case ReplayOp::Type::kScore:
        read_call("search.score", r.op, [&] {
          counters.last_score = pivot::ScoreProgram(cache).score;
        });
        break;
      case ReplayOp::Type::kUndo:
        counters.undo_targets += 1;
        write_call("core.undo", r.op,
                   [&] { counters.undo += session.Undo(r.stamps[0]); });
        break;
      case ReplayOp::Type::kUndoSet:
        counters.undo_targets += r.stamps.size();
        write_call("core.undo", r.op,
                   [&] { counters.undo += session.UndoSet(r.stamps); });
        break;
      case ReplayOp::Type::kPreview:
        read_call("core.preview", r.op,
                  [&] { session.engine().Preview(r.stamps[0]); });
        break;
    }
  }
  if (op_span >= 0) tracer->End(op_span);
}

}  // namespace

std::vector<std::uint16_t> CountRebuilds(pivot::Session& session,
                                         const std::vector<ReplayOp>& ops,
                                         ReplayCounters& counters) {
  std::vector<std::uint16_t> masks;
  Execute(session, ops, &masks, nullptr, nullptr, counters);
  return masks;
}

void TimedReplay(pivot::Session& session, const std::vector<ReplayOp>& ops,
                 const std::vector<std::uint16_t>& masks, Tracer& tracer,
                 ReplayCounters& counters) {
  Execute(session, ops, nullptr, &masks, &tracer, counters);
}

void AddReplayMetrics(Result& result, const SpanTotals& totals,
                      const ReplayCounters& c, double ops) {
  auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
  result.Add("transform.find_us", PerOp(totals, "transform.find", ops),
             "us/op");
  result.Add("transform.find_calls",
             per_op(static_cast<double>(c.find_calls)), "count/op");
  result.Add("transform.opportunities",
             c.find_calls > 0 ? static_cast<double>(c.opportunities) /
                                    static_cast<double>(c.find_calls)
                              : 0.0,
             "count");
  result.Add("core.apply_us", PerOp(totals, "core.apply", ops), "us/op");
  result.Add("core.undo_us", PerOp(totals, "core.undo", ops), "us/op");
  result.Add("search.score_us", PerOp(totals, "search.score", ops), "us/op");
  result.Add("actions.inverted",
             per_op(static_cast<double>(c.undo.actions_inverted)), "count/op");

  const pivot::UndoStats& u = c.undo;
  result.Add("core.undo.transforms_undone",
             per_op(static_cast<double>(u.transforms_undone)), "count/op");
  result.Add("core.undo.candidates",
             per_op(static_cast<double>(u.candidates_total)), "count/op");
  result.Add("core.undo.in_region",
             per_op(static_cast<double>(u.candidates_in_region)), "count/op");
  result.Add("core.undo.marked",
             per_op(static_cast<double>(u.candidates_marked)), "count/op");
  result.Add("core.undo.safety_checks",
             per_op(static_cast<double>(u.safety_checks)), "count/op");
  result.Add("core.undo.reversibility_checks",
             per_op(static_cast<double>(u.reversibility_checks)), "count/op");
  result.Add("core.undo.analysis_rebuilds",
             per_op(static_cast<double>(u.analysis_rebuilds)), "count/op");
  result.Add("core.undo.prune_frac",
             u.candidates_total > 0
                 ? static_cast<double>(u.candidates_marked) /
                       u.candidates_total
                 : 0.0,
             "frac");
  const double cascaded =
      static_cast<double>(u.transforms_undone) -
      static_cast<double>(c.undo_targets);
  result.Add("core.undo.check_yield",
             u.safety_checks > 0 && cascaded > 0
                 ? cascaded / u.safety_checks
                 : 0.0,
             "frac");
}

}  // namespace perfbench
