// Replays a recorded stream of session calls one layer lower, for the
// traced run.
//
// The untraced run records what it asked of the library (which opportunity
// it applied, which stamps it undid, where it scored or previewed). The
// traced run executes that stream twice on fresh sessions built from the
// same source: an untimed counting pass records, for every read-only call
// (FindOpportunities, ScoreProgram, Preview), which analysis families the
// call rebuilt; the timed pass then builds exactly those families in
// analysis.<family> spans right before the call, so the call's own span
// holds only its own layer's work. Rebuilds inside mutating calls stay
// inside their spans and are counted, not timed.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "harness.h"
#include "pivot/core/session.h"

namespace perfbench {

struct ReplayOp {
  enum class Type { kApply, kScore, kUndo, kUndoSet, kPreview };
  Type type = Type::kApply;
  pivot::TransformKind kind = pivot::TransformKind::kDce;  // kApply
  int index = 0;                        // kApply: into FindOpportunities(kind)
  std::vector<pivot::OrderStamp> stamps;  // kUndo / kUndoSet / kPreview
  std::int64_t op = 0;                  // the workload op this call serves
};

struct ReplayCounters {
  pivot::UndoStats undo;
  std::uint64_t undo_targets = 0;  // stamps the undo calls asked for
  std::uint64_t find_calls = 0;
  std::uint64_t opportunities = 0;
  std::uint64_t failures = 0;  // calls that threw (rolled back)
  double last_score = 0.0;
};

// Counting pass: executes `ops` untimed and returns one family mask per
// read-only call, in call order.
std::vector<std::uint16_t> CountRebuilds(pivot::Session& session,
                                         const std::vector<ReplayOp>& ops,
                                         ReplayCounters& counters);

// Timed pass: executes `ops` with spans ("op" per workload op, then
// analysis.<family>, transform.find, core.apply, core.undo, core.preview,
// search.score inside it). `masks` comes from CountRebuilds on the same
// stream.
void TimedReplay(pivot::Session& session, const std::vector<ReplayOp>& ops,
                 const std::vector<std::uint16_t>& masks, Tracer& tracer,
                 ReplayCounters& counters);

// Adds the per-layer metrics every replaying workload shares: transform.*,
// core.apply_us, core.undo_us, core.undo.*, actions.inverted,
// search.score_us. `ops` is the number of workload ops the stream holds.
void AddReplayMetrics(Result& result, const SpanTotals& totals,
                      const ReplayCounters& counters, double ops);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
