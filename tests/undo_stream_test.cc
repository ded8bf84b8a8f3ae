// Pins the undo engine's decisions on a long seeded stream shaped like the
// undo_independent benchmark workload: a 300-statement random program over
// 48-name pools, 300 set-up applies, then ops that undo one live record
// (50%), batch-undo three (15%) or preview one (35%), never touching the
// newest record, with a random apply whenever the live count drops below
// the set-up level. The summed UndoStats and the CRC of the final source
// are compared, once per candidate source (RegionIndex queries and the
// history walk), with constants recorded from the engine that still had a
// separate scan per source: any drift means the engine now decides, counts
// or cascades differently.
//
// The safety-ownership fix on the ROADMAP changes what CheckSafety answers
// on this stream, so it changes these constants too; re-record them there.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/random_program.h"
#include "pivot/support/crc32c.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/rng.h"
#include "pivot/transform/catalog.h"

namespace pivot {
namespace {

constexpr int kSetupApplies = 300;
constexpr int kStreamOps = 1500;

struct Totals {
  int candidates_total = 0;
  int candidates_in_region = 0;
  int candidates_marked = 0;
  int safety_checks = 0;
  int reversibility_checks = 0;
  int transforms_undone = 0;
  int actions_inverted = 0;
  int rolled_back = 0;  // ops whose ProgramError rolled the session back
  std::uint32_t source_crc = 0;
};

bool ApplyRandom(Session& s, Rng& rng) {
  std::vector<TransformKind> kinds = AllTransformKinds();
  rng.Shuffle(kinds);
  for (const TransformKind kind : kinds) {
    const std::vector<Opportunity> found = s.FindOpportunities(kind);
    if (found.empty()) continue;
    s.Apply(found[rng.Index(found.size())]);
    return true;
  }
  return false;
}

// `count` distinct live stamps, never the newest live record.
std::vector<OrderStamp> PickOlder(const std::vector<TransformRecord*>& live,
                                  Rng& rng, std::size_t count) {
  std::vector<OrderStamp> picked;
  while (picked.size() < count) {
    const OrderStamp stamp = live[rng.Index(live.size() - 1)]->stamp;
    bool seen = false;
    for (const OrderStamp s : picked) seen = seen || s == stamp;
    if (!seen) picked.push_back(stamp);
  }
  return picked;
}

Totals RunStream(bool indexed) {
  RandomProgramOptions gen;
  gen.seed = 21;
  gen.target_stmts = 300;
  gen.num_scalars = 48;
  gen.num_arrays = 16;
  UndoOptions options;
  options.indexed = indexed;
  Session s(GenerateRandomProgram(gen), options);
  Rng rng(21);
  for (int i = 0; i < kSetupApplies; ++i) {
    if (!ApplyRandom(s, rng)) break;
  }
  const std::size_t live_target = s.history().Live().size();

  UndoStats stats;
  int rolled_back = 0;
  for (int op = 0; op < kStreamOps; ++op) {
    const std::vector<TransformRecord*> live = s.history().Live();
    try {
      if (live.size() < live_target || live.size() < 4) {
        ApplyRandom(s, rng);
        continue;
      }
      const double draw = rng.UniformReal();
      if (draw < 0.50) {
        stats += s.Undo(PickOlder(live, rng, 1)[0]);
      } else if (draw < 0.65) {
        stats += s.UndoSet(PickOlder(live, rng, 3));
      } else {
        s.engine().Preview(PickOlder(live, rng, 1)[0]);
      }
    } catch (const ProgramError&) {
      ++rolled_back;
    }
  }
  return Totals{stats.candidates_total,     stats.candidates_in_region,
                stats.candidates_marked,    stats.safety_checks,
                stats.reversibility_checks, stats.transforms_undone,
                stats.actions_inverted,     rolled_back,
                Crc32c(s.Source())};
}

struct Pinned {
  bool indexed;
  Totals want;
};

void PrintTo(const Pinned& pinned, std::ostream* os) {
  *os << (pinned.indexed ? "RegionIndex" : "HistoryWalk");
}

class UndoStreamPin : public ::testing::TestWithParam<Pinned> {};

TEST_P(UndoStreamPin, SummedStatsAndFinalSourceMatchTheRecordedRun) {
  const Totals want = GetParam().want;
  const Totals got = RunStream(GetParam().indexed);
  EXPECT_EQ(got.candidates_total, want.candidates_total);
  EXPECT_EQ(got.candidates_in_region, want.candidates_in_region);
  EXPECT_EQ(got.candidates_marked, want.candidates_marked);
  EXPECT_EQ(got.safety_checks, want.safety_checks);
  EXPECT_EQ(got.reversibility_checks, want.reversibility_checks);
  EXPECT_EQ(got.transforms_undone, want.transforms_undone);
  EXPECT_EQ(got.actions_inverted, want.actions_inverted);
  EXPECT_EQ(got.rolled_back, want.rolled_back);
  EXPECT_EQ(got.source_crc, want.source_crc);
}

// The counters differ between the sources: the history walk examines every
// later live record, the index only those it selects, and only the indexed
// engine takes the newest-record fast path that skips the blocker loop and
// the scans. The decisions, and so the final source, are the same.
INSTANTIATE_TEST_SUITE_P(
    Sources, UndoStreamPin,
    ::testing::Values(
        Pinned{true,
               {21791, 21761, 16790, 17122, 1312, 993, 1735, 0, 638867341u}},
        Pinned{false,
               {117931, 21761, 16790, 17123, 1316, 993, 1735, 0, 638867341u}}),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(info.param.indexed ? "RegionIndex" : "HistoryWalk");
    });

}  // namespace
}  // namespace pivot
