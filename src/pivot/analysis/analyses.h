// AnalysisCache: epoch-validated facade over all analyses.
//
// Transformations and the undo engine query analyses through this cache;
// every Program mutation bumps the program epoch, and stale results are
// rebuilt lazily on next access. The rebuild counters feed the paper's
// event-driven-regional-undo benchmarks (how much re-analysis each undo
// strategy triggers).
//
// Invalidation tiers (see DESIGN.md §8):
//   1. Baseline (AnalysisOptions::incremental == false): any epoch bump
//      drops every family; each is re-derived from scratch on next access.
//   2. Per-family validity: each analysis family carries its own validity
//      flag, so a stale epoch re-derives only the families actually
//      queried afterwards, and the cheap structural families are managed
//      independently of the expensive semantic ones.
//   3. Region-scoped (incremental == true): the cache listens to the
//      program's mutation stream. An epoch window containing only pure
//      expression replacements leaves the statement tree's *shape* intact,
//      so the structural families (flatten, CFG, dominators, and — when no
//      loop header was touched — the loop tree) are carried over
//      unrebuilt; block-local facts (per-node gen/kill input, per-block
//      DAGs) are recomputed for dirty statements only, reseeding the
//      global data-flow solvers from the unchanged remainder. Structural
//      mutations fall back to tier 1 for that window.
#ifndef PIVOT_ANALYSIS_ANALYSES_H_
#define PIVOT_ANALYSIS_ANALYSES_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>

#include "pivot/analysis/cfg.h"
#include "pivot/analysis/dag.h"
#include "pivot/analysis/dataflow.h"
#include "pivot/analysis/defuse.h"
#include "pivot/analysis/depend.h"
#include "pivot/analysis/dominators.h"
#include "pivot/analysis/flatten.h"
#include "pivot/analysis/loops.h"
#include "pivot/analysis/pdg.h"
#include "pivot/analysis/summary.h"

namespace pivot {

struct AnalysisOptions {
  // Region-scoped invalidation driven by the program's mutation stream;
  // off = the paper's non-regional baseline (drop everything, rebuild all).
  bool incremental = false;
};

class AnalysisCache final : public Program::MutationListener {
 public:
  // The thirteen analysis families the cache manages. Order = dependency
  // order (a family only depends on earlier ones).
  enum class Family {
    kFlat,
    kCfg,
    kDoms,
    kLoops,
    kFacts,
    kReaching,
    kLiveness,
    kAvail,
    kDefuse,
    kDeps,
    kPdg,
    kSummaries,
    kBlockDags,
  };
  static constexpr int kNumFamilies = 13;

  explicit AnalysisCache(Program& program, AnalysisOptions options = {});
  ~AnalysisCache() override;
  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  Program& program() { return program_; }
  const AnalysisOptions& options() const { return options_; }

  const FlatProgram& flat();
  const Cfg& cfg();
  const Dominators& doms();
  const ProgramFacts& facts();
  const ReachingDefs& reaching();
  const Liveness& liveness();
  const AvailExprs& avail();
  const DefUseChains& defuse();
  const LoopTree& loops();
  const std::vector<Dependence>& deps();
  const Pdg& pdg();
  const DependenceSummaries& summaries();
  const BlockDags& block_dags();

  // Drops every cached result unconditionally and forgets the validated
  // epoch entirely, so the next access always re-derives — even when the
  // program epoch has not moved since. (The old implementation reset the
  // cached epoch to 0, a value a program epoch could alias, letting an
  // explicitly invalidated cache be judged up to date.)
  void Invalidate();

  // Builds every stale family now, in dependency order.
  void PrimeAll();

  // Number of from-scratch family re-derivations since construction — the
  // re-analysis cost metric used by the benchmarks. Incremental refreshes
  // (facts nodes, reused block DAGs) are counted separately below.
  std::uint64_t rebuild_count() const { return total_rebuilds_; }
  std::uint64_t family_rebuilds(Family family) const {
    return rebuilds_[static_cast<std::size_t>(family)];
  }

  // --- incremental-path observability (benchmarks, tests) ---
  std::uint64_t epochs_refreshed() const { return epochs_refreshed_; }
  // Families carried across an epoch window without a rebuild.
  std::uint64_t families_retained() const { return families_retained_; }
  // Dirty CFG nodes whose block-local facts were recomputed in place.
  std::uint64_t facts_nodes_refreshed() const {
    return facts_nodes_refreshed_;
  }
  // Per-block DAGs carried over / rebuilt by incremental refreshes.
  std::uint64_t dag_blocks_reused() const { return dag_blocks_reused_; }
  std::uint64_t dag_blocks_rebuilt() const { return dag_blocks_rebuilt_; }

  // Program::MutationListener: feeds the dirty set.
  void OnProgramMutation(StmtId stmt, bool structural) override;

 private:
  // Brings the cache's validity bookkeeping up to the current program
  // epoch: classifies the pending mutation window and either drops
  // everything (structural / baseline) or retains the structural families
  // and refreshes block-local facts for the dirty statements.
  void Refresh();
  void DropAll();
  // Expression-only window: retain shape-invariant families, refresh the
  // dirty statements' block-local facts and block DAGs in place.
  void RefreshExpressionOnly();
  void RefreshDirtyFacts();
  void RefreshDirtyBlockDags();
  void CountRebuild(Family family);
  void NoteRetained(int families) {
    families_retained_ += static_cast<std::uint64_t>(families);
  }

  Program& program_;
  AnalysisOptions options_;

  // nullopt = nothing validated (fresh or explicitly invalidated): the
  // sentinel can never alias a real program epoch.
  std::optional<std::uint64_t> valid_epoch_;

  // Mutation window since valid_epoch_ (fed by OnProgramMutation).
  bool structural_dirty_ = false;
  std::unordered_set<StmtId> dirty_stmts_;

  std::array<std::uint64_t, kNumFamilies> rebuilds_{};
  std::uint64_t total_rebuilds_ = 0;
  std::uint64_t epochs_refreshed_ = 0;
  std::uint64_t families_retained_ = 0;
  std::uint64_t facts_nodes_refreshed_ = 0;
  std::uint64_t dag_blocks_reused_ = 0;
  std::uint64_t dag_blocks_rebuilt_ = 0;

  std::optional<FlatProgram> flat_;
  std::optional<Cfg> cfg_;
  std::optional<Dominators> doms_;
  std::optional<ProgramFacts> facts_;
  std::optional<ReachingDefs> reaching_;
  std::optional<Liveness> liveness_;
  std::optional<AvailExprs> avail_;
  std::optional<DefUseChains> defuse_;
  std::optional<LoopTree> loops_;
  std::optional<std::vector<Dependence>> deps_;
  std::optional<Pdg> pdg_;
  std::optional<DependenceSummaries> summaries_;
  std::optional<BlockDags> block_dags_;
};

}  // namespace pivot

#endif  // PIVOT_ANALYSIS_ANALYSES_H_
