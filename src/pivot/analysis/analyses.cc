#include "pivot/analysis/analyses.h"

#include <utility>
#include <vector>

#include "pivot/support/fault_injector.h"

namespace pivot {

AnalysisCache::AnalysisCache(Program& program, AnalysisOptions options)
    : program_(program), options_(options) {
  program_.AddMutationListener(this);
}

AnalysisCache::~AnalysisCache() { program_.RemoveMutationListener(this); }

void AnalysisCache::OnProgramMutation(StmtId stmt, bool structural) {
  if (structural) structural_dirty_ = true;
  if (stmt.valid()) dirty_stmts_.insert(stmt);
}

void AnalysisCache::CountRebuild(Family family) {
  ++rebuilds_[static_cast<std::size_t>(family)];
  ++total_rebuilds_;
}

void AnalysisCache::Refresh() {
  if (valid_epoch_ == program_.epoch()) return;
  // A re-derivation window is about to start; transactional callers must
  // survive a failure here (the caches are already consistent — lazy
  // rebuild just restarts on the next query).
  PIVOT_FAULT_POINT("analysis.rebuild.pre");
  const bool expression_only =
      options_.incremental && valid_epoch_.has_value() && !structural_dirty_;
  if (expression_only) {
    RefreshExpressionOnly();
  } else {
    DropAll();
  }
  valid_epoch_ = program_.epoch();
  structural_dirty_ = false;
  dirty_stmts_.clear();
  ++epochs_refreshed_;
}

void AnalysisCache::DropAll() {
  // Dependents first (they hold references into their prerequisites).
  summaries_.reset();
  pdg_.reset();
  deps_.reset();
  loops_.reset();
  defuse_.reset();
  avail_.reset();
  liveness_.reset();
  reaching_.reset();
  facts_.reset();
  doms_.reset();
  cfg_.reset();
  flat_.reset();
  block_dags_.reset();
}

void AnalysisCache::RefreshExpressionOnly() {
  // Shape-invariant families: the statement tree kept its structure, so the
  // flatten order, the CFG, and its dominator tree still describe the
  // program exactly.
  int retained = 0;
  if (flat_) ++retained;
  if (cfg_) ++retained;
  if (doms_) ++retained;

  // The loop tree caches constant bounds parsed from header expressions, so
  // it survives only windows that left every loop header untouched.
  bool loop_header_dirty = false;
  for (const StmtId id : dirty_stmts_) {
    const Stmt* stmt = program_.FindStmt(id);
    if (stmt != nullptr && stmt->kind == StmtKind::kDo) {
      loop_header_dirty = true;
      break;
    }
  }
  if (loops_) {
    if (loop_header_dirty) {
      loops_.reset();
    } else {
      ++retained;
    }
  }

  if (facts_ && cfg_) {
    RefreshDirtyFacts();
    ++retained;
  } else {
    facts_.reset();
  }
  if (block_dags_) {
    RefreshDirtyBlockDags();
    ++retained;
  }
  NoteRetained(retained);

  // Replaced expressions change what the dirty nodes define and use, so
  // every global solver result is stale. They are rebuilt from the bottom
  // (never warm-started): an over-seeded may-analysis can converge above
  // the least fixpoint, and the differential harness demands bit-identical
  // answers. Incrementality comes from the retained inputs above.
  summaries_.reset();
  pdg_.reset();
  deps_.reset();
  defuse_.reset();
  avail_.reset();
  liveness_.reset();
  reaching_.reset();
}

void AnalysisCache::RefreshDirtyFacts() {
  for (const StmtId id : dirty_stmts_) {
    Stmt* stmt = program_.FindStmt(id);
    // Mutations on detached subtrees (e.g. building a replacement off-tree)
    // dirty ids with no CFG node; nothing cached depends on them.
    if (stmt == nullptr || !stmt->attached) continue;
    const auto it = cfg_->node_of.find(id);
    if (it == cfg_->node_of.end()) continue;
    facts_->node_facts[static_cast<std::size_t>(it->second)] =
        ComputeNodeFacts(*stmt, facts_->names);
    ++facts_nodes_refreshed_;
  }
}

void AnalysisCache::RefreshDirtyBlockDags() {
  BlockDags next;
  next.blocks = CollectBasicBlocks(program_);
  next.dags.reserve(next.blocks.size());
  for (std::size_t b = 0; b < next.blocks.size(); ++b) {
    const BasicBlock& block = next.blocks[b];
    bool dirty = false;
    for (const Stmt* stmt : block.stmts) {
      if (dirty_stmts_.count(stmt->id) != 0) {
        dirty = true;
        break;
      }
    }
    const bool reusable = !dirty && b < block_dags_->blocks.size() &&
                          SameBlockStmts(block, block_dags_->blocks[b]);
    if (reusable) {
      next.dags.push_back(block_dags_->dags[b]);
      ++dag_blocks_reused_;
    } else {
      next.dags.push_back(std::make_shared<const BlockDag>(block));
      ++dag_blocks_rebuilt_;
    }
    for (const Stmt* stmt : block.stmts) {
      next.block_of[stmt->id] = static_cast<int>(b);
    }
  }
  *block_dags_ = std::move(next);
}

void AnalysisCache::Invalidate() {
  // No fault point here: rollback recovery calls Invalidate to discard
  // possibly half-built results, and recovery itself must not fault.
  DropAll();
  valid_epoch_.reset();
  structural_dirty_ = false;
  dirty_stmts_.clear();
}

const FlatProgram& AnalysisCache::flat() {
  Refresh();
  if (!flat_) {
    flat_.emplace(Flatten(program_));
    CountRebuild(Family::kFlat);
  }
  return *flat_;
}

const Cfg& AnalysisCache::cfg() {
  Refresh();
  if (!cfg_) {
    cfg_.emplace(BuildCfg(program_));
    CountRebuild(Family::kCfg);
  }
  return *cfg_;
}

const Dominators& AnalysisCache::doms() {
  Refresh();
  if (!doms_) {
    doms_.emplace(cfg());
    CountRebuild(Family::kDoms);
  }
  return *doms_;
}

const ProgramFacts& AnalysisCache::facts() {
  Refresh();
  if (!facts_) {
    facts_.emplace(ComputeFacts(cfg()));
    CountRebuild(Family::kFacts);
  }
  return *facts_;
}

const ReachingDefs& AnalysisCache::reaching() {
  Refresh();
  if (!reaching_) {
    const Cfg& c = cfg();
    reaching_.emplace(c, facts());
    CountRebuild(Family::kReaching);
  }
  return *reaching_;
}

const Liveness& AnalysisCache::liveness() {
  Refresh();
  if (!liveness_) {
    const Cfg& c = cfg();
    liveness_.emplace(c, facts());
    CountRebuild(Family::kLiveness);
  }
  return *liveness_;
}

const AvailExprs& AnalysisCache::avail() {
  Refresh();
  if (!avail_) {
    const Cfg& c = cfg();
    avail_.emplace(c, facts());
    CountRebuild(Family::kAvail);
  }
  return *avail_;
}

const DefUseChains& AnalysisCache::defuse() {
  Refresh();
  if (!defuse_) {
    const Cfg& c = cfg();
    defuse_.emplace(c, facts(), reaching());
    CountRebuild(Family::kDefuse);
  }
  return *defuse_;
}

const LoopTree& AnalysisCache::loops() {
  Refresh();
  if (!loops_) {
    loops_.emplace(program_);
    CountRebuild(Family::kLoops);
  }
  return *loops_;
}

const std::vector<Dependence>& AnalysisCache::deps() {
  Refresh();
  if (!deps_) {
    deps_.emplace(ComputeDependences(program_, loops()));
    CountRebuild(Family::kDeps);
  }
  return *deps_;
}

const Pdg& AnalysisCache::pdg() {
  Refresh();
  if (!pdg_) {
    pdg_.emplace(program_, deps());
    CountRebuild(Family::kPdg);
  }
  return *pdg_;
}

const DependenceSummaries& AnalysisCache::summaries() {
  Refresh();
  if (!summaries_) {
    summaries_.emplace(pdg());
    CountRebuild(Family::kSummaries);
  }
  return *summaries_;
}

const BlockDags& AnalysisCache::block_dags() {
  Refresh();
  if (!block_dags_) {
    block_dags_.emplace(BuildBlockDags(program_));
    CountRebuild(Family::kBlockDags);
  }
  return *block_dags_;
}

void AnalysisCache::PrimeAll() {
  Refresh();
  flat();
  cfg();
  doms();
  facts();
  reaching();
  liveness();
  avail();
  defuse();
  loops();
  deps();
  pdg();
  summaries();
  block_dags();
}

}  // namespace pivot
