// Phase 1 (paper §3.3): interprocedural identification of pointers to
// shared memory. Every SSA value that may point into a declared shm region
// is labelled with the set of regions and a conservative interval of byte
// offsets its target may start at. Propagation runs bottom-up and top-down
// over the call-graph SCCs on the shared ir::FunctionWorklist; shminit
// function bodies are exempt (their raw shmat-derived pointers are
// described by annotations instead).
#pragma once

#include <map>
#include <optional>
#include <set>

#include "analysis/shm_regions.h"
#include "analysis/summaries.h"
#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/limits.h"

namespace safeflow::analysis {

/// Offset interval [lo, hi] (inclusive) of the pointed-to location's start
/// within the region; `exact` when derived purely from constants.
struct ShmPtrInfo {
  std::set<int> regions;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool offset_known = true;  // false -> anywhere within the region

  [[nodiscard]] bool empty() const { return regions.empty(); }
  /// Hull-merge; returns true when this changed.
  bool merge(const ShmPtrInfo& other);
  bool operator==(const ShmPtrInfo&) const = default;
};

class ShmPointerAnalysis {
 public:
  ShmPointerAnalysis(const ir::Module& module, const ShmRegionTable& regions,
                     const ir::CallGraph& callgraph,
                     support::AnalysisBudget* budget = nullptr,
                     PhaseMemoHooks memo = {});

  /// Runs to a fixpoint, or until the budget trips. On exhaustion every
  /// recorded fact is widened to "anywhere within its regions" so
  /// downstream coverage checks degrade toward reporting, not certifying.
  void run();

  /// Shm info for a value, or nullptr when the value cannot point into
  /// shared memory.
  [[nodiscard]] const ShmPtrInfo* info(const ir::Value* v) const;

  /// Number of fixpoint iterations taken (for the ablation bench).
  [[nodiscard]] std::size_t iterations() const { return iterations_; }

  /// Order-independent digest of the final analysis state (facts and
  /// return infos under cross-run stable names); SummaryOptions::verify
  /// compares a memoized run's digest against a cold re-solve.
  [[nodiscard]] std::uint64_t digestState(const ModuleIndex& index) const;

 private:
  /// Recomputes the intraprocedural fixpoint and wakes each callee whose
  /// formal grew; returns true when the function's return info changed.
  bool analyzeFunction(const ir::Function& fn);
  /// Memoizing wrapper around analyzeFunction: digests the transformer's
  /// input (own facts, return info, callee formals and returns), replays
  /// a recorded post-state on a digest hit, records one on a miss.
  bool memoizedAnalyze(const ir::Function& fn);
  void digestInput(const ir::Function& fn, support::Fnv1a& h) const;
  [[nodiscard]] std::string captureRecord(const ir::Function& fn,
                                          bool identity,
                                          bool ret_changed) const;
  bool applyRecord(const ir::Function& fn, const std::string& blob,
                   bool* ret_changed);
  bool update(const ir::Value* v, const ShmPtrInfo& incoming);
  [[nodiscard]] ShmPtrInfo get(const ir::Value* v) const;
  void widen(ShmPtrInfo& info) const;

  const ir::Module& module_;
  const ShmRegionTable& regions_;
  const ir::CallGraph& callgraph_;
  support::AnalysisBudget* budget_ = nullptr;
  PhaseMemoHooks memo_;

  std::map<const ir::Value*, ShmPtrInfo> facts_;
  std::map<const ir::Value*, unsigned> update_counts_;
  std::map<const ir::Function*, ShmPtrInfo> returns_;
  ir::FunctionWorklist* worklist_ = nullptr;  ///< set while run() runs
  std::size_t iterations_ = 0;
};

}  // namespace safeflow::analysis
