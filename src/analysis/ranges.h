// Sparse, SSA-based interprocedural value-range (interval) analysis in
// the style of Miné's value analysis for embedded C: every integer SSA
// value gets a conservative interval, computed by a widening fixpoint
// over each function body, with argument ranges joined over call sites
// and return ranges over ret sites on the shared ir::FunctionWorklist.
//
// Three downstream consumers use the result (`RangeInfo` == this class):
//   1. the A1/A2 restriction checker bounds index symbols with proven
//      ranges, so `for (i = 0; i < n; i++) a[i]` discharges when n's
//      *range* is known even though n is not a constant;
//   2. the taint phase skips control edges whose branch condition is
//      statically decided (a branch that always goes one way carries no
//      runtime information), shrinking the control-only FP class;
//   3. a dedicated check flags shm accesses whose index range provably
//      exceeds the region extent ("shm-bounds-const" diagnostics).
// Consumers 1 and 3 test the same access interval (ShmAccess below).
//
// Degradation contract (same as every other phase): budget exhaustion or
// a failed fixpoint makes every query return ⊤ — never a tighter range —
// and the driver marks the run degraded.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/summaries.h"
#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/limits.h"

namespace safeflow::support {
class DiagnosticEngine;
}

namespace safeflow::analysis {

/// A closed integer interval [lo, hi]. The sentinels INT64_MIN / INT64_MAX
/// mean "unbounded" on that side; arithmetic saturates into them, so a
/// bound that would overflow int64 degrades to "unbounded" instead of
/// wrapping. The empty interval is not representable here — operations
/// that can produce it (meet) return std::nullopt instead.
struct Interval {
  static constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  std::int64_t lo = kMin;
  std::int64_t hi = kMax;

  static Interval top() { return Interval{}; }
  static Interval constant(std::int64_t v) { return Interval{v, v}; }

  [[nodiscard]] bool isTop() const { return lo == kMin && hi == kMax; }
  [[nodiscard]] bool boundedBelow() const { return lo != kMin; }
  [[nodiscard]] bool boundedAbove() const { return hi != kMax; }
  [[nodiscard]] bool isSingleton() const { return lo == hi; }
  [[nodiscard]] bool contains(std::int64_t v) const {
    return lo <= v && v <= hi;
  }
  bool operator==(const Interval&) const = default;

  /// Convex hull (the interval join).
  [[nodiscard]] Interval join(const Interval& o) const;
  /// Intersection; nullopt when the intervals are disjoint.
  [[nodiscard]] std::optional<Interval> meet(const Interval& o) const;
  /// Sum of any member of this and any member of `o`.
  [[nodiscard]] Interval plus(const Interval& o) const;
  /// Product with the constant `k`. Each bound saturates on its own: one
  /// that overflows becomes unbounded and leaves the other as it is.
  [[nodiscard]] Interval times(std::int64_t k) const;

  [[nodiscard]] std::string str() const;
};

struct RangeOptions {
  /// Cleared by --no-ranges. Disabled: run() is a no-op and every query
  /// returns ⊤, keeping the pipeline byte-identical to a build without
  /// the pass.
  bool enabled = true;
};

/// The queryable result ("RangeInfo"). Construct, run() once after SSA,
/// then query from any later phase. All queries are ⊤-safe: unknown
/// values, non-integer values, a disabled pass, and degraded runs all
/// answer ⊤.
class RangeAnalysis {
 public:
  RangeAnalysis(const ir::Module& module, const ir::CallGraph& callgraph,
                RangeOptions options = {},
                support::AnalysisBudget* budget = nullptr,
                PhaseMemoHooks memo = {});

  void run();

  /// Flow-insensitive range of an SSA value.
  [[nodiscard]] Interval rangeOf(const ir::Value* v) const;
  /// Range of `v` at `bb`, refined by every branch condition that
  /// dominates the block (e.g. inside `if (i < n)` the true-edge
  /// constraint i <= hi(n)-1 applies).
  [[nodiscard]] Interval rangeAt(const ir::Value* v,
                                 const ir::BasicBlock* bb) const;

  /// For a CondBr whose condition is statically decided: the index (0 or
  /// 1) of the successor always taken. nullopt when undecided (or when
  /// the pass is off / degraded).
  [[nodiscard]] std::optional<unsigned> decidedBranch(
      const ir::Instruction* condbr) const;
  /// True when the CFG edge pred -> succ is provably never taken.
  [[nodiscard]] bool edgeInfeasible(const ir::BasicBlock* pred,
                                    const ir::BasicBlock* succ) const;

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] std::size_t decidedBranchCount() const {
    return decided_.size();
  }

  /// Order-independent digest of the final analysis state (value ranges,
  /// return ranges, decided branches under cross-run stable names) for
  /// SummaryOptions::verify.
  [[nodiscard]] std::uint64_t digestState(const ModuleIndex& index) const;

 private:
  /// Solves fn's body to its local fixpoint, narrows it once, and wakes
  /// each callee whose formal grew; returns true when fn's return range
  /// grew.
  bool analyzeFunction(const ir::Function& fn);
  /// Memoizing wrapper around analyzeFunction (see summaries.h): digests
  /// the per-function transformer's input, replays a recorded post-state
  /// on a hit, records one on a miss.
  bool memoizedAnalyze(const ir::Function& fn);
  void digestInput(const ir::Function& fn, support::Fnv1a& h) const;
  [[nodiscard]] std::string captureRecord(const ir::Function& fn,
                                          bool identity, bool ret_grew) const;
  bool applyRecord(const ir::Function& fn, const std::string& blob,
                   bool* ret_grew);
  /// Joins `value` into fn's return range (same widening as joinInto).
  bool joinReturn(const ir::Function* fn, Interval value);
  /// Transfer function for one instruction; nullopt = bottom (no incoming
  /// value yet, e.g. a phi whose operands are all unvisited back edges).
  std::optional<Interval> transfer(const ir::Instruction& inst);
  /// Joins `value` into the stored range for `key`, applying widening
  /// after kWidenAfter growths. Returns true when it changed.
  bool joinInto(const ir::Value* key, Interval value, const ir::Type* type);
  /// Range of an operand; nullopt = bottom.
  [[nodiscard]] std::optional<Interval> valueRange(const ir::Value* v) const;
  /// Applies every dominating-branch refinement of `v` at `bb` to `r`
  /// (the shared core of rangeAt, also used to evaluate transfer operands
  /// in their block context — what keeps `i + 1` in a guarded loop from
  /// wrapping to the full type interval).
  [[nodiscard]] Interval refinedAt(Interval r, const ir::Value* v,
                                   const ir::BasicBlock* bb) const;
  /// The (pred, succ) dominating edges whose CondBr can refine values in
  /// `bb`, cached per block (the CFG never changes during run()).
  const std::vector<std::pair<const ir::BasicBlock*, const ir::BasicBlock*>>&
  refineChain(const ir::BasicBlock* bb, const ir::CfgInfo& cfg) const;
  /// valueRange + refinedAt: an operand's range in `bb`'s context.
  [[nodiscard]] std::optional<Interval> contextRange(
      const ir::Value* v, const ir::BasicBlock* bb) const;
  /// Refines `r` (the range of `v`) along the CFG edge pred -> succ using
  /// pred's branch condition. Returns nullopt when the edge is provably
  /// infeasible for this value.
  [[nodiscard]] std::optional<Interval> refineOnEdge(
      Interval r, const ir::Value* v, const ir::BasicBlock* pred,
      const ir::BasicBlock* succ) const;
  /// Refines `r` given that `v op other` (value_on_left) or
  /// `other op v` holds.
  [[nodiscard]] std::optional<Interval> refineByCmp(Interval r, ir::CmpOp op,
                                                    const Interval& other,
                                                    bool value_on_left) const;
  void computeDecidedBranches();
  void degradeToTop();

  const ir::Module& module_;
  const ir::CallGraph& callgraph_;
  RangeOptions options_;
  support::AnalysisBudget* budget_ = nullptr;
  PhaseMemoHooks memo_;

  // Reached only through find/emplace/clear/size (digestState sorts by
  // stable name), so these three are hashed rather than ordered.
  std::unordered_map<const ir::Value*, Interval> range_;
  std::map<const ir::Function*, Interval> return_range_;
  std::unordered_map<const void*, unsigned> update_counts_;  // values & fns
  mutable std::unordered_map<const ir::BasicBlock*,
                             std::vector<std::pair<const ir::BasicBlock*,
                                                   const ir::BasicBlock*>>>
      refine_chain_;
  std::map<const ir::Instruction*, unsigned> decided_;
  std::set<const ir::Function*> top_arg_fns_;  // roots & address-taken
  ir::FunctionWorklist* worklist_ = nullptr;  ///< set while run() runs
  bool ran_ = false;
  bool degraded_ = false;
};

class ShmRegionTable;
class ShmPointerAnalysis;
class AliasAnalysis;
struct ShmPtrInfo;
struct SafeFlowReport;

/// Where an indexed shm access `base[index]` can land: the byte range at
/// which its element can start, and the element's size. A1/A2 ask whether
/// the access may leave its region, shm-bounds-const whether it always
/// does; on a box of index bounds both answers are exact, because an
/// affine sum of independent symbols takes its extremes at the corners.
struct ShmAccess {
  Interval start;
  std::int64_t elem_size = 1;

  /// Some start puts the element at least partly outside [0, size).
  [[nodiscard]] bool mayLeave(std::int64_t size) const {
    return start.lo < 0 || start.hi > size - elem_size;
  }
  /// Every start does.
  [[nodiscard]] bool alwaysLeaves(std::int64_t size) const {
    return start.hi < 0 || start.lo > size - elem_size;
  }
};

/// The access the IndexAddr `gep` makes from `base` with an index in
/// `index`: the base pointer's offset range (read as 0 when unknown) plus
/// the index times the element size (1 for an unsized element).
[[nodiscard]] ShmAccess shmAccess(const ir::Instruction& gep,
                                  const ShmPtrInfo& base,
                                  const Interval& index);

/// Consumer 3: flags shm accesses whose index range is provably *always*
/// outside the declared region size, as "shm-bounds-const" restriction
/// violations + diagnostics; returns the number of findings. `alias` is
/// not read: a region's root alias object spans exactly that size. A
/// disabled or degraded range pass reports nothing (conservative:
/// absence of range information must not invent findings).
std::size_t checkShmConstBounds(const ir::Module& module,
                                const ShmRegionTable& regions,
                                const ShmPointerAnalysis& shm,
                                const AliasAnalysis& alias,
                                const RangeAnalysis& ranges,
                                SafeFlowReport& report,
                                support::DiagnosticEngine& diags);

}  // namespace safeflow::analysis
