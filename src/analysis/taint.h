// Phase 3 (paper §3.3): unsafe-value detection and critical-data
// dependency analysis.
//
// Monitoring semantics: an assume(core(p, off, size)) annotation makes the
// covered byte range of p's region(s) core within the annotated function
// *and every function it (transitively) calls*. The effective assumption
// set of a function is therefore its local assumptions joined with the
// intersection of its callers' effective sets (a region is only safe in a
// callee if every calling context monitors it).
//
// A load from a non-core region not covered by the effective assumptions
// yields an *unsafe* value (reported as a warning) tainted with the
// region. Taint propagates through SSA data flow, through memory objects
// (via the alias analysis), across calls, and — optionally — through
// control dependence. assert(safe(x)) then checks the taint of x: data
// taint is an error dependency; control-only taint is flagged separately
// (the paper's manual-review / false-positive class).
//
// Two interprocedural engines are provided:
//   kSummaries    one bottom-up fixpoint with per-function return/param
//                 taint summaries (the ESP-style algorithm of §3.3's last
//                 paragraph);
//   kCallStrings  context cloning keyed on the inherited assumption set,
//                 the prototype's "analyze each function multiple times
//                 for different call sequences" exponential algorithm.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "analysis/alias.h"
#include "analysis/report.h"
#include "analysis/shm_propagation.h"
#include "analysis/shm_regions.h"
#include "analysis/summaries.h"
#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/limits.h"

namespace safeflow::analysis {

class RangeAnalysis;

/// region id -> the unmonitored loads that sourced it, plus symbolic
/// references to the enclosing function's parameters ("this value is
/// tainted iff argument i is"). Parameter symbols make function summaries
/// context-sensitive in their inputs (the ESP-style value-flow graphs of
/// paper §3.3): they are substituted with the actual argument taints at
/// each call site instead of being merged across callers.
struct Taint {
  std::map<int, std::set<const ir::Instruction*>> sources;
  std::set<unsigned> params;

  [[nodiscard]] bool empty() const {
    return sources.empty() && params.empty();
  }
  bool merge(const Taint& other);
  /// Merges only the concrete (region) part of other.
  bool mergeConcrete(const Taint& other);
  [[nodiscard]] std::set<int> regions() const;
};

/// Data and control components tracked separately so the report can
/// distinguish genuine value dependencies from control-only ones.
struct TaintPair {
  Taint data;
  Taint control;

  [[nodiscard]] bool empty() const { return data.empty() && control.empty(); }
  bool merge(const TaintPair& other);
};

/// One assumption: bytes [offset, offset+size) of `region` are core.
struct CoreAssumption {
  int region = -1;
  std::int64_t offset = 0;
  std::int64_t size = 0;
  auto operator<=>(const CoreAssumption&) const = default;
};

using AssumptionSet = std::set<CoreAssumption>;

struct TaintOptions {
  bool track_control_deps = true;
  enum class Mode { kSummaries, kCallStrings };
  Mode mode = Mode::kSummaries;
  /// Call-string mode recursion cap; deeper chains fall back to the
  /// summary result.
  unsigned max_context_depth = 32;
  /// (function name, argument index) pairs treated as implicitly critical
  /// — the paper asserts the pid argument of kill in every system; this
  /// option performs that check without a source annotation.
  std::vector<std::pair<std::string, unsigned>> implicit_critical_calls;
  /// Trusted receive-style library calls (paper §3.4.3): data arriving
  /// through a noncore(socket)-annotated descriptor taints the buffer
  /// with the channel's pseudo-region.
  struct ReceiveCall {
    std::string name;
    unsigned socket_arg = 0;
    unsigned buffer_arg = 1;
  };
  std::vector<ReceiveCall> receive_calls{{"recv", 0, 1}, {"read", 0, 1}};
};

class TaintAnalysis {
 public:
  /// `ranges` (optional) prunes statically-infeasible branch edges from
  /// control-dependence propagation: a branch the range analysis decides
  /// contributes no control taint, and phi operands arriving over
  /// infeasible edges are skipped. Every pruned edge is counted in the
  /// ranges.* metrics family.
  TaintAnalysis(const ir::Module& module, const ShmRegionTable& regions,
                const ShmPointerAnalysis& shm, const AliasAnalysis& alias,
                const ir::CallGraph& callgraph, TaintOptions options = {},
                support::AnalysisBudget* budget = nullptr,
                const RangeAnalysis* ranges = nullptr,
                PhaseMemoHooks memo = {});

  /// Runs the analysis and fills in warnings and errors. Under an
  /// exhausted budget the propagation fixpoint stops early: taints found
  /// so far are still reported, and the driver marks the run degraded
  /// (budget diagnostic, non-zero exit) because unprocessed flows may be
  /// missing — a degraded run never certifies (see DESIGN.md).
  void run(SafeFlowReport& report);

  [[nodiscard]] const AssumptionSet& effectiveAssumptions(
      const ir::Function* fn) const;
  /// Exposed for tests: the final taint of a value.
  [[nodiscard]] TaintPair taintOf(const ir::Value* v) const;
  /// Number of (function, context) body analyses performed — the work
  /// metric the ablation bench compares across modes.
  [[nodiscard]] std::size_t bodyAnalyses() const { return body_analyses_; }

  /// Order-independent digest of the final analysis state (value, object,
  /// argument, and return taints under cross-run stable names) for
  /// SummaryOptions::verify.
  [[nodiscard]] std::uint64_t digestState(const ModuleIndex& index) const;

 private:
  // -- effective assumptions ------------------------------------------------
  void computeLocalAssumptions();
  void computeEffectiveAssumptions();
  [[nodiscard]] bool isCovered(const ShmPtrInfo& ptr,
                               std::int64_t access_size,
                               const AssumptionSet& assumptions,
                               int region) const;

  // -- propagation ------------------------------------------------------------
  /// Solves `fn`'s body under the given assumptions to its local fixpoint:
  /// one pass over every instruction in block order, then a def-use
  /// worklist (BodyWorklist) that re-evaluates, in block-order rounds,
  /// only the instructions a growth can reach. Grows value, object,
  /// argument and return taints; returns true when any of them grew, and
  /// false once the budget trips. The rounds end in the same state, with
  /// the same result and counters, as re-running whole passes until one
  /// changes nothing (DESIGN.md §18). `depth` threads the call-string
  /// recursion depth into evalCall.
  bool analyzeFunction(const ir::Function& fn,
                       const AssumptionSet& assumptions,
                       unsigned depth = 0);
  /// What one evaluation grew, as bits; each kind has its own revisit
  /// edges in BodyWorklist.
  enum Growth : unsigned {
    kGrewValue = 1u << 0,        ///< the instruction's own value taint
    kGrewObject = 1u << 1,       ///< an object, through a store or recv
    kGrewReturn = 1u << 2,       ///< the function's own return taint
    kGrewCalleeArgs = 1u << 3,   ///< a callee's concrete argument taint
    kGrewOwnArgs = 1u << 4,      ///< this function's, via a self call
    kRanNestedBodies = 1u << 5,  ///< a call ran nested body analyses
  };
  /// Evaluates one instruction of `fn` and merges its result; returns the
  /// Growth bits. `block_control` is the control taint of its block as of
  /// the block's entry in the current round.
  unsigned evalInstruction(const ir::Instruction& inst,
                           const ir::Function& fn,
                           const Taint& block_control,
                           const AssumptionSet& assumptions, unsigned depth);
  class BodyWorklist;
  /// Memoizing wrapper around analyzeFunction for the summary-mode SCC
  /// sweep (see summaries.h): digests the transformer's input, replays a
  /// recorded post-state on a hit, records one on a miss.
  bool memoizedAnalyze(const ir::Function& fn,
                       const AssumptionSet& assumptions);
  void digestInput(const ir::Function& fn, const AssumptionSet& assumptions,
                   support::Fnv1a& h) const;
  [[nodiscard]] std::string captureRecord(const ir::Function& fn,
                                          bool identity,
                                          bool changed_any) const;
  bool applyRecord(const ir::Function& fn, const std::string& blob,
                   bool* changed_any);
  /// Objects this function's solve can read or write through any operand
  /// (points-to sets plus ancestor chains), keyed by cross-run stable
  /// name. Recomputed identically at capture and apply time.
  [[nodiscard]] std::map<std::string, ObjId> memoFootprint(
      const ir::Function& fn) const;
  /// Digest inputs that cannot change while this phase runs (assumptions,
  /// shm facts, range verdicts, alias shapes, the footprint, the call
  /// target list): hashed once per function per run instead of on every
  /// fixpoint visit, which is what makes a warm digest probe much cheaper
  /// than the solve it replaces.
  struct MemoStatics {
    std::uint64_t digest = 0;
    std::map<std::string, ObjId> footprint;
    /// footprint entries as (fnv of stable name, object), in name order.
    std::vector<std::pair<std::uint64_t, ObjId>> footprint_hashed;
    /// Taint-relevant call targets in call-site order (with repeats),
    /// paired with the fnv of the callee name.
    std::vector<std::pair<const ir::Function*, std::uint64_t>> call_targets;
  };
  const MemoStatics& memoStatics(const ir::Function& fn,
                                 const AssumptionSet& assumptions) const;
  /// Cross-run stable 64-bit name of a taint source instruction
  /// ((owner function, position) folded through fnv), cached per run.
  std::uint64_t memoRefHash(const ir::Instruction* inst) const;
  /// Digest-path taint hashing: order-independent over sources via
  /// sorted memoRefHash values — no per-visit string building.
  void hashTaintDigest(support::Fnv1a& h, const Taint& t) const;
  void hashTaintPairDigest(support::Fnv1a& h, const TaintPair& t) const;
  TaintPair evalCall(const ir::Instruction& call,
                     const AssumptionSet& caller_assumptions,
                     unsigned depth);
  /// recv/read-style call through a possibly-noncore descriptor; taints
  /// the buffer's objects (counted in object_growths_) and returns the
  /// result taint.
  TaintPair evalReceive(const ir::Instruction& call);
  [[nodiscard]] bool isReceiveCall(const ir::Instruction& call) const;
  /// Call-string mode: (re)analyze `fn` under `ctx`, returning the summary
  /// (return taint) for that context. Memoized.
  TaintPair analyzeInContext(const ir::Function& fn, AssumptionSet ctx,
                             unsigned depth);
  [[nodiscard]] const TaintPair& operandTaint(const ir::Value* v) const;
  /// Replaces parameter symbols with the concrete taints accumulated for
  /// `fn`'s arguments (data symbols keep data/control split; control
  /// symbols collapse into control).
  [[nodiscard]] TaintPair resolveConcrete(const TaintPair& t,
                                          const ir::Function& fn) const;
  [[nodiscard]] Taint resolveConcreteControl(const Taint& t,
                                             const ir::Function& fn) const;
  /// Instantiates a callee summary at a call site, substituting parameter
  /// symbols with the call's argument taints.
  [[nodiscard]] TaintPair substituteSummary(const TaintPair& summary,
                                            const ir::Instruction& call,
                                            std::size_t first_arg) const;
  /// The taint a load yields (region taint for unmonitored noncore loads,
  /// plus object taint), given the active assumptions.
  TaintPair loadTaint(const ir::Instruction& load,
                      const AssumptionSet& assumptions) const;
  /// Control taint contributed by the block's controlling branches.
  Taint blockControlTaint(const ir::BasicBlock* bb) const;

  void reportWarnings(SafeFlowReport& report);
  void reportAsserts(SafeFlowReport& report);
  void reportCriticalValue(SafeFlowReport& report,
                           const ir::Instruction& site,
                           const ir::Value* checked, const std::string& name);

  const ir::Module& module_;
  const ShmRegionTable& regions_;
  const ShmPointerAnalysis& shm_;
  const AliasAnalysis& alias_;
  const ir::CallGraph& callgraph_;
  TaintOptions options_;
  support::AnalysisBudget* budget_ = nullptr;
  const RangeAnalysis* ranges_ = nullptr;
  PhaseMemoHooks memo_;
  /// Per-run caches for the memo path (valid because alias/shm/ranges
  /// facts and effective assumptions are fixed inputs of this phase).
  mutable std::map<const ir::Function*, MemoStatics> memo_statics_;
  mutable std::map<const ir::Instruction*, std::uint64_t> memo_ref_hash_;
  /// Branches / phi edges pruned via the range analysis. Sets (not raw
  /// counters) so fixpoint revisits count each edge once and the metric
  /// totals stay independent of iteration order.
  mutable std::set<const ir::Instruction*> pruned_branches_;
  mutable std::set<std::pair<const ir::Instruction*, std::size_t>>
      pruned_phi_edges_;

  std::map<const ir::Function*, AssumptionSet> local_assumptions_;
  std::map<const ir::Function*, AssumptionSet> effective_;
  std::map<const ir::Function*, bool> effective_is_top_;

  std::map<const ir::Value*, TaintPair> value_taint_;
  std::map<ObjId, TaintPair> object_taint_;
  /// Concrete (symbol-free) taint each parameter receives, merged over
  /// call sites — used when parameter symbols escape through memory or
  /// reach a report site inside a callee.
  std::map<const ir::Argument*, TaintPair> arg_concrete_;
  std::map<const ir::Function*, TaintPair> return_taint_;
  // Call-string memoization: (function, context) -> return taint.
  std::map<std::pair<const ir::Function*, AssumptionSet>, TaintPair>
      context_memo_;
  std::size_t body_analyses_ = 0;
  /// Growth bits evalCall records for the call being evaluated: callee
  /// argument taints. Reset per call, so nested body analyses overwrite
  /// it; kRanNestedBodies, which revisits the whole body, covers that
  /// case.
  unsigned call_growth_ = 0;
  /// Object growths so far (stores and receive buffers). Monotone, so a
  /// call compares it before and after to see whether it grew an object,
  /// through its receive buffer or inside its nested body analyses.
  std::uint64_t object_growths_ = 0;
  AssumptionSet empty_assumptions_;
  TaintPair empty_taint_;
};

}  // namespace safeflow::analysis
