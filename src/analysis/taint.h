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
// Two interprocedural engines are provided. They differ only in the
// assumption contexts a function's body is solved under, and both solve
// on the shared ir::FunctionWorklist:
//   kSummaries    one context per function, its effective set: the
//                 per-function return/param taint summaries of the
//                 ESP-style algorithm of §3.3's last paragraph;
//   kCallStrings  one context per distinct assumption set a call chain
//                 brings, the prototype's "analyze each function multiple
//                 times for different call sequences" exponential
//                 algorithm. A root starts at its local set; a call adds
//                 caller context ∪ local(callee) to the callee.
//
// Taint values are hash-consed: a TaintPool interns every distinct
// TaintPair once, the solver state holds 32-bit TaintIds, and merging is
// a memoized join on ids. Equal ids mean equal contents, so a slot grows
// exactly when its join with the incoming id yields a different id
// (DESIGN.md §18, "Interned taint values").
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

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
  bool operator==(const Taint&) const = default;
};

/// Data and control components tracked separately so the report can
/// distinguish genuine value dependencies from control-only ones.
struct TaintPair {
  Taint data;
  Taint control;

  [[nodiscard]] bool empty() const { return data.empty() && control.empty(); }
  bool merge(const TaintPair& other);
  bool operator==(const TaintPair&) const = default;
};

/// Handle of an interned TaintPair; 0 is the empty pair.
using TaintId = std::uint32_t;

/// Hash-consing pool of TaintPairs. Equal contents intern to one id, so
/// id equality is content equality, and join and controlOf are memoized
/// on ids. Pairs live in a deque: a reference from get() stays valid
/// across later interning.
class TaintPool {
 public:
  static constexpr TaintId kEmpty = 0;

  TaintPool();

  /// The id of `pair`'s contents, adding them if they are new.
  TaintId intern(TaintPair&& pair);
  [[nodiscard]] const TaintPair& get(TaintId id) const { return pairs_[id]; }
  /// The id of get(a) merged with get(b).
  TaintId join(TaintId a, TaintId b);
  /// {∅, data ∪ control} of `a`: what a branch on a value tainted with
  /// `a` leaks into the blocks it controls.
  TaintId controlOf(TaintId a);
  /// True when neither half of the pair holds a parameter symbol.
  [[nodiscard]] bool symbolFree(TaintId id) const {
    return symbol_free_[id] != 0;
  }

 private:
  static constexpr TaintId kUnknown = ~TaintId{0};

  std::deque<TaintPair> pairs_;
  std::vector<std::uint8_t> symbol_free_;
  std::vector<TaintId> control_of_;  ///< kUnknown until first asked
  /// Content hash -> ids with that hash.
  std::unordered_multimap<std::uint64_t, TaintId> index_;
  /// (smaller id << 32 | larger id) -> join.
  std::unordered_map<std::uint64_t, TaintId> joins_;
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
  /// changes nothing (DESIGN.md §18).
  bool analyzeFunction(const ir::Function& fn,
                       const AssumptionSet& assumptions);
  /// What one evaluation grew, as bits; each kind has its own revisit
  /// edges in BodyWorklist.
  enum Growth : unsigned {
    kGrewValue = 1u << 0,        ///< the instruction's own value taint
    kGrewObject = 1u << 1,       ///< an object, through a store or recv
    kGrewReturn = 1u << 2,       ///< the function's own return taint
    kGrewCalleeArgs = 1u << 3,   ///< a callee's concrete argument taint
    kGrewOwnArgs = 1u << 4,      ///< this function's, via a self call
  };
  /// Evaluates one instruction of `fn` and merges its result; returns the
  /// Growth bits. `block_control` is the control taint of its block as of
  /// the block's entry in the current round.
  unsigned evalInstruction(const ir::Instruction& inst,
                           const ir::Function& fn, TaintId block_control,
                           const AssumptionSet& assumptions);
  class BodyWorklist;
  /// Memoizing wrapper around analyzeFunction for the summary-mode
  /// worklist (see summaries.h): digests the transformer's input, replays
  /// a recorded post-state on a hit, records one on a miss. A replay wakes
  /// what the solve it replays woke.
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
  /// Instantiates each target's return taint at `call` and grows its
  /// concrete argument taints. Call strings also add the target's context
  /// for this call (caller context ∪ its local set), waking the target
  /// when the context is new; no call solves its callee's body.
  TaintId evalCall(const ir::Instruction& call,
                   const AssumptionSet& caller_assumptions);
  /// Wakes every function but `writer` whose loads read `obj`, which just
  /// grew.
  void wakeReaders(ObjId obj, const ir::Function& writer);
  /// recv/read-style call through a possibly-noncore descriptor; taints
  /// the buffer's objects (a kGrewObject in call_growth_) and returns the
  /// result taint.
  TaintId evalReceive(const ir::Instruction& call);
  [[nodiscard]] bool isReceiveCall(const ir::Instruction& call) const;
  [[nodiscard]] TaintId operandTaint(const ir::Value* v) const;
  /// Replaces parameter symbols with the concrete taints accumulated for
  /// `fn`'s arguments (data symbols keep data/control split; control
  /// symbols collapse into control). A symbol-free `t` comes back as is.
  TaintId resolveConcrete(TaintId t, const ir::Function& fn);
  /// Instantiates a callee summary at a call site, substituting parameter
  /// symbols with the call's argument taints.
  TaintId substituteSummary(TaintId summary, const ir::Instruction& call,
                            std::size_t first_arg);
  /// The taint a load yields (region taint for unmonitored noncore loads,
  /// plus object taint), given the active assumptions.
  TaintId loadTaint(const ir::Instruction& load,
                    const AssumptionSet& assumptions);
  /// Control taint contributed by the block's controlling branches: a
  /// pair whose data half is empty.
  TaintId blockControlTaint(const ir::BasicBlock* bb);
  /// Joins `t` into `slot`; true when the slot grew.
  bool grow(TaintId& slot, TaintId t);

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
  std::set<const ir::Instruction*> pruned_branches_;
  std::set<std::pair<const ir::Instruction*, std::size_t>> pruned_phi_edges_;

  std::map<const ir::Function*, AssumptionSet> local_assumptions_;
  std::map<const ir::Function*, AssumptionSet> effective_;
  /// Still true after computeEffectiveAssumptions for the functions no
  /// root reaches.
  std::map<const ir::Function*, bool> effective_is_top_;

  /// Every taint value below is an id into this pool.
  TaintPool pool_;
  std::unordered_map<const ir::Value*, TaintId> value_taint_;
  std::unordered_map<ObjId, TaintId> object_taint_;
  /// Concrete (symbol-free) taint each parameter receives, merged over
  /// call sites — used when parameter symbols escape through memory or
  /// reach a report site inside a callee.
  std::unordered_map<const ir::Argument*, TaintId> arg_concrete_;
  std::unordered_map<const ir::Function*, TaintId> return_taint_;
  /// The assumption contexts each function's body is solved under, in
  /// the order they were added.
  std::map<const ir::Function*, std::vector<AssumptionSet>> contexts_;
  std::size_t body_analyses_ = 0;
  /// The schedule, set while run() runs.
  ir::FunctionWorklist* worklist_ = nullptr;
  /// The objects each function's loads read, in module order.
  std::vector<std::pair<const ir::Function*, ObjSet>> object_reads_;
  /// Growth bits evalCall records for the call being evaluated: callee
  /// argument taints and receive-buffer objects. Reset per call.
  unsigned call_growth_ = 0;
  AssumptionSet empty_assumptions_;
};

}  // namespace safeflow::analysis
