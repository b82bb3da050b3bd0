#include "analysis/taint.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/ranges.h"
#include "ir/cfg.h"
#include "support/metrics.h"

namespace safeflow::analysis {

bool Taint::merge(const Taint& other) {
  bool changed = mergeConcrete(other);
  for (unsigned p : other.params) {
    changed |= params.insert(p).second;
  }
  return changed;
}

bool Taint::mergeConcrete(const Taint& other) {
  bool changed = false;
  for (const auto& [region, loads] : other.sources) {
    const bool new_region = !sources.contains(region);
    auto& mine = sources[region];
    if (new_region) changed = true;
    for (const ir::Instruction* load : loads) {
      changed |= mine.insert(load).second;
    }
  }
  return changed;
}

std::set<int> Taint::regions() const {
  std::set<int> out;
  for (const auto& [region, loads] : sources) out.insert(region);
  return out;
}

bool TaintPair::merge(const TaintPair& other) {
  const bool a = data.merge(other.data);
  const bool b = control.merge(other.control);
  return a || b;
}

// ---------------------------------------------------------------------------
// Taint pool
// ---------------------------------------------------------------------------

namespace {

std::uint64_t mixHash(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hashTaint(std::uint64_t h, const Taint& t) {
  for (const auto& [region, loads] : t.sources) {
    h = mixHash(h, static_cast<std::uint64_t>(region));
    h = mixHash(h, loads.size());
    for (const ir::Instruction* load : loads) {
      h = mixHash(h, reinterpret_cast<std::uintptr_t>(load));
    }
  }
  h = mixHash(h, t.params.size());
  for (const unsigned p : t.params) h = mixHash(h, p);
  return h;
}

std::uint64_t hashPair(const TaintPair& t) {
  return hashTaint(hashTaint(0, t.data), t.control);
}

}  // namespace

TaintPool::TaintPool() { intern(TaintPair{}); }

TaintId TaintPool::intern(TaintPair&& pair) {
  const std::uint64_t h = hashPair(pair);
  const auto [first, last] = index_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (pairs_[it->second] == pair) return it->second;
  }
  const auto id = static_cast<TaintId>(pairs_.size());
  symbol_free_.push_back(pair.data.params.empty() &&
                         pair.control.params.empty());
  control_of_.push_back(kUnknown);
  pairs_.push_back(std::move(pair));
  index_.emplace(h, id);
  return id;
}

TaintId TaintPool::join(TaintId a, TaintId b) {
  if (a == b || b == kEmpty) return a;
  if (a == kEmpty) return b;
  const std::uint64_t key = (std::uint64_t{std::min(a, b)} << 32) |
                            std::max(a, b);
  const auto hit = joins_.find(key);
  if (hit != joins_.end()) return hit->second;
  TaintPair merged = pairs_[a];
  merged.merge(pairs_[b]);
  const TaintId id = intern(std::move(merged));
  joins_.emplace(key, id);
  return id;
}

TaintId TaintPool::controlOf(TaintId a) {
  if (control_of_[a] != kUnknown) return control_of_[a];
  TaintPair leak;
  leak.control = pairs_[a].data;
  leak.control.merge(pairs_[a].control);
  const TaintId id = intern(std::move(leak));
  control_of_[a] = id;
  return id;
}

TaintAnalysis::TaintAnalysis(const ir::Module& module,
                             const ShmRegionTable& regions,
                             const ShmPointerAnalysis& shm,
                             const AliasAnalysis& alias,
                             const ir::CallGraph& callgraph,
                             TaintOptions options,
                             support::AnalysisBudget* budget,
                             const RangeAnalysis* ranges,
                             PhaseMemoHooks memo)
    : module_(module),
      regions_(regions),
      shm_(shm),
      alias_(alias),
      callgraph_(callgraph),
      options_(options),
      budget_(budget),
      ranges_(ranges),
      memo_(memo) {}

// ---------------------------------------------------------------------------
// Assumptions
// ---------------------------------------------------------------------------

void TaintAnalysis::computeLocalAssumptions() {
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined()) continue;
    AssumptionSet& local = local_assumptions_[fn];
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kCall ||
            inst->direct_callee == nullptr ||
            inst->direct_callee->name() != ir::kIntrinsicAssumeCore) {
          continue;
        }
        const ShmPtrInfo* info = shm_.info(inst->operand(0));
        if (info == nullptr) {
          // assume(core(...)) on a local (non-shm) pointer: the paper's
          // §3.4.3 message-buffer form — the function monitors received
          // non-core data, covering every message channel.
          for (const ShmRegion& r : regions_.regions()) {
            if (r.is_message_channel) {
              local.insert(CoreAssumption{
                  r.id, 0, std::numeric_limits<std::int64_t>::max()});
            }
          }
          continue;
        }
        const std::int64_t off =
            static_cast<const ir::ConstantInt*>(inst->operand(1))->value();
        const std::int64_t size =
            static_cast<const ir::ConstantInt*>(inst->operand(2))->value();
        for (int region : info->regions) {
          // Offsets are relative to the annotated pointer; only an exact
          // base offset lets us anchor the assumed byte range.
          const std::int64_t base =
              (info->offset_known && info->lo == info->hi) ? info->lo : 0;
          local.insert(CoreAssumption{region, base + off, size});
        }
      }
    }
  }
}

void TaintAnalysis::computeEffectiveAssumptions() {
  // Roots keep their local set; everything else starts at "top" (all
  // callers might monitor) and is narrowed by intersection. Once a set
  // leaves top it only shrinks, so the worklist ends without a cap.
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined()) continue;
    effective_[fn] = local_assumptions_[fn];
    effective_is_top_[fn] = !callgraph_.isRoot(fn);
  }

  ir::FunctionWorklist worklist(callgraph_, [this](const ir::Function& fn) {
    return fn.isDefined() && !callgraph_.isRoot(&fn);
  });
  while (const ir::Function* fn = worklist.pop()) {
    bool inherited_is_top = true;
    AssumptionSet inherited;
    for (const ir::Function* caller : callgraph_.callers(fn)) {
      if (!caller->isDefined()) {
        // Called from an unanalyzed context: nothing can be assumed.
        inherited_is_top = false;
        inherited.clear();
        break;
      }
      auto top_it = effective_is_top_.find(caller);
      if (top_it != effective_is_top_.end() && top_it->second) continue;
      const AssumptionSet& cs = effective_[caller];
      if (inherited_is_top) {
        inherited = cs;
        inherited_is_top = false;
      } else {
        AssumptionSet meet;
        std::set_intersection(inherited.begin(), inherited.end(),
                              cs.begin(), cs.end(),
                              std::inserter(meet, meet.begin()));
        inherited = std::move(meet);
      }
    }

    AssumptionSet next = local_assumptions_[fn];
    if (!inherited_is_top) {
      next.insert(inherited.begin(), inherited.end());
    }
    if (next != effective_[fn] || inherited_is_top != effective_is_top_[fn]) {
      effective_[fn] = std::move(next);
      effective_is_top_[fn] = inherited_is_top;
      // The set reaches the callees, fn itself if it recurses.
      for (const ir::Function* callee : callgraph_.callees(fn)) {
        worklist.wake(callee);
      }
    }
  }
  // Anything still "top" (what no root reaches, such as a cycle nothing
  // else calls) falls back to local; its flag stays set, so call strings
  // seed it like a root.
  for (const auto& [fn, top] : effective_is_top_) {
    if (top) effective_[fn] = local_assumptions_[fn];
  }
}

const AssumptionSet& TaintAnalysis::effectiveAssumptions(
    const ir::Function* fn) const {
  auto it = effective_.find(fn);
  return it == effective_.end() ? empty_assumptions_ : it->second;
}

bool TaintAnalysis::isCovered(const ShmPtrInfo& ptr,
                              std::int64_t access_size,
                              const AssumptionSet& assumptions,
                              int region) const {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  if (ptr.offset_known) {
    lo = ptr.lo;
    hi = ptr.hi;
  } else {
    const ShmRegion* r = regions_.byId(region);
    lo = 0;
    hi = (r != nullptr) ? std::max<std::int64_t>(0, r->size - access_size)
                        : 0;
  }
  for (const CoreAssumption& a : assumptions) {
    if (a.region != region) continue;
    if (a.offset <= lo && hi + access_size <= a.offset + a.size) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------------

TaintId TaintAnalysis::operandTaint(const ir::Value* v) const {
  const auto it = value_taint_.find(v);
  return it == value_taint_.end() ? TaintPool::kEmpty : it->second;
}

bool TaintAnalysis::grow(TaintId& slot, TaintId t) {
  const TaintId joined = pool_.join(slot, t);
  if (joined == slot) return false;
  slot = joined;
  return true;
}

TaintId TaintAnalysis::resolveConcrete(TaintId t, const ir::Function& fn) {
  if (pool_.symbolFree(t)) return t;
  const TaintPair& in = pool_.get(t);
  TaintPair out;
  out.data.sources = in.data.sources;
  out.control.sources = in.control.sources;
  auto concrete_of = [this, &fn](unsigned p) -> const TaintPair& {
    TaintId id = TaintPool::kEmpty;
    if (p < fn.args().size()) {
      const auto it = arg_concrete_.find(fn.args()[p]);
      if (it != arg_concrete_.end()) id = it->second;
    }
    return pool_.get(id);
  };
  for (unsigned p : in.data.params) {
    const TaintPair& a = concrete_of(p);
    out.data.mergeConcrete(a.data);
    out.control.mergeConcrete(a.control);
  }
  for (unsigned p : in.control.params) {
    const TaintPair& a = concrete_of(p);
    out.control.mergeConcrete(a.data);
    out.control.mergeConcrete(a.control);
  }
  return pool_.intern(std::move(out));
}

TaintId TaintAnalysis::substituteSummary(TaintId summary,
                                         const ir::Instruction& call,
                                         std::size_t first_arg) {
  if (pool_.symbolFree(summary)) return summary;
  const TaintPair& in = pool_.get(summary);
  TaintPair out;
  out.data.sources = in.data.sources;
  out.control.sources = in.control.sources;
  auto arg_taint = [this, &call, first_arg](unsigned p) -> const TaintPair& {
    const std::size_t idx = first_arg + p;
    return pool_.get(idx < call.numOperands()
                         ? operandTaint(call.operand(idx))
                         : TaintPool::kEmpty);
  };
  for (unsigned p : in.data.params) {
    const TaintPair& a = arg_taint(p);
    out.data.merge(a.data);          // caller's symbols stay symbolic
    out.control.merge(a.control);
  }
  for (unsigned p : in.control.params) {
    const TaintPair& a = arg_taint(p);
    out.control.merge(a.data);
    out.control.merge(a.control);
  }
  return pool_.intern(std::move(out));
}

TaintPair TaintAnalysis::taintOf(const ir::Value* v) const {
  return pool_.get(operandTaint(v));
}

TaintId TaintAnalysis::loadTaint(const ir::Instruction& load,
                                 const AssumptionSet& assumptions) {
  TaintId out = TaintPool::kEmpty;
  const ir::Value* ptr = load.operand(0);
  const std::int64_t access_size =
      static_cast<std::int64_t>(load.type()->size());

  if (const ShmPtrInfo* info = shm_.info(ptr)) {
    TaintPair sourced;
    for (int region : info->regions) {
      const ShmRegion* r = regions_.byId(region);
      if (r == nullptr || !r->noncore) continue;  // core regions are safe
      if (isCovered(*info, access_size, assumptions, region)) continue;
      sourced.data.sources[region].insert(&load);
    }
    if (!sourced.empty()) out = pool_.intern(std::move(sourced));
  } else {
    // Ordinary memory: pick up whatever taint was stored in the objects
    // the pointer may reference. Message-channel taints (paper §3.4.3)
    // are dropped when the enclosing function monitors the channel.
    const bool monitors_channel =
        std::any_of(assumptions.begin(), assumptions.end(),
                    [this](const CoreAssumption& a) {
                      const ShmRegion* r = regions_.byId(a.region);
                      return r != nullptr && r->is_message_channel;
                    });
    for (ObjId base : alias_.pointsTo(ptr)) {
      if (alias_.regionOf(base) >= 0) continue;  // shm handled above
      // A field read sees the taints of the whole object (writes through
      // the base pointer, e.g. a recv into the struct, cover its fields).
      for (ObjId obj = base; obj >= 0; obj = alias_.parentOf(obj)) {
        auto it = object_taint_.find(obj);
        if (it == object_taint_.end()) continue;
        if (!monitors_channel) {
          out = pool_.join(out, it->second);
          continue;
        }
        TaintPair t = pool_.get(it->second);
        for (const CoreAssumption& a : assumptions) {
          const ShmRegion* r = regions_.byId(a.region);
          if (r == nullptr || !r->is_message_channel) continue;
          t.data.sources.erase(a.region);
          t.control.sources.erase(a.region);
        }
        out = pool_.join(out, pool_.intern(std::move(t)));
      }
    }
  }
  // A tainted address taints the loaded value too.
  return pool_.join(out, operandTaint(ptr));
}

TaintId TaintAnalysis::blockControlTaint(const ir::BasicBlock* bb) {
  TaintId out = TaintPool::kEmpty;
  for (const ir::BasicBlock* branch : bb->parent()->cfg().controllers(bb)) {
    const ir::Instruction* term = branch->terminator();
    if (term == nullptr || term->opcode() != ir::Opcode::kCondBr) continue;
    // A branch the range analysis decides always goes one way exerts no
    // runtime control over this block: its condition cannot leak here.
    if (ranges_ != nullptr && ranges_->decidedBranch(term).has_value()) {
      if (pruned_branches_.insert(term).second) {
        SAFEFLOW_COUNT("ranges.control_edges_pruned");
      }
      continue;
    }
    out = pool_.join(out, pool_.controlOf(operandTaint(term->operand(0))));
  }
  return out;
}

void TaintAnalysis::wakeReaders(ObjId obj, const ir::Function& writer) {
  for (const auto& [reader, reads] : object_reads_) {
    if (reader != &writer && reads.contains(obj)) worklist_->wake(reader);
  }
}

// ---------------------------------------------------------------------------
// Body solver
// ---------------------------------------------------------------------------

/// The def-use index of one function body, plus the two round bitsets the
/// sparse rounds drain. analyzeFunction builds it at the first growth of
/// its first pass and drops it when it returns: flat arrays over
/// instruction positions in block order, nothing keyed by object and
/// nothing kept across calls.
///
/// Rounds follow the schedule of whole passes over the body. A growth at
/// position `at` queues a reader after `at` into the current round and a
/// reader at or before `at` into the next one, so each instruction is
/// evaluated at most once per round, in block order, and sees exactly the
/// state a whole pass would have shown it. The evaluations skipped are
/// those whose inputs did not change, which a whole pass repeated to no
/// effect. A block reads its control taint once, on entry, as a whole pass
/// did; a control growth therefore reaches a block already entered only
/// in the next round.
class TaintAnalysis::BodyWorklist {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  BodyWorklist(const TaintAnalysis& taint, const ir::Function& fn);

  [[nodiscard]] const ir::Instruction& instruction(std::uint32_t pos) const {
    return *insts_[pos];
  }
  /// Queues every reader of what `growth` says grew at position `at`.
  void revisit(std::uint32_t at, unsigned growth);
  /// Makes the queued next round current; false when it is empty.
  bool nextRound();
  /// The current round's next queued position in block order, or kNone.
  std::uint32_t pop();

 private:
  using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  /// Compressed adjacency: the targets of position p are
  /// list[start[p] .. start[p + 1]).
  struct Adjacency {
    std::vector<std::uint32_t> start;
    std::vector<std::uint32_t> list;
  };
  static Adjacency compress(const Edges& edges, std::size_t positions);
  static void set(std::vector<std::uint64_t>& round, std::uint32_t pos) {
    round[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }
  void queue(std::uint32_t at, std::uint32_t pos) {
    set(pos > at ? current_ : next_, pos);
  }
  void queueBlock(std::uint32_t at, std::uint32_t block);

  std::vector<const ir::Instruction*> insts_;
  /// First position of each block, plus one past the last instruction.
  std::vector<std::uint32_t> block_start_;
  /// Readers of each position's value: its SSA users, and the phis whose
  /// incoming block ends in or is controlled by a branch on it.
  Adjacency readers_;
  /// Blocks whose control taint includes a branch on each position.
  Adjacency controlled_;
  std::vector<std::uint32_t> memory_loads_;  ///< loads that read objects
  std::vector<std::uint32_t> self_calls_;    ///< calls that may target fn
  /// Stores and calls: they resolve parameter symbols against the
  /// function's own concrete argument taint.
  std::vector<std::uint32_t> arg_readers_;
  std::vector<std::uint64_t> current_;
  std::vector<std::uint64_t> next_;
  std::size_t word_ = 0;  ///< pop cursor into current_
};

TaintAnalysis::BodyWorklist::BodyWorklist(const TaintAnalysis& taint,
                                          const ir::Function& fn) {
  // Operand -> position through a sorted table rather than a map.
  std::vector<std::pair<std::uintptr_t, std::uint32_t>> position_of;
  for (const auto& bb : fn.blocks()) {
    block_start_.push_back(static_cast<std::uint32_t>(insts_.size()));
    for (const auto& inst : bb->instructions()) {
      position_of.emplace_back(reinterpret_cast<std::uintptr_t>(inst),
                               static_cast<std::uint32_t>(insts_.size()));
      insts_.push_back(inst);
    }
  }
  block_start_.push_back(static_cast<std::uint32_t>(insts_.size()));
  std::sort(position_of.begin(), position_of.end());
  const auto position = [&position_of](const ir::Value* v) {
    const auto key = reinterpret_cast<std::uintptr_t>(v);
    const auto it = std::lower_bound(position_of.begin(), position_of.end(),
                                     std::make_pair(key, std::uint32_t{0}));
    return it != position_of.end() && it->first == key ? it->second : kNone;
  };

  // The position of the condition `bb`'s conditional branch tests.
  const auto branch_condition = [&position](const ir::BasicBlock* bb) {
    const ir::Instruction* term = bb->terminator();
    if (term == nullptr || term->opcode() != ir::Opcode::kCondBr) {
      return kNone;
    }
    return position(term->operand(0));
  };

  Edges reads;
  Edges controls;
  std::uint32_t block = 0;
  const bool track_control = taint.options_.track_control_deps;
  const ir::CfgInfo& cfg = fn.cfg();
  for (const auto& bb : fn.blocks()) {
    if (track_control) {
      for (const ir::BasicBlock* controller : cfg.controllers(bb)) {
        const std::uint32_t cond = branch_condition(controller);
        if (cond != kNone) controls.emplace_back(cond, block);
      }
    }
    ++block;
  }
  for (std::uint32_t pos = 0; pos < insts_.size(); ++pos) {
    const ir::Instruction& inst = *insts_[pos];
    for (const ir::Value* op : inst.operands()) {
      const std::uint32_t def = position(op);
      if (def != kNone) reads.emplace_back(def, pos);
    }
    switch (inst.opcode()) {
      case ir::Opcode::kLoad:
        if (taint.shm_.info(inst.operand(0)) == nullptr) {
          memory_loads_.push_back(pos);
        }
        break;
      case ir::Opcode::kStore:
        arg_readers_.push_back(pos);
        break;
      case ir::Opcode::kCall: {
        arg_readers_.push_back(pos);
        const auto targets = taint.callgraph_.targets(inst);
        if (std::find(targets.begin(), targets.end(), &fn) != targets.end()) {
          self_calls_.push_back(pos);
        }
        break;
      }
      case ir::Opcode::kPhi:
        if (!track_control) break;
        for (const ir::BasicBlock* incoming : inst.block_refs) {
          const std::uint32_t cond = branch_condition(incoming);
          if (cond != kNone) reads.emplace_back(cond, pos);
          for (const ir::BasicBlock* controller : cfg.controllers(incoming)) {
            const std::uint32_t c = branch_condition(controller);
            if (c != kNone) reads.emplace_back(c, pos);
          }
        }
        break;
      default:
        break;
    }
  }
  readers_ = compress(reads, insts_.size());
  controlled_ = compress(controls, insts_.size());
  current_.assign((insts_.size() + 63) / 64, 0);
  next_ = current_;
}

TaintAnalysis::BodyWorklist::Adjacency TaintAnalysis::BodyWorklist::compress(
    const Edges& edges, std::size_t positions) {
  Adjacency adj;
  adj.start.assign(positions + 1, 0);
  for (const auto& [from, to] : edges) ++adj.start[from + 1];
  for (std::size_t p = 0; p < positions; ++p) {
    adj.start[p + 1] += adj.start[p];
  }
  adj.list.resize(edges.size());
  std::vector<std::uint32_t> fill(adj.start.begin(), adj.start.end() - 1);
  for (const auto& [from, to] : edges) adj.list[fill[from]++] = to;
  return adj;
}

void TaintAnalysis::BodyWorklist::queueBlock(std::uint32_t at,
                                             std::uint32_t block) {
  // A block entered at or before `at` has read its control taint already.
  auto& round = block_start_[block] > at ? current_ : next_;
  for (std::uint32_t pos = block_start_[block]; pos < block_start_[block + 1];
       ++pos) {
    set(round, pos);
  }
}

void TaintAnalysis::BodyWorklist::revisit(std::uint32_t at, unsigned growth) {
  if ((growth & kGrewValue) != 0) {
    for (std::uint32_t i = readers_.start[at]; i < readers_.start[at + 1];
         ++i) {
      queue(at, readers_.list[i]);
    }
    for (std::uint32_t i = controlled_.start[at];
         i < controlled_.start[at + 1]; ++i) {
      queueBlock(at, controlled_.list[i]);
    }
  }
  if ((growth & kGrewObject) != 0) {
    for (const std::uint32_t pos : memory_loads_) queue(at, pos);
  }
  if ((growth & kGrewReturn) != 0) {
    for (const std::uint32_t pos : self_calls_) queue(at, pos);
  }
  if ((growth & kGrewOwnArgs) != 0) {
    for (const std::uint32_t pos : arg_readers_) queue(at, pos);
  }
}

bool TaintAnalysis::BodyWorklist::nextRound() {
  current_.swap(next_);
  std::fill(next_.begin(), next_.end(), 0);
  word_ = 0;
  return std::any_of(current_.begin(), current_.end(),
                     [](std::uint64_t w) { return w != 0; });
}

std::uint32_t TaintAnalysis::BodyWorklist::pop() {
  for (; word_ < current_.size(); ++word_) {
    std::uint64_t& word = current_[word_];
    if (word == 0) continue;
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
    word &= word - 1;
    return static_cast<std::uint32_t>(word_ * 64) + bit;
  }
  return kNone;
}

bool TaintAnalysis::analyzeFunction(const ir::Function& fn,
                                    const AssumptionSet& assumptions) {
  // Once the budget trips, report "no change": the function worklist
  // drains, since nothing grows to wake.
  if (budget_ != nullptr && budget_->exhausted()) return false;
  ++body_analyses_;
  SAFEFLOW_COUNT("taint.body_analyses");
  support::ScopedSpan span("taint.function");
  span.arg("fn", std::string(fn.name()));

  bool changed_any = false;
  // Seed each argument with its symbolic parameter taint; concrete taints
  // arriving from call sites are kept separately in arg_concrete_.
  for (const auto& arg : fn.args()) {
    TaintPair symbol;
    symbol.data.params.insert(arg->index());
    changed_any |=
        grow(value_taint_[arg], pool_.intern(std::move(symbol)));
  }

  // What makes a round count as changed, as the whole-pass loop counted
  // it: own argument growth also sets kGrewCalleeArgs.
  constexpr unsigned kChanged =
      kGrewValue | kGrewObject | kGrewReturn | kGrewCalleeArgs;
  std::uint64_t evals = 0;  // added to the counter once, at the end
  bool in_budget = true;
  bool changed = false;

  // First round: every instruction, in block order. The worklist is built
  // at the first growth, so a body whose first pass grows nothing never
  // pays for the index.
  std::optional<BodyWorklist> worklist;
  std::uint32_t pos = 0;
  for (const auto& bb : fn.blocks()) {
    TaintId block_control = TaintPool::kEmpty;
    if (options_.track_control_deps) {
      block_control = blockControlTaint(bb);
    }
    for (const auto& inst : bb->instructions()) {
      in_budget = support::budgetStep(budget_);
      if (!in_budget) break;
      ++evals;
      const unsigned growth =
          evalInstruction(*inst, fn, block_control, assumptions);
      changed |= (growth & kChanged) != 0;
      if (growth != 0) {
        if (!worklist) worklist.emplace(*this, fn);
        worklist->revisit(pos, growth);
      }
      ++pos;
    }
    if (!in_budget) break;
  }
  changed_any |= changed;

  // Later rounds re-evaluate only what a growth queued, until a round
  // changes nothing.
  while (in_budget && changed && worklist && worklist->nextRound()) {
    changed = false;
    const ir::BasicBlock* entered = nullptr;
    TaintId block_control = TaintPool::kEmpty;
    for (std::uint32_t at = worklist->pop(); at != BodyWorklist::kNone;
         at = worklist->pop()) {
      in_budget = support::budgetStep(budget_);
      if (!in_budget) break;
      ++evals;
      const ir::Instruction& inst = worklist->instruction(at);
      if (options_.track_control_deps && inst.parent() != entered) {
        entered = inst.parent();
        block_control = blockControlTaint(entered);
      }
      const unsigned growth =
          evalInstruction(inst, fn, block_control, assumptions);
      changed |= (growth & kChanged) != 0;
      worklist->revisit(at, growth);
    }
  }
  SAFEFLOW_COUNT_N("taint.instruction_evals", evals);
  return in_budget && changed_any;
}

unsigned TaintAnalysis::evalInstruction(const ir::Instruction& inst,
                                        const ir::Function& fn,
                                        TaintId block_control,
                                        const AssumptionSet& assumptions) {
  unsigned growth = 0;
  TaintId result = TaintPool::kEmpty;
  switch (inst.opcode()) {
    case ir::Opcode::kLoad:
      result = loadTaint(inst, assumptions);
      break;
    case ir::Opcode::kStore: {
      // Memory objects are shared across contexts, so escaping taints are
      // resolved to their concrete form first.
      const TaintId stored =
          pool_.join(resolveConcrete(operandTaint(inst.operand(0)), fn),
                     resolveConcrete(block_control, fn));
      if (stored != TaintPool::kEmpty) {
        for (ObjId obj : alias_.pointsTo(inst.operand(1))) {
          if (alias_.regionOf(obj) >= 0) continue;  // shm writes do not
          // change the region's core/non-core status (§2).
          if (grow(object_taint_[obj], stored)) {
            growth |= kGrewObject;
            wakeReaders(obj, fn);
          }
        }
      }
      return growth;
    }
    case ir::Opcode::kBinOp:
    case ir::Opcode::kUnOp:
    case ir::Opcode::kCmp:
    case ir::Opcode::kCast:
    case ir::Opcode::kFieldAddr:
    case ir::Opcode::kIndexAddr:
      for (const ir::Value* op : inst.operands()) {
        result = pool_.join(result, operandTaint(op));
      }
      break;
    case ir::Opcode::kPhi:
      for (std::size_t i = 0; i < inst.numOperands(); ++i) {
        // Values arriving over a statically-infeasible edge can never flow
        // at runtime: skip the operand entirely.
        if (ranges_ != nullptr && i < inst.block_refs.size() &&
            ranges_->edgeInfeasible(inst.block_refs[i], inst.parent())) {
          if (pruned_phi_edges_.insert({&inst, i}).second) {
            SAFEFLOW_COUNT("ranges.phi_edges_pruned");
          }
          continue;
        }
        result = pool_.join(result, operandTaint(inst.operand(i)));
        // The choice of incoming edge leaks the branch condition.
        if (options_.track_control_deps && i < inst.block_refs.size()) {
          const ir::Instruction* pterm = inst.block_refs[i]->terminator();
          if (pterm != nullptr && pterm->opcode() == ir::Opcode::kCondBr &&
              !(ranges_ != nullptr &&
                ranges_->decidedBranch(pterm).has_value())) {
            result = pool_.join(
                result, pool_.controlOf(operandTaint(pterm->operand(0))));
          }
          result =
              pool_.join(result, blockControlTaint(inst.block_refs[i]));
        }
      }
      break;
    case ir::Opcode::kCall:
      call_growth_ = 0;
      result = evalCall(inst, assumptions);
      growth = call_growth_;
      break;
    case ir::Opcode::kRet:
      if (inst.numOperands() == 1) {
        TaintId& ret = return_taint_[&fn];
        const bool grew_value = grow(ret, operandTaint(inst.operand(0)));
        const bool grew_control = grow(ret, block_control);
        if (grew_value || grew_control) {
          SAFEFLOW_COUNT("taint.summaries_computed");
          growth |= kGrewReturn;
        }
      }
      return growth;
    default:
      return growth;
  }
  if (options_.track_control_deps) {
    result = pool_.join(result, block_control);
  }
  if (result != TaintPool::kEmpty && grow(value_taint_[&inst], result)) {
    growth |= kGrewValue;
  }
  return growth;
}

TaintId TaintAnalysis::evalReceive(const ir::Instruction& call) {
  // Returns the call-result taint; buffer objects are tainted in place.
  for (const auto& rc : options_.receive_calls) {
    if (call.direct_callee == nullptr ||
        call.direct_callee->name() != rc.name) {
      continue;
    }
    if (rc.socket_arg >= call.numOperands() ||
        rc.buffer_arg >= call.numOperands()) {
      continue;
    }
    const ir::GlobalVar* fd = traceToGlobal(call.operand(rc.socket_arg));
    const ShmRegion* channel =
        fd != nullptr ? regions_.channelByGlobal(fd) : nullptr;
    // A core channel's received data is safe.
    if (channel == nullptr) return TaintPool::kEmpty;
    TaintPair received;
    received.data.sources[channel->id].insert(&call);
    const TaintId incoming = pool_.intern(std::move(received));
    for (ObjId obj : alias_.pointsTo(call.operand(rc.buffer_arg))) {
      if (alias_.regionOf(obj) >= 0) continue;
      // The caller may have loaded the buffer earlier in the round.
      if (grow(object_taint_[obj], incoming)) {
        call_growth_ |= kGrewObject;
        wakeReaders(obj, *call.parent()->parent());
      }
    }
    return incoming;  // byte count / status also reflects the channel
  }
  return TaintPool::kEmpty;
}

bool TaintAnalysis::isReceiveCall(const ir::Instruction& call) const {
  if (call.direct_callee == nullptr) return false;
  for (const auto& rc : options_.receive_calls) {
    if (call.direct_callee->name() == rc.name) return true;
  }
  return false;
}

TaintId TaintAnalysis::evalCall(const ir::Instruction& call,
                                const AssumptionSet& caller_assumptions) {
  TaintId result = TaintPool::kEmpty;
  const std::size_t first_arg = call.direct_callee == nullptr ? 1 : 0;
  const ir::Function* caller = call.parent()->parent();

  if (isReceiveCall(call)) return evalReceive(call);

  bool any_defined = false;
  for (const ir::Function* target : callgraph_.targets(call)) {
    if (target->isIntrinsic()) return TaintPool::kEmpty;
    if (!target->isDefined() || regions_.isInitFunction(target)) continue;
    any_defined = true;

    // Concrete argument taints accumulate per parameter (used when the
    // parameter escapes to memory or reaches a report site).
    for (std::size_t i = first_arg; i < call.numOperands(); ++i) {
      const std::size_t p = i - first_arg;
      if (p >= target->args().size()) break;
      const TaintId arg =
          resolveConcrete(operandTaint(call.operand(i)), *caller);
      if (arg != TaintPool::kEmpty &&
          grow(arg_concrete_[target->args()[p]], arg)) {
        call_growth_ |= target == caller ? kGrewCalleeArgs | kGrewOwnArgs
                                         : kGrewCalleeArgs;
        // The body solver revisits what a self call grows.
        if (target != caller) worklist_->wake(target);
      }
    }

    if (options_.mode == TaintOptions::Mode::kCallStrings) {
      AssumptionSet ctx = caller_assumptions;
      const AssumptionSet& local = local_assumptions_[target];
      ctx.insert(local.begin(), local.end());
      std::vector<AssumptionSet>& contexts = contexts_[target];
      if (std::find(contexts.begin(), contexts.end(), ctx) ==
          contexts.end()) {
        SAFEFLOW_COUNT("taint.context_clones");
        contexts.push_back(std::move(ctx));
        // A context added to the caller itself is solved in this visit.
        if (target != caller) worklist_->wake(target);
      }
    }
    // Instantiate the summary for THIS call site: parameter symbols are
    // replaced by the actual argument taints (context sensitivity in the
    // function's inputs, per the paper's value-flow-graph summaries).
    const auto it = return_taint_.find(target);
    const TaintId summary =
        it == return_taint_.end() ? TaintPool::kEmpty : it->second;
    result = pool_.join(result, substituteSummary(summary, call, first_arg));
  }

  if (!any_defined) {
    // External function: its result conservatively depends on all
    // arguments.
    for (std::size_t i = first_arg; i < call.numOperands(); ++i) {
      result = pool_.join(result, operandTaint(call.operand(i)));
    }
  }
  return result;
}

void TaintAnalysis::run(SafeFlowReport& report) {
  const support::ScopedTimer timer("phase.taint");
  support::budgetBeginPhase(budget_, "taint");
  {
    const support::ScopedSpan span("taint.assumptions");
    computeLocalAssumptions();
    computeEffectiveAssumptions();
  }

  const auto member = [this](const ir::Function& fn) {
    return fn.isDefined() && !regions_.isInitFunction(&fn);
  };
  // Each function's contexts and the objects its loads read, as loadTaint
  // reads them: the points-to set of an ordinary-memory load with each
  // cell's ancestors. Summaries solve a body under its effective set; call
  // strings start at the local sets of the roots and of the functions no
  // root reaches, and calls add the rest.
  const bool call_strings = options_.mode == TaintOptions::Mode::kCallStrings;
  for (const auto& fn : module_.functions()) {
    if (!member(*fn)) continue;
    if (!call_strings) {
      contexts_[fn].push_back(effectiveAssumptions(fn));
    } else if (callgraph_.isRoot(fn) || effective_is_top_[fn]) {
      contexts_[fn].push_back(local_assumptions_[fn]);
    }
    ObjSet reads;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kLoad ||
            shm_.info(inst->operand(0)) != nullptr) {
          continue;
        }
        for (ObjId base : alias_.pointsTo(inst->operand(0))) {
          if (alias_.regionOf(base) >= 0) continue;
          for (ObjId obj = base; obj >= 0; obj = alias_.parentOf(obj)) {
            if (!reads.insert(obj)) break;
          }
        }
      }
    }
    if (!reads.empty()) {
      object_reads_.emplace_back(fn, std::move(reads));
    }
  }
  ir::FunctionWorklist worklist(callgraph_, member);
  worklist_ = &worklist;
  const auto returned = [this](const ir::Function* fn) {
    const auto it = return_taint_.find(fn);
    return it == return_taint_.end() ? TaintPool::kEmpty : it->second;
  };
  while (const ir::Function* fn = worklist.pop()) {
    const TaintId before = returned(fn);
    // By index, and solving a copy: a body can add a context to its own
    // function.
    const std::vector<AssumptionSet>& contexts = contexts_[fn];
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      const AssumptionSet context = contexts[i];
      memo_.enabled() ? memoizedAnalyze(*fn, context)
                      : analyzeFunction(*fn, context);
    }
    if (returned(fn) != before) worklist.wakeCallers(fn);
  }
  worklist_ = nullptr;

  const support::ScopedSpan report_span("taint.report");
  reportWarnings(report);
  reportAsserts(report);
  if (!regions_.empty()) {
    if (regions_.initCheckVerifiedStatically()) {
      report.required_runtime_checks.push_back(
          "InitCheck: region extents were derived statically and proven "
          "non-overlapping (no run-time check needed)");
    } else {
      report.required_runtime_checks.push_back(
          "InitCheck: verify declared shmvar regions do not overlap at "
          "bootstrap (executed once during shared-memory initialization)");
    }
  }
}

// ---------------------------------------------------------------------------
// Per-function memoization (summary mode)
// ---------------------------------------------------------------------------

namespace {

/// Cross-run stable, order-independent encoding of a Taint: sources as
/// sorted (owner function, position) pairs, params as sorted indices.
std::vector<std::pair<std::string, int>> sortedRefs(
    const std::set<const ir::Instruction*>& insts, const ModuleIndex& index) {
  std::vector<std::pair<std::string, int>> refs;
  refs.reserve(insts.size());
  for (const ir::Instruction* inst : insts) {
    const auto [fn, id] = index.locate(inst);
    refs.emplace_back(std::string(fn != nullptr ? fn->name() : "?"), id);
  }
  std::sort(refs.begin(), refs.end());
  return refs;
}

void writeTaint(BlobWriter& w, const Taint& t, const ModuleIndex& index) {
  w.u64(t.sources.size());
  for (const auto& [region, insts] : t.sources) {
    w.i64(region);
    const auto refs = sortedRefs(insts, index);
    w.u64(refs.size());
    for (const auto& [owner, id] : refs) {
      w.str(owner);
      w.i64(id);
    }
  }
  w.u64(t.params.size());
  for (const unsigned p : t.params) w.u64(p);
}

bool readTaint(BlobReader& r, Taint* t, const ModuleIndex& index) {
  const std::uint64_t nregions = r.u64();
  for (std::uint64_t i = 0; i < nregions && r.ok(); ++i) {
    const int region = static_cast<int>(r.i64());
    const std::uint64_t n = r.u64();
    for (std::uint64_t j = 0; j < n && r.ok(); ++j) {
      const std::string owner = r.str();
      const int id = static_cast<int>(r.i64());
      const ir::Value* v = index.resolve(owner, id);
      if (v == nullptr || !v->isInstruction()) return false;
      t->sources[region].insert(static_cast<const ir::Instruction*>(v));
    }
  }
  const std::uint64_t nparams = r.u64();
  for (std::uint64_t i = 0; i < nparams && r.ok(); ++i) {
    t->params.insert(static_cast<unsigned>(r.u64()));
  }
  return r.ok();
}

void writeTaintPair(BlobWriter& w, const TaintPair& t,
                    const ModuleIndex& index) {
  writeTaint(w, t.data, index);
  writeTaint(w, t.control, index);
}

bool readTaintPair(BlobReader& r, TaintPair* t, const ModuleIndex& index) {
  return readTaint(r, &t->data, index) && readTaint(r, &t->control, index);
}

std::string taintStr(const Taint& t, const ModuleIndex& index) {
  std::string s;
  for (const auto& [region, insts] : t.sources) {
    s += std::to_string(region) + "{";
    for (const auto& [owner, id] : sortedRefs(insts, index)) {
      s += owner + "#" + std::to_string(id) + ",";
    }
    s += "}";
  }
  s += "|";
  for (const unsigned p : t.params) s += std::to_string(p) + ",";
  return s;
}

std::string taintPairStr(const TaintPair& t, const ModuleIndex& index) {
  return taintStr(t.data, index) + "||" + taintStr(t.control, index);
}

bool taintRelevantTarget(const ir::Function* target,
                         const ShmRegionTable& regions) {
  return target->isDefined() && !target->isIntrinsic() &&
         !regions.isInitFunction(target);
}

}  // namespace

std::map<std::string, ObjId> TaintAnalysis::memoFootprint(
    const ir::Function& fn) const {
  // Every object the solve can touch is reached through the points-to set
  // of some operand (stores/loads/receive buffers) or its ancestor chain
  // (loadTaint walks parents). Operands — not just function-local values —
  // because a store through a global pointer writes that global's object.
  std::set<ObjId> objs;
  const auto add_chain = [this, &objs](ObjId base) {
    for (ObjId obj = base; obj >= 0; obj = alias_.parentOf(obj)) {
      if (!objs.insert(obj).second) break;
    }
  };
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      for (const ir::Value* op : inst->operands()) {
        for (ObjId obj : alias_.pointsTo(op)) add_chain(obj);
      }
      for (ObjId obj : alias_.pointsTo(inst)) add_chain(obj);
    }
  }
  std::map<std::string, ObjId> named;
  for (const ObjId obj : objs) {
    named.emplace(stableObjectName(alias_, *memo_.index, obj), obj);
  }
  return named;
}

// The phase-constant half of the input digest. Everything here is fixed
// before the taint fixpoint starts (assumptions, shm facts, range
// verdicts, alias shapes, the footprint, the call target list), so it is
// hashed once per function per run; re-hashing it on every fixpoint
// visit would make a warm digest probe as expensive as the solve it is
// supposed to replace.
const TaintAnalysis::MemoStatics& TaintAnalysis::memoStatics(
    const ir::Function& fn, const AssumptionSet& assumptions) const {
  const auto cached = memo_statics_.find(&fn);
  if (cached != memo_statics_.end()) return cached->second;

  const ModuleIndex& index = *memo_.index;
  const ValueIndex& vi = index.of(fn);
  MemoStatics st;
  support::Fnv1a h;
  hashToken(h, "taint-static");
  hashToken(h, fn.name());

  hashUint(h, assumptions.size());
  for (const CoreAssumption& a : assumptions) {
    hashInt(h, a.region);
    hashInt(h, a.offset);
    hashInt(h, a.size);
  }

  const auto& values = vi.values();
  hashToken(h, "shm");
  for (std::size_t id = 0; id < values.size(); ++id) {
    const ShmPtrInfo* info = shm_.info(values[id]);
    if (info == nullptr) continue;
    hashUint(h, id);
    hashUint(h, info->regions.size());
    for (const int r : info->regions) hashInt(h, r);
    hashInt(h, info->lo);
    hashInt(h, info->hi);
    hashUint(h, info->offset_known ? 1 : 0);
  }

  hashToken(h, "ranges");
  if (ranges_ != nullptr) {
    for (std::size_t id = 0; id < values.size(); ++id) {
      if (!values[id]->isInstruction()) continue;
      const auto* inst = static_cast<const ir::Instruction*>(values[id]);
      if (inst->opcode() == ir::Opcode::kCondBr) {
        const auto d = ranges_->decidedBranch(inst);
        hashUint(h, id);
        hashInt(h, d ? static_cast<int>(*d) : 2);
      } else if (inst->opcode() == ir::Opcode::kPhi) {
        hashUint(h, id);
        for (std::size_t i = 0; i < inst->block_refs.size(); ++i) {
          hashUint(h, ranges_->edgeInfeasible(inst->block_refs[i],
                                              inst->parent())
                          ? 1
                          : 0);
        }
      }
    }
  }

  hashToken(h, "alias");
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      for (const ir::Value* op : inst->operands()) {
        const auto& pts = alias_.pointsTo(op);
        if (pts.empty()) continue;
        std::vector<std::string> names;
        names.reserve(pts.size());
        for (const ObjId obj : pts) {
          names.push_back(stableObjectName(alias_, index, obj));
        }
        std::sort(names.begin(), names.end());
        hashUint(h, names.size());
        for (const std::string& n : names) hashToken(h, n);
      }
    }
  }

  st.footprint = memoFootprint(fn);
  hashToken(h, "objs");
  st.footprint_hashed.reserve(st.footprint.size());
  for (const auto& [name, obj] : st.footprint) {
    hashToken(h, name);
    st.footprint_hashed.emplace_back(support::fnv1a(name), obj);
  }

  hashToken(h, "calls");
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (!taintRelevantTarget(target, regions_)) continue;
        hashToken(h, target->name());
        st.call_targets.emplace_back(target, support::fnv1a(target->name()));
      }
    }
  }

  st.digest = h.digest();
  return memo_statics_.emplace(&fn, std::move(st)).first->second;
}

std::uint64_t TaintAnalysis::memoRefHash(const ir::Instruction* inst) const {
  const auto it = memo_ref_hash_.find(inst);
  if (it != memo_ref_hash_.end()) return it->second;
  const auto [owner, id] = memo_.index->locate(inst);
  support::Fnv1a h;
  hashToken(h, owner != nullptr ? owner->name() : "?");
  hashInt(h, id);
  return memo_ref_hash_.emplace(inst, h.digest()).first->second;
}

void TaintAnalysis::hashTaintDigest(support::Fnv1a& h, const Taint& t) const {
  hashUint(h, t.sources.size());
  std::vector<std::uint64_t> refs;
  for (const auto& [region, insts] : t.sources) {
    hashInt(h, region);
    refs.clear();
    refs.reserve(insts.size());
    for (const ir::Instruction* inst : insts) {
      refs.push_back(memoRefHash(inst));
    }
    // Sources live in pointer-keyed sets; sorting the stable per-ref
    // hashes restores a cross-run canonical order without building the
    // (owner name, id) strings sortedRefs needs for the blob codec.
    std::sort(refs.begin(), refs.end());
    hashUint(h, refs.size());
    for (const std::uint64_t ref : refs) hashUint(h, ref);
  }
  hashUint(h, t.params.size());
  for (const unsigned p : t.params) hashUint(h, p);
}

void TaintAnalysis::hashTaintPairDigest(support::Fnv1a& h,
                                        const TaintPair& t) const {
  hashTaintDigest(h, t.data);
  hashTaintDigest(h, t.control);
}

// Input digest of the per-function transformer: everything analyzeFunction
// (summary mode) reads that can differ between runs with an identical
// function key — the phase-constant statics above plus the evolving
// fixpoint state: its own value taints, its arguments' concrete taints,
// its return taint, the object taints of its footprint, and per call site
// the callee's return taint and formal pre-states.
void TaintAnalysis::digestInput(const ir::Function& fn,
                                const AssumptionSet& assumptions,
                                support::Fnv1a& h) const {
  const MemoStatics& st = memoStatics(fn, assumptions);
  const ValueIndex& vi = memo_.index->of(fn);
  hashToken(h, "taint-in");
  hashUint(h, st.digest);

  const auto& values = vi.values();
  hashToken(h, "vt");
  for (std::size_t id = 0; id < values.size(); ++id) {
    const auto it = value_taint_.find(values[id]);
    if (it == value_taint_.end()) continue;
    hashUint(h, id);
    hashTaintPairDigest(h, pool_.get(it->second));
  }
  hashToken(h, "argc");
  for (std::size_t p = 0; p < fn.args().size(); ++p) {
    const auto it = arg_concrete_.find(fn.args()[p]);
    if (it == arg_concrete_.end()) continue;
    hashUint(h, p);
    hashTaintPairDigest(h, pool_.get(it->second));
  }
  hashToken(h, "ret");
  const auto rit = return_taint_.find(&fn);
  hashUint(h, rit == return_taint_.end() ? 0 : 1);
  if (rit != return_taint_.end()) {
    hashTaintPairDigest(h, pool_.get(rit->second));
  }

  hashToken(h, "objs");
  for (const auto& [name_hash, obj] : st.footprint_hashed) {
    const auto it = object_taint_.find(obj);
    if (it == object_taint_.end()) continue;
    hashUint(h, name_hash);
    hashTaintPairDigest(h, pool_.get(it->second));
  }

  hashToken(h, "calls");
  for (const auto& [target, name_hash] : st.call_targets) {
    hashUint(h, name_hash);
    const auto trit = return_taint_.find(target);
    hashUint(h, trit == return_taint_.end() ? 0 : 1);
    if (trit != return_taint_.end()) {
      hashTaintPairDigest(h, pool_.get(trit->second));
    }
    for (std::size_t p = 0; p < target->args().size(); ++p) {
      const auto ait = arg_concrete_.find(target->args()[p]);
      if (ait == arg_concrete_.end()) continue;
      hashUint(h, p);
      hashTaintPairDigest(h, pool_.get(ait->second));
    }
  }
}

std::string TaintAnalysis::captureRecord(const ir::Function& fn,
                                         bool identity,
                                         bool changed_any) const {
  const ModuleIndex& index = *memo_.index;
  const ValueIndex& vi = index.of(fn);

  // Taint pairs are written through a per-blob intern table: in a
  // converged function most values carry the same accumulated pair, and
  // without interning a hub function's record grows with (values ×
  // sources) instead of (distinct pairs) — tens of megabytes for a
  // module whose distinct state fits in kilobytes.
  std::vector<std::string> table;
  std::map<std::string, std::uint64_t> interned;
  const auto intern = [&](TaintId t) {
    BlobWriter pw;
    writeTaintPair(pw, pool_.get(t), index);
    std::string bytes = pw.take();
    const auto it = interned.find(bytes);
    if (it != interned.end()) return it->second;
    const std::uint64_t idx = table.size();
    table.push_back(bytes);
    interned.emplace(std::move(bytes), idx);
    return idx;
  };

  const auto& values = vi.values();
  std::vector<std::pair<std::size_t, std::uint64_t>> own;
  for (std::size_t id = 0; id < values.size(); ++id) {
    const auto it = value_taint_.find(values[id]);
    if (it == value_taint_.end()) continue;
    own.emplace_back(id, intern(it->second));
  }

  const auto rit = return_taint_.find(&fn);
  const std::uint64_t ret_idx =
      rit != return_taint_.end() ? intern(rit->second) : 0;

  const auto sit = memo_statics_.find(&fn);
  const auto footprint =
      sit != memo_statics_.end() ? sit->second.footprint : memoFootprint(fn);
  std::vector<std::pair<std::string, std::uint64_t>> obj_slots;
  for (const auto& [name, obj] : footprint) {
    const auto it = object_taint_.find(obj);
    if (it == object_taint_.end()) continue;
    obj_slots.emplace_back(name, intern(it->second));
  }

  std::set<std::pair<std::string, std::size_t>> seen;
  std::vector<std::tuple<std::string, std::size_t, std::uint64_t>>
      formal_slots;
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (!taintRelevantTarget(target, regions_)) continue;
        for (std::size_t p = 0; p < target->args().size(); ++p) {
          const ir::Argument* formal = target->args()[p];
          const auto it = arg_concrete_.find(formal);
          if (it == arg_concrete_.end()) continue;
          if (!seen.insert({std::string(target->name()), p}).second) continue;
          formal_slots.emplace_back(target->name(), p, intern(it->second));
        }
      }
    }
  }

  BlobWriter w;
  // Identity = post-digest == pre-digest: the solve changed nothing in
  // the digested read/write set, so a hit may skip the state parse. The
  // driver signal is stored separately — the replay must return it.
  w.u64(identity ? 1 : 0);
  w.u64(changed_any ? 1 : 0);
  w.u64(table.size());
  for (const std::string& bytes : table) w.str(bytes);
  w.u64(own.size());
  for (const auto& [id, idx] : own) {
    w.u64(id);
    w.u64(idx);
  }
  w.u64(rit == return_taint_.end() ? 0 : 1);
  if (rit != return_taint_.end()) w.u64(ret_idx);
  w.u64(obj_slots.size());
  for (const auto& [name, idx] : obj_slots) {
    w.str(name);
    w.u64(idx);
  }
  w.u64(formal_slots.size());
  for (const auto& [name, p, idx] : formal_slots) {
    w.str(name);
    w.u64(p);
    w.u64(idx);
  }
  return w.take();
}

bool TaintAnalysis::applyRecord(const ir::Function& fn,
                                const std::string& blob, bool* changed_any) {
  const ModuleIndex& index = *memo_.index;
  const ValueIndex& vi = index.of(fn);
  const auto& values = vi.values();
  BlobReader r(blob);

  r.u64();  // identity flag, already consumed by the caller's peek
  const bool rc = r.u64() != 0;

  // Intern table first (see captureRecord): each distinct pair is parsed
  // once, slots reference it by index.
  const std::uint64_t ntable = r.u64();
  std::vector<TaintId> table;
  for (std::uint64_t i = 0; i < ntable && r.ok(); ++i) {
    const std::string bytes = r.str();
    BlobReader pr(bytes);
    TaintPair t;
    if (!readTaintPair(pr, &t, index) || !pr.atEnd()) return false;
    table.push_back(pool_.intern(std::move(t)));
  }
  const auto pair_at = [&](std::uint64_t idx) -> std::optional<TaintId> {
    if (idx >= table.size()) return std::nullopt;
    return table[idx];
  };

  std::vector<std::pair<const ir::Value*, TaintId>> staged_values;
  const std::uint64_t own = r.u64();
  for (std::uint64_t i = 0; i < own && r.ok(); ++i) {
    const std::uint64_t id = r.u64();
    const auto t = pair_at(r.u64());
    if (!r.ok() || !t || id >= values.size()) return false;
    staged_values.push_back({values[id], *t});
  }
  std::optional<TaintId> ret_taint;
  if (r.u64() != 0) {
    ret_taint = pair_at(r.u64());
    if (!r.ok() || !ret_taint) return false;
  }
  const auto sit = memo_statics_.find(&fn);
  const auto footprint =
      sit != memo_statics_.end() ? sit->second.footprint : memoFootprint(fn);
  std::vector<std::pair<ObjId, TaintId>> staged_objects;
  const std::uint64_t nobjs = r.u64();
  for (std::uint64_t i = 0; i < nobjs && r.ok(); ++i) {
    const std::string name = r.str();
    const auto t = pair_at(r.u64());
    const auto it = footprint.find(name);
    if (!r.ok() || !t || it == footprint.end()) return false;
    staged_objects.push_back({it->second, *t});
  }
  std::vector<std::pair<const ir::Argument*, TaintId>> staged_formals;
  const std::uint64_t nformals = r.u64();
  for (std::uint64_t i = 0; i < nformals && r.ok(); ++i) {
    const std::string name = r.str();
    const std::uint64_t p = r.u64();
    const auto t = pair_at(r.u64());
    const ir::Function* target = index.function(name);
    if (!r.ok() || !t || target == nullptr || p >= target->args().size()) {
      return false;
    }
    staged_formals.push_back({target->args()[p], *t});
  }
  if (!r.ok() || !r.atEnd()) return false;

  for (const auto& [v, t] : staged_values) value_taint_[v] = t;
  if (ret_taint) return_taint_[&fn] = *ret_taint;
  // A replayed object or formal that grew wakes its readers, as the solve
  // did.
  for (const auto& [obj, t] : staged_objects) {
    if (std::exchange(object_taint_[obj], t) != t) wakeReaders(obj, fn);
  }
  for (const auto& [formal, t] : staged_formals) {
    if (std::exchange(arg_concrete_[formal], t) != t &&
        formal->parent() != &fn) {
      worklist_->wake(formal->parent());
    }
  }
  *changed_any = rc;
  return true;
}

bool TaintAnalysis::memoizedAnalyze(const ir::Function& fn,
                                    const AssumptionSet& assumptions) {
  support::Fnv1a h;
  digestInput(fn, assumptions, h);
  const std::uint64_t digest = h.digest();
  if (const std::string* blob = memo_.bank->find(fn, digest)) {
    // Identity records changed nothing, so only the recorded driver
    // signal is needed — skip the state parse. This is what makes the
    // converged tail of a warm fixpoint (every visit after the first)
    // effectively free.
    BlobReader peek(*blob);
    const bool identity = peek.u64() != 0;
    const bool rc = peek.u64() != 0;
    if (peek.ok() && identity) return rc;
    bool changed = false;
    if (applyRecord(fn, *blob, &changed)) return changed;
  }
  const bool changed = analyzeFunction(fn, assumptions);
  if (budget_ == nullptr || !budget_->exhausted()) {
    // Post-digest == pre-digest detects identity transforms exactly: the
    // digest covers the full read set and the pre-state of the write set.
    support::Fnv1a post;
    digestInput(fn, assumptions, post);
    memo_.bank->record(fn, digest,
                       captureRecord(fn, post.digest() == digest, changed));
  }
  return changed;
}

std::uint64_t TaintAnalysis::digestState(const ModuleIndex& index) const {
  std::map<std::string, std::string> items;
  const auto stable = [&index](const ir::Value* v) {
    const auto [owner, id] = index.locate(v);
    return std::string(owner != nullptr ? owner->name() : "?") + "#" +
           std::to_string(id);
  };
  for (const auto& [v, t] : value_taint_) {
    items["v:" + stable(v)] = taintPairStr(pool_.get(t), index);
  }
  for (const auto& [obj, t] : object_taint_) {
    items["o:" + stableObjectName(alias_, index, obj)] =
        taintPairStr(pool_.get(t), index);
  }
  for (const auto& [arg, t] : arg_concrete_) {
    items["a:" + stable(arg)] = taintPairStr(pool_.get(t), index);
  }
  for (const auto& [fn, t] : return_taint_) {
    items["r:" + std::string(fn->name())] = taintPairStr(pool_.get(t), index);
  }
  support::Fnv1a h;
  for (const auto& [k, v] : items) {
    hashToken(h, k);
    hashToken(h, v);
  }
  return h.digest();
}

void TaintAnalysis::reportWarnings(SafeFlowReport& report) {
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined() || regions_.isInitFunction(fn)) continue;
    const AssumptionSet& assumptions = effectiveAssumptions(fn);
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kLoad) continue;
        const ShmPtrInfo* info = shm_.info(inst->operand(0));
        if (info == nullptr) {
          // Message channels (§3.4.3): reading received non-core data
          // outside a monitoring function warns per channel.
          std::set<int> channels;
          for (ObjId base : alias_.pointsTo(inst->operand(0))) {
            for (ObjId obj = base; obj >= 0; obj = alias_.parentOf(obj)) {
              auto it = object_taint_.find(obj);
              if (it == object_taint_.end()) continue;
              for (int region : pool_.get(it->second).data.regions()) {
                const ShmRegion* r = regions_.byId(region);
                if (r != nullptr && r->is_message_channel) {
                  channels.insert(region);
                }
              }
            }
          }
          for (int region : channels) {
            bool covered = false;
            for (const CoreAssumption& a : assumptions) {
              if (a.region == region) covered = true;
            }
            if (covered) continue;
            UnsafeAccessWarning w;
            w.location = inst->location();
            w.function = fn->name();
            w.region = region;
            w.region_name = regions_.byId(region)->name;
            report.warnings.push_back(std::move(w));
          }
          continue;
        }
        const std::int64_t size =
            static_cast<std::int64_t>(inst->type()->size());
        for (int region : info->regions) {
          const ShmRegion* r = regions_.byId(region);
          if (r == nullptr || !r->noncore) continue;
          if (isCovered(*info, size, assumptions, region)) continue;
          UnsafeAccessWarning w;
          w.location = inst->location();
          w.function = fn->name();
          w.region = region;
          w.region_name = r->name;
          w.offset_known = info->offset_known;
          w.offset_lo = info->lo;
          w.offset_hi = info->hi + size;
          report.warnings.push_back(std::move(w));
        }
      }
    }
  }
}

void TaintAnalysis::reportCriticalValue(SafeFlowReport& report,
                                        const ir::Instruction& site,
                                        const ir::Value* checked,
                                        const std::string& name) {
  // Resolve any parameter symbols against the concrete taints this
  // function receives (merged over its callers).
  const TaintPair& taint = pool_.get(
      resolveConcrete(operandTaint(checked), *site.parent()->parent()));
  if (taint.empty()) return;

  // One entry per involved region: a region reaching through data flow is
  // a genuine error dependency; a region present only in the control
  // component is the paper's manual-review (false positive) class.
  std::set<int> all_regions = taint.data.regions();
  for (int r : taint.control.regions()) all_regions.insert(r);
  for (int region : all_regions) {
    const bool via_data = taint.data.sources.contains(region);
    CriticalDependencyError e;
    e.kind = via_data ? CriticalDependencyError::Kind::kData
                      : CriticalDependencyError::Kind::kControl;
    e.assert_location = site.location();
    e.function = site.parent()->parent()->name();
    e.critical_value = name;
    e.regions.insert(region);
    if (const ShmRegion* r = regions_.byId(region)) {
      e.region_names.push_back(r->name);
    }
    const auto& source_map =
        via_data ? taint.data.sources : taint.control.sources;
    auto it = source_map.find(region);
    if (it != source_map.end()) {
      for (const ir::Instruction* load : it->second) {
        e.source_loads.push_back(load->location());
      }
      // The set behind source_map is keyed by instruction pointer, so
      // its iteration order is heap layout, not program order — sort by
      // location so every run (cold, warm replay, daemon) renders the
      // same bytes.
      std::sort(e.source_loads.begin(), e.source_loads.end());
    }
    report.errors.push_back(std::move(e));
  }
}

void TaintAnalysis::reportAsserts(SafeFlowReport& report) {
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kCall ||
            inst->direct_callee == nullptr) {
          continue;
        }
        if (inst->direct_callee->name() == ir::kIntrinsicAssertSafe) {
          ++report.asserts_checked;
          const ir::Value* checked = inst->operand(0);
          const std::string name(
              !inst->name().empty()
                  ? inst->name()
                  : (checked->name().empty() ? "<value>" : checked->name()));
          reportCriticalValue(report, *inst, checked, name);
          continue;
        }
        // Implicitly critical system-call arguments (e.g. kill's pid).
        for (const auto& [callee, arg] : options_.implicit_critical_calls) {
          if (inst->direct_callee->name() != callee) continue;
          const std::size_t idx = arg;  // direct call: args start at 0
          if (idx >= inst->numOperands()) continue;
          ++report.asserts_checked;
          reportCriticalValue(report, *inst, inst->operand(idx),
                              callee + "(arg" + std::to_string(arg) + ")");
        }
      }
    }
  }
}

}  // namespace safeflow::analysis
