#include "analysis/ranges.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "analysis/alias.h"
#include "analysis/report.h"
#include "analysis/shm_propagation.h"
#include "analysis/shm_regions.h"
#include "ir/cfg.h"
#include "support/diagnostics.h"
#include "support/metrics.h"

namespace safeflow::analysis {

namespace {

constexpr std::int64_t kMin = Interval::kMin;
constexpr std::int64_t kMax = Interval::kMax;

/// Updates a value may take before its grown bounds are widened to the
/// bounds of its type (loop accumulators hit this).
constexpr unsigned kWidenAfter = 4;
/// Interprocedural rounds (argument/return range propagation). The
/// fixpoint almost always settles in 2-3 rounds thanks to widening; if
/// it is still moving after this many, the pass degrades to ⊤.
constexpr unsigned kMaxModuleRounds = 16;

// --- saturating bound arithmetic -------------------------------------------
// Lower bounds saturate toward kMin (-inf), upper bounds toward kMax
// (+inf): an overflowing bound degrades to "unbounded", never wraps.

std::int64_t addLo(std::int64_t a, std::int64_t b) {
  if (a == kMin || b == kMin) return kMin;
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) return kMin;
  return r;
}

std::int64_t addHi(std::int64_t a, std::int64_t b) {
  if (a == kMax || b == kMax) return kMax;
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) return kMax;
  return r;
}

/// Lower bound of (x - y): a is a lower bound of x, b an upper bound of y.
std::int64_t subLo(std::int64_t a, std::int64_t b) {
  if (a == kMin || b == kMax) return kMin;
  std::int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) return kMin;
  return r;
}

/// Upper bound of (x - y): a is an upper bound of x, b a lower bound of y.
std::int64_t subHi(std::int64_t a, std::int64_t b) {
  if (a == kMax || b == kMin) return kMax;
  std::int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) return kMax;
  return r;
}

Interval negInterval(const Interval& x) {
  return Interval{subLo(0, x.hi), subHi(0, x.lo)};
}

Interval mulInterval(const Interval& x, const Interval& y) {
  if (x == Interval::constant(0) || y == Interval::constant(0)) {
    return Interval::constant(0);
  }
  if (!x.boundedBelow() || !x.boundedAbove() || !y.boundedBelow() ||
      !y.boundedAbove()) {
    return Interval::top();
  }
  std::int64_t lo = kMax;
  std::int64_t hi = kMin;
  for (std::int64_t a : {x.lo, x.hi}) {
    for (std::int64_t b : {y.lo, y.hi}) {
      std::int64_t p;
      if (__builtin_mul_overflow(a, b, &p)) return Interval::top();
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
  }
  return Interval{lo, hi};
}

/// C truncating division; sound only for provably positive divisors.
Interval divInterval(const Interval& x, const Interval& d) {
  if (d.lo < 1) return Interval::top();  // divisor may be zero or negative
  std::int64_t lo = kMax;
  std::int64_t hi = kMin;
  const auto consider = [&](std::int64_t q) {
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  };
  // For x/d with d > 0, the quotient is monotone in x and anti-monotone
  // in |.| toward 0 in d, so the extremes live at the corner points; an
  // unbounded d drives the quotient toward 0.
  if (!d.boundedAbove()) consider(0);
  bool any = false;
  for (std::int64_t a : {x.lo, x.hi}) {
    if (a == kMin || a == kMax) continue;
    any = true;
    consider(a / d.lo);
    if (d.boundedAbove()) consider(a / d.hi);
  }
  if (!any && lo > hi) return Interval::top();
  return Interval{x.boundedBelow() ? lo : kMin, x.boundedAbove() ? hi : kMax};
}

/// C remainder; sound only for provably positive, bounded divisors:
/// |x % d| < d <= d.hi, with the sign of x.
Interval remInterval(const Interval& x, const Interval& d) {
  if (d.lo < 1 || !d.boundedAbove()) return Interval::top();
  const std::int64_t m = d.hi - 1;
  if (x.lo >= 0) return Interval{0, m};
  if (x.hi <= 0) return Interval{-m, 0};
  return Interval{-m, m};
}

/// Smallest (2^k - 1) >= v, for the bit-or/xor upper bound.
std::int64_t pow2Mask(std::int64_t v) {
  std::int64_t m = 1;
  while (m - 1 < v && m < (std::int64_t{1} << 62)) m <<= 1;
  return m - 1;
}

Interval andInterval(const Interval& x, const Interval& y) {
  // For a & b with a >= 0 (two's complement): 0 <= a & b <= a.
  if (x.lo >= 0 && y.lo >= 0) return Interval{0, std::min(x.hi, y.hi)};
  if (x.lo >= 0) return Interval{0, x.hi};
  if (y.lo >= 0) return Interval{0, y.hi};
  return Interval::top();
}

Interval orXorInterval(const Interval& x, const Interval& y, bool is_or) {
  if (x.lo < 0 || y.lo < 0) return Interval::top();
  if (!x.boundedAbove() || !y.boundedAbove()) {
    return Interval{is_or ? std::max(x.lo, y.lo) : 0, kMax};
  }
  const std::int64_t hi = pow2Mask(std::max(x.hi, y.hi));
  return Interval{is_or ? std::max(x.lo, y.lo) : 0, hi};
}

Interval shiftInterval(const Interval& x, const Interval& s, bool left) {
  if (!s.isSingleton() || s.lo < 0 || s.lo > 62) return Interval::top();
  if (left) {
    return mulInterval(x, Interval::constant(std::int64_t{1} << s.lo));
  }
  if (x.lo < 0) return Interval::top();  // signed right shift of negatives
  return Interval{x.boundedBelow() ? (x.lo >> s.lo) : kMin,
                  x.boundedAbove() ? (x.hi >> s.lo) : kMax};
}

/// The representable range of an integer type ([lo, +inf) for u64, whose
/// upper bound does not fit int64); ⊤ for everything else.
Interval typeInterval(const ir::Type* t) {
  if (t == nullptr || !t->isInteger()) return Interval::top();
  const auto* it = static_cast<const cfront::IntegerType*>(t);
  const std::uint64_t bits = it->size() * 8;
  if (bits == 0 || bits >= 64) {
    return it->isSigned() ? Interval::top() : Interval{0, kMax};
  }
  if (it->isSigned()) {
    const std::int64_t half = std::int64_t{1} << (bits - 1);
    return Interval{-half, half - 1};
  }
  return Interval{0, (std::int64_t{1} << bits) - 1};
}

/// Wrap semantics: a result that fits its type keeps its bounds; one that
/// can overflow the type wraps, so the whole type range is the only sound
/// answer.
Interval normalizeToType(const Interval& r, const ir::Type* t) {
  const Interval ti = typeInterval(t);
  if (r.lo >= ti.lo && r.hi <= ti.hi) return r;
  return ti;
}

std::optional<bool> cmpDecided(ir::CmpOp op, const Interval& a,
                               const Interval& b) {
  switch (op) {
    case ir::CmpOp::kLt:
      if (a.boundedAbove() && a.hi < b.lo) return true;
      if (b.boundedAbove() && a.lo >= b.hi) return false;
      break;
    case ir::CmpOp::kLe:
      if (a.boundedAbove() && a.hi <= b.lo) return true;
      if (b.boundedAbove() && a.lo > b.hi) return false;
      break;
    case ir::CmpOp::kGt:
      if (b.boundedAbove() && a.lo > b.hi) return true;
      if (a.boundedAbove() && a.hi <= b.lo) return false;
      break;
    case ir::CmpOp::kGe:
      if (b.boundedAbove() && a.lo >= b.hi) return true;
      if (a.boundedAbove() && a.hi < b.lo) return false;
      break;
    case ir::CmpOp::kEq:
      if (a.isSingleton() && b.isSingleton() && a.lo == b.lo) return true;
      if (!a.meet(b).has_value()) return false;
      break;
    case ir::CmpOp::kNe:
      if (a.isSingleton() && b.isSingleton() && a.lo == b.lo) return false;
      if (!a.meet(b).has_value()) return true;
      break;
  }
  return std::nullopt;
}

ir::CmpOp invertCmp(ir::CmpOp op) {
  switch (op) {
    case ir::CmpOp::kLt: return ir::CmpOp::kGe;
    case ir::CmpOp::kLe: return ir::CmpOp::kGt;
    case ir::CmpOp::kGt: return ir::CmpOp::kLe;
    case ir::CmpOp::kGe: return ir::CmpOp::kLt;
    case ir::CmpOp::kEq: return ir::CmpOp::kNe;
    case ir::CmpOp::kNe: return ir::CmpOp::kEq;
  }
  return op;
}

/// `a op b` rewritten as `b op' a`.
ir::CmpOp swapCmp(ir::CmpOp op) {
  switch (op) {
    case ir::CmpOp::kLt: return ir::CmpOp::kGt;
    case ir::CmpOp::kLe: return ir::CmpOp::kGe;
    case ir::CmpOp::kGt: return ir::CmpOp::kLt;
    case ir::CmpOp::kGe: return ir::CmpOp::kLe;
    default: return op;
  }
}

}  // namespace

// --- Interval ---------------------------------------------------------------

Interval Interval::join(const Interval& o) const {
  return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
}

std::optional<Interval> Interval::meet(const Interval& o) const {
  const Interval m{std::max(lo, o.lo), std::min(hi, o.hi)};
  if (m.lo > m.hi) return std::nullopt;
  return m;
}

std::string Interval::str() const {
  std::ostringstream out;
  out << "[";
  if (lo == kMin) out << "-inf"; else out << lo;
  out << ", ";
  if (hi == kMax) out << "+inf"; else out << hi;
  out << "]";
  return out.str();
}

// --- RangeAnalysis ----------------------------------------------------------

RangeAnalysis::RangeAnalysis(const ir::Module& module,
                             const ir::CallGraph& callgraph,
                             RangeOptions options,
                             support::AnalysisBudget* budget,
                             PhaseMemoHooks memo)
    : module_(module),
      callgraph_(callgraph),
      options_(options),
      budget_(budget),
      memo_(memo) {}

void RangeAnalysis::run() {
  if (ran_ || !options_.enabled) return;
  ran_ = true;
  const support::ScopedTimer timer("phase.ranges");
  support::budgetBeginPhase(budget_, "ranges");

  // Functions whose argument ranges must start at ⊤-of-type: entry points
  // (no caller, or main) and address-taken functions (lowering marks them
  // with @fnaddr.<name> globals), whose call sites we cannot enumerate.
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined() || fn->isIntrinsic()) continue;
    if (callgraph_.callers(fn.get()).empty() || fn->name() == "main") {
      top_arg_fns_.insert(fn.get());
    }
  }
  for (const auto& g : module_.globals()) {
    if (g->name().rfind("@fnaddr.", 0) != 0) continue;
    if (const ir::Function* f =
            module_.findFunction(g->name().substr(sizeof("@fnaddr.") - 1))) {
      top_arg_fns_.insert(f);
    }
  }
  for (const ir::Function* fn : top_arg_fns_) {
    for (const auto& arg : fn->args()) {
      if (!arg->type()->isInteger()) continue;
      joinInto(arg.get(), typeInterval(arg->type()), arg->type());
    }
  }

  unsigned round = 0;
  bool changed = true;
  while (changed && !degraded_) {
    if (++round > kMaxModuleRounds) {
      // The interprocedural fixpoint failed to settle (it practically
      // never does with widening on); degrade rather than ship a
      // possibly-unstable result.
      degraded_ = true;
      break;
    }
    changed = false;
    module_changed_ = false;
    for (const auto& fn : module_.functions()) {
      if (!fn->isDefined() || fn->isIntrinsic()) continue;
      changed |= memo_.enabled() ? memoizedAnalyze(*fn)
                                 : analyzeFunction(*fn);
      if (degraded_) break;
    }
    changed |= module_changed_;
  }

  if (degraded_) {
    degradeToTop();
  } else {
    computeDecidedBranches();
  }
  SAFEFLOW_GAUGE("ranges.values_tracked", range_.size());
  SAFEFLOW_COUNT_N("ranges.branches_decided", decided_.size());
  SAFEFLOW_COUNT_N("ranges.module_rounds", round);
}

bool RangeAnalysis::analyzeFunction(const ir::Function& fn) {
  SAFEFLOW_COUNT("ranges.function_analyses");
  bool changed_any = false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& bb : fn.blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (!support::budgetStep(budget_)) {
          degraded_ = true;
          return changed_any;
        }
        if (inst->opcode() == ir::Opcode::kRet) {
          if (inst->numOperands() == 1 &&
              inst->operand(0)->type()->isInteger()) {
            if (const auto rv = valueRange(inst->operand(0))) {
              // Refine the returned value by the conditions dominating the
              // ret block: `if (x < 4) return 4; return x;` yields
              // [4, +inf) for the second ret even when x itself is ⊤.
              const Interval at =
                  rangeAt(inst->operand(0), bb.get()).meet(*rv).value_or(*rv);
              changed |= joinReturn(&fn, at);
            }
          }
          continue;
        }
        if (!inst->type()->isInteger()) {
          // Calls still need their argument side effects even when the
          // result itself is untracked (void / float / pointer).
          if (inst->opcode() == ir::Opcode::kCall) (void)transfer(*inst);
          continue;
        }
        if (const auto result = transfer(*inst)) {
          changed |= joinInto(inst.get(), *result, inst->type());
        }
      }
    }
    changed_any |= changed;
  }
  // One narrowing sweep: the post-fixpoint is refined in place with a
  // plain (non-joining) transfer round, recovering bounds that widening
  // blew to the type range when the loop guard still caps them. Meeting
  // two sound over-approximations stays sound, and a single bounded sweep
  // cannot oscillate.
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (!support::budgetStep(budget_)) {
        degraded_ = true;
        return changed_any;
      }
      if (inst->opcode() == ir::Opcode::kRet || !inst->type()->isInteger()) {
        continue;
      }
      const auto it = range_.find(inst.get());
      if (it == range_.end()) continue;
      if (const auto result = transfer(*inst)) {
        if (const auto narrowed = it->second.meet(*result)) {
          if (*narrowed != it->second) {
            it->second = *narrowed;
            changed_any = true;
            SAFEFLOW_COUNT("ranges.narrowings");
          }
        }
      }
    }
  }
  return changed_any;
}

namespace {

void hashInterval(support::Fnv1a& h, const Interval& r) {
  hashInt(h, r.lo);
  hashInt(h, r.hi);
}

void writeInterval(BlobWriter& w, const Interval& r) {
  w.i64(r.lo);
  w.i64(r.hi);
}

Interval readInterval(BlobReader& r) {
  Interval out;
  out.lo = r.i64();
  out.hi = r.i64();
  return out;
}

std::string intervalStr(const Interval& r) {
  return std::to_string(r.lo) + "|" + std::to_string(r.hi);
}

/// Call targets the per-function transfer actually interacts with.
bool rangeRelevantTarget(const ir::Function* f) {
  return f->isDefined() && !f->isIntrinsic();
}

}  // namespace

// The local solve reads and writes: its own value ranges and update
// counts, its return range (and count), and — at call sites — the
// callee's integer formal ranges/counts (written unless the callee takes
// ⊤ arguments) plus the callee's return range (read). Digesting exactly
// that set makes replay exact memoization of the transformer.
void RangeAnalysis::digestInput(const ir::Function& fn,
                                support::Fnv1a& h) const {
  const ValueIndex& vi = memo_.index->of(fn);
  hashToken(h, "ranges-in");
  hashToken(h, fn.name());
  const auto& values = vi.values();
  for (std::size_t id = 0; id < values.size(); ++id) {
    const auto it = range_.find(values[id]);
    if (it == range_.end()) continue;
    hashUint(h, id);
    hashInterval(h, it->second);
    const auto cit = update_counts_.find(values[id]);
    hashUint(h, cit == update_counts_.end() ? 0 : cit->second);
  }
  hashToken(h, "ret");
  const auto rit = return_range_.find(&fn);
  hashUint(h, rit == return_range_.end() ? 0 : 1);
  if (rit != return_range_.end()) hashInterval(h, rit->second);
  {
    const auto cit = update_counts_.find(&fn);
    hashUint(h, cit == update_counts_.end() ? 0 : cit->second);
  }
  hashToken(h, "calls");
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* f : callgraph_.targets(*inst)) {
        if (!rangeRelevantTarget(f)) continue;
        hashToken(h, f->name());
        const bool top_args = top_arg_fns_.contains(f);
        hashUint(h, top_args ? 1 : 0);
        if (!top_args) {
          for (std::size_t p = 0; p < f->args().size(); ++p) {
            const ir::Argument* formal = f->args()[p].get();
            if (!formal->type()->isInteger()) continue;
            const auto it = range_.find(formal);
            if (it == range_.end()) continue;
            hashUint(h, p);
            hashInterval(h, it->second);
            const auto cit = update_counts_.find(formal);
            hashUint(h, cit == update_counts_.end() ? 0 : cit->second);
          }
        }
        const auto frit = return_range_.find(f);
        hashUint(h, frit == return_range_.end() ? 0 : 1);
        if (frit != return_range_.end()) hashInterval(h, frit->second);
      }
    }
  }
}

std::string RangeAnalysis::captureRecord(const ir::Function& fn,
                                         bool identity,
                                         bool changed_any,
                                         bool module_delta) const {
  const ValueIndex& vi = memo_.index->of(fn);
  BlobWriter w;
  // Identity = post-digest == pre-digest: the solve changed nothing in
  // the digested read/write set, so a hit may skip the state parse. The
  // driver signals are stored separately because the replay must still
  // return/propagate them verbatim.
  w.u64(identity ? 1 : 0);
  w.u64(changed_any ? 1 : 0);
  w.u64(module_delta ? 1 : 0);

  const auto& values = vi.values();
  std::vector<std::size_t> own;
  for (std::size_t id = 0; id < values.size(); ++id) {
    if (range_.count(values[id]) != 0) own.push_back(id);
  }
  w.u64(own.size());
  for (const std::size_t id : own) {
    w.u64(id);
    writeInterval(w, range_.at(values[id]));
    const auto cit = update_counts_.find(values[id]);
    w.u64(cit == update_counts_.end() ? 0 : cit->second);
  }

  const auto rit = return_range_.find(&fn);
  w.u64(rit == return_range_.end() ? 0 : 1);
  if (rit != return_range_.end()) writeInterval(w, rit->second);
  {
    const auto cit = update_counts_.find(&fn);
    w.u64(cit == update_counts_.end() ? 0 : cit->second);
  }

  std::set<std::pair<std::string, std::size_t>> seen;
  std::vector<std::tuple<std::string, std::size_t, const ir::Value*>> slots;
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* f : callgraph_.targets(*inst)) {
        if (!rangeRelevantTarget(f) || top_arg_fns_.contains(f)) continue;
        for (std::size_t p = 0; p < f->args().size(); ++p) {
          const ir::Argument* formal = f->args()[p].get();
          if (!formal->type()->isInteger() ||
              range_.count(formal) == 0) {
            continue;
          }
          if (!seen.insert({f->name(), p}).second) continue;
          slots.emplace_back(f->name(), p, formal);
        }
      }
    }
  }
  w.u64(slots.size());
  for (const auto& [name, p, formal] : slots) {
    w.str(name);
    w.u64(p);
    writeInterval(w, range_.at(formal));
    const auto cit = update_counts_.find(formal);
    w.u64(cit == update_counts_.end() ? 0 : cit->second);
  }
  return w.take();
}

bool RangeAnalysis::applyRecord(const ir::Function& fn,
                                const std::string& blob,
                                bool* changed_any) {
  const ValueIndex& vi = memo_.index->of(fn);
  const auto& values = vi.values();
  BlobReader r(blob);

  r.u64();  // identity flag, already consumed by the caller's peek
  const bool rc = r.u64() != 0;
  const bool module_delta = r.u64() != 0;
  std::vector<std::pair<const ir::Value*, std::pair<Interval, unsigned>>>
      staged;
  const std::uint64_t own = r.u64();
  for (std::uint64_t i = 0; i < own && r.ok(); ++i) {
    const std::uint64_t id = r.u64();
    const Interval range = readInterval(r);
    const unsigned count = static_cast<unsigned>(r.u64());
    if (!r.ok() || id >= values.size()) return false;
    staged.push_back({values[id], {range, count}});
  }
  bool have_ret = false;
  Interval ret_range;
  if (r.u64() != 0) {
    have_ret = true;
    ret_range = readInterval(r);
  }
  const unsigned ret_count = static_cast<unsigned>(r.u64());
  const std::uint64_t nslots = r.u64();
  std::vector<std::pair<const ir::Argument*, std::pair<Interval, unsigned>>>
      staged_formals;
  for (std::uint64_t i = 0; i < nslots && r.ok(); ++i) {
    const std::string name = r.str();
    const std::uint64_t p = r.u64();
    const Interval range = readInterval(r);
    const unsigned count = static_cast<unsigned>(r.u64());
    const ir::Function* target = memo_.index->function(name);
    if (!r.ok() || target == nullptr || p >= target->args().size()) {
      return false;
    }
    staged_formals.push_back({target->args()[p].get(), {range, count}});
  }
  if (!r.ok() || !r.atEnd()) return false;

  for (const auto& [v, rec] : staged) {
    range_[v] = rec.first;
    update_counts_[v] = rec.second;
  }
  if (have_ret) return_range_[&fn] = ret_range;
  if (ret_count != 0 || update_counts_.count(&fn) != 0) {
    update_counts_[&fn] = ret_count;
  }
  for (const auto& [formal, rec] : staged_formals) {
    range_[formal] = rec.first;
    update_counts_[formal] = rec.second;
  }
  module_changed_ |= module_delta;
  *changed_any = rc;
  return true;
}

bool RangeAnalysis::memoizedAnalyze(const ir::Function& fn) {
  support::Fnv1a h;
  digestInput(fn, h);
  const std::uint64_t digest = h.digest();
  if (const std::string* blob = memo_.bank->find(fn, digest)) {
    // Identity records changed nothing: skip the blob parse, replay only
    // the recorded driver signals.
    BlobReader peek(*blob);
    const bool identity = peek.u64() != 0;
    const bool peek_changed = peek.u64() != 0;
    const bool peek_delta = peek.u64() != 0;
    if (peek.ok() && identity) {
      module_changed_ |= peek_delta;
      return peek_changed;
    }
    bool changed = false;
    if (applyRecord(fn, *blob, &changed)) return changed;
  }
  // Isolate this call's contribution to module_changed_ so the record
  // replays exactly the flag delta the live solve produced.
  const bool saved = module_changed_;
  module_changed_ = false;
  const bool changed = analyzeFunction(fn);
  const bool delta = module_changed_;
  module_changed_ = saved || delta;
  if (!degraded_) {
    // Post-digest == pre-digest detects identity transforms exactly: the
    // digest covers the full read set and the pre-state of the write set.
    support::Fnv1a post;
    digestInput(fn, post);
    memo_.bank->record(
        fn, digest,
        captureRecord(fn, post.digest() == digest, changed, delta));
  }
  return changed;
}

std::uint64_t RangeAnalysis::digestState(const ModuleIndex& index) const {
  std::map<std::string, std::string> items;
  const auto stable = [&index](const ir::Value* v) {
    const auto [owner, id] = index.locate(v);
    return (owner != nullptr ? owner->name() : std::string("?")) + "#" +
           std::to_string(id);
  };
  for (const auto& [v, range] : range_) {
    items["v:" + stable(v)] = intervalStr(range);
  }
  for (const auto& [fn, range] : return_range_) {
    items["r:" + fn->name()] = intervalStr(range);
  }
  for (const auto& [condbr, succ] : decided_) {
    items["d:" + stable(condbr)] = std::to_string(succ);
  }
  support::Fnv1a h;
  hashUint(h, degraded_ ? 1 : 0);
  for (const auto& [k, v] : items) {
    hashToken(h, k);
    hashToken(h, v);
  }
  return h.digest();
}

std::optional<Interval> RangeAnalysis::transfer(const ir::Instruction& inst) {
  const ir::Type* ty = inst.type();
  switch (inst.opcode()) {
    case ir::Opcode::kLoad:
      return typeInterval(ty);
    case ir::Opcode::kBinOp: {
      const auto a = contextRange(inst.operand(0), inst.parent());
      const auto b = contextRange(inst.operand(1), inst.parent());
      if (!a || !b) return std::nullopt;
      Interval r = Interval::top();
      switch (inst.bin_op) {
        case ir::BinOp::kAdd:
          r = Interval{addLo(a->lo, b->lo), addHi(a->hi, b->hi)};
          break;
        case ir::BinOp::kSub:
          r = Interval{subLo(a->lo, b->hi), subHi(a->hi, b->lo)};
          break;
        case ir::BinOp::kMul: r = mulInterval(*a, *b); break;
        case ir::BinOp::kDiv: r = divInterval(*a, *b); break;
        case ir::BinOp::kRem: r = remInterval(*a, *b); break;
        case ir::BinOp::kAnd: r = andInterval(*a, *b); break;
        case ir::BinOp::kOr: r = orXorInterval(*a, *b, /*is_or=*/true); break;
        case ir::BinOp::kXor:
          r = orXorInterval(*a, *b, /*is_or=*/false);
          break;
        case ir::BinOp::kShl: r = shiftInterval(*a, *b, /*left=*/true); break;
        case ir::BinOp::kShr: r = shiftInterval(*a, *b, /*left=*/false); break;
      }
      return normalizeToType(r, ty);
    }
    case ir::Opcode::kUnOp: {
      const auto a = contextRange(inst.operand(0), inst.parent());
      if (!a) return std::nullopt;
      switch (inst.un_op) {
        case ir::UnOp::kNeg:
          return normalizeToType(negInterval(*a), ty);
        case ir::UnOp::kNot: {
          if (a->lo > 0 || a->hi < 0) return Interval::constant(0);
          if (*a == Interval::constant(0)) return Interval::constant(1);
          return Interval{0, 1};
        }
        case ir::UnOp::kBitNot:  // ~x == -x - 1
          return normalizeToType(
              Interval{subLo(negInterval(*a).lo, 1),
                       subHi(negInterval(*a).hi, 1)},
              ty);
      }
      return typeInterval(ty);
    }
    case ir::Opcode::kCmp: {
      const auto a = contextRange(inst.operand(0), inst.parent());
      const auto b = contextRange(inst.operand(1), inst.parent());
      if (!a || !b) return std::nullopt;
      if (inst.operand(0)->type()->isInteger() &&
          inst.operand(1)->type()->isInteger()) {
        if (const auto d = cmpDecided(inst.cmp_op, *a, *b)) {
          return Interval::constant(*d ? 1 : 0);
        }
      }
      return Interval{0, 1};
    }
    case ir::Opcode::kCast: {
      if (!inst.operand(0)->type()->isInteger()) return typeInterval(ty);
      const auto a = contextRange(inst.operand(0), inst.parent());
      if (!a) return std::nullopt;
      return normalizeToType(*a, ty);
    }
    case ir::Opcode::kPhi: {
      std::optional<Interval> acc;
      for (std::size_t i = 0; i < inst.numOperands(); ++i) {
        auto in = valueRange(inst.operand(i));
        if (!in) continue;  // unvisited back edge: bottom
        if (i < inst.block_refs.size()) {
          const auto refined = refineOnEdge(*in, inst.operand(i),
                                            inst.block_refs[i], inst.parent());
          if (!refined) continue;  // edge provably infeasible
          in = refined;
        }
        acc = acc ? acc->join(*in) : *in;
      }
      return acc;
    }
    case ir::Opcode::kCall: {
      const auto targets = callgraph_.targets(inst);
      const std::size_t first_arg = inst.direct_callee != nullptr ? 0 : 1;
      bool all_known = !targets.empty();
      std::optional<Interval> acc;
      for (const ir::Function* f : targets) {
        if (!f->isDefined() || f->isIntrinsic()) {
          all_known = false;
          continue;
        }
        // Join actual argument ranges into the callee's formals; a grown
        // formal forces another interprocedural round.
        if (!top_arg_fns_.contains(f)) {
          for (std::size_t j = 0; j < f->args().size(); ++j) {
            const ir::Argument* formal = f->args()[j].get();
            if (!formal->type()->isInteger()) continue;
            if (first_arg + j >= inst.numOperands()) break;
            const auto av =
                contextRange(inst.operand(first_arg + j), inst.parent());
            const Interval actual =
                av ? normalizeToType(*av, formal->type())
                   : typeInterval(formal->type());
            module_changed_ |= joinInto(formal, actual, formal->type());
          }
        }
        const auto it = return_range_.find(f);
        if (it == return_range_.end()) continue;  // not yet summarized
        acc = acc ? acc->join(it->second) : it->second;
      }
      if (ty == nullptr || !ty->isInteger()) return std::nullopt;
      if (!all_known) return typeInterval(ty);
      if (!acc) return std::nullopt;
      return normalizeToType(*acc, ty);
    }
    default:
      return std::nullopt;
  }
}

bool RangeAnalysis::joinInto(const ir::Value* key, Interval value,
                             const ir::Type* type) {
  const auto it = range_.find(key);
  if (it == range_.end()) {
    range_.emplace(key, value);
    return true;
  }
  Interval merged = it->second.join(value);
  if (merged == it->second) return false;
  if (++update_counts_[key] > kWidenAfter) {
    const Interval ti = typeInterval(type);
    if (merged.lo < it->second.lo) merged.lo = ti.lo;
    if (merged.hi > it->second.hi) merged.hi = ti.hi;
    SAFEFLOW_COUNT("ranges.widenings");
  }
  it->second = merged;
  return true;
}

bool RangeAnalysis::joinReturn(const ir::Function* fn, Interval value) {
  const auto it = return_range_.find(fn);
  if (it == return_range_.end()) {
    return_range_.emplace(fn, value);
    return true;
  }
  Interval merged = it->second.join(value);
  if (merged == it->second) return false;
  if (++update_counts_[fn] > kWidenAfter) {
    const Interval ti =
        typeInterval(fn->functionType() != nullptr
                         ? fn->functionType()->returnType()
                         : nullptr);
    if (merged.lo < it->second.lo) merged.lo = ti.lo;
    if (merged.hi > it->second.hi) merged.hi = ti.hi;
    SAFEFLOW_COUNT("ranges.widenings");
  }
  it->second = merged;
  return true;
}

std::optional<Interval> RangeAnalysis::valueRange(const ir::Value* v) const {
  switch (v->kind()) {
    case ir::Value::Kind::kConstantInt:
      return Interval::constant(static_cast<const ir::ConstantInt*>(v)->value());
    case ir::Value::Kind::kInstruction:
    case ir::Value::Kind::kArgument: {
      if (!v->type()->isInteger()) return Interval::top();
      const auto it = range_.find(v);
      if (it == range_.end()) return std::nullopt;  // bottom
      return it->second;
    }
    default:
      return typeInterval(v->type());
  }
}

std::optional<Interval> RangeAnalysis::refineOnEdge(
    Interval r, const ir::Value* v, const ir::BasicBlock* pred,
    const ir::BasicBlock* succ) const {
  const ir::Instruction* term = pred->terminator();
  if (term == nullptr || term->opcode() != ir::Opcode::kCondBr ||
      term->block_refs.size() != 2 ||
      term->block_refs[0] == term->block_refs[1]) {
    return r;
  }
  const bool on_true = term->block_refs[0] == succ;
  if (!on_true && term->block_refs[1] != succ) return r;
  const ir::Value* cond = term->operand(0);
  if (cond == v) {
    // if (v): the true edge excludes 0, the false edge pins it.
    return on_true ? refineByCmp(r, ir::CmpOp::kNe, Interval::constant(0), true)
                   : r.meet(Interval::constant(0));
  }
  if (!cond->isInstruction()) return r;
  const auto* cmp = static_cast<const ir::Instruction*>(cond);
  if (cmp->opcode() != ir::Opcode::kCmp) return r;
  if (!cmp->operand(0)->type()->isInteger() ||
      !cmp->operand(1)->type()->isInteger()) {
    return r;
  }
  const bool on_left = cmp->operand(0) == v;
  if (!on_left && cmp->operand(1) != v) return r;
  const ir::Value* other_v = cmp->operand(on_left ? 1 : 0);
  const auto ov = valueRange(other_v);
  const Interval other = ov ? *ov : typeInterval(other_v->type());
  ir::CmpOp op = cmp->cmp_op;
  if (!on_true) op = invertCmp(op);
  return refineByCmp(r, op, other, on_left);
}

std::optional<Interval> RangeAnalysis::refineByCmp(Interval r, ir::CmpOp op,
                                                   const Interval& other,
                                                   bool value_on_left) const {
  if (!value_on_left) op = swapCmp(op);
  switch (op) {
    case ir::CmpOp::kLt:
      if (other.boundedAbove()) {
        if (other.hi == kMin) return std::nullopt;  // v < INT64_MIN
        r.hi = std::min(r.hi, other.hi - 1);
      }
      break;
    case ir::CmpOp::kLe:
      if (other.boundedAbove()) r.hi = std::min(r.hi, other.hi);
      break;
    case ir::CmpOp::kGt:
      if (other.boundedBelow()) {
        if (other.lo == kMax) return std::nullopt;  // v > INT64_MAX
        r.lo = std::max(r.lo, other.lo + 1);
      }
      break;
    case ir::CmpOp::kGe:
      if (other.boundedBelow()) r.lo = std::max(r.lo, other.lo);
      break;
    case ir::CmpOp::kEq:
      return r.meet(other);
    case ir::CmpOp::kNe:
      if (other.isSingleton()) {
        if (r.isSingleton() && r.lo == other.lo) return std::nullopt;
        if (r.lo == other.lo) ++r.lo;
        else if (r.hi == other.lo) --r.hi;
      }
      break;
  }
  if (r.lo > r.hi) return std::nullopt;
  return r;
}

Interval RangeAnalysis::rangeOf(const ir::Value* v) const {
  if (v == nullptr || !options_.enabled || degraded_) return Interval::top();
  if (v->kind() == ir::Value::Kind::kConstantInt) {
    return Interval::constant(static_cast<const ir::ConstantInt*>(v)->value());
  }
  const ir::Type* t = v->type();
  if (t == nullptr || !t->isInteger()) return Interval::top();
  const auto it = range_.find(v);
  if (it != range_.end()) return it->second;
  return typeInterval(t);
}

Interval RangeAnalysis::rangeAt(const ir::Value* v,
                                const ir::BasicBlock* bb) const {
  Interval r = rangeOf(v);
  if (!options_.enabled || degraded_ || v == nullptr || bb == nullptr ||
      v->type() == nullptr || !v->type()->isInteger()) {
    return r;
  }
  return refinedAt(r, v, bb);
}

std::optional<Interval> RangeAnalysis::contextRange(
    const ir::Value* v, const ir::BasicBlock* bb) const {
  auto r = valueRange(v);
  if (!r || bb == nullptr || v->type() == nullptr ||
      !v->type()->isInteger()) {
    return r;
  }
  return refinedAt(*r, v, bb);
}

const std::vector<std::pair<const ir::BasicBlock*, const ir::BasicBlock*>>&
RangeAnalysis::refineChain(const ir::BasicBlock* bb,
                           const ir::CfgInfo& cfg) const {
  const auto hit = refine_chain_.find(bb);
  if (hit != refine_chain_.end()) return hit->second;
  auto& chain = refine_chain_[bb];
  // Walk the idom chain once; the branch taken from idom(b) into b
  // constrains a value whenever every path into b uses that edge (all
  // other predecessors are b's own back edges). The CFG is immutable
  // during the run, so the chain is computed once per block and reused
  // for every value queried there.
  const ir::BasicBlock* b = bb;
  for (int guard = 0; guard < 4096; ++guard) {
    const ir::BasicBlock* d = cfg.idom(b);
    if (d == nullptr) break;
    const ir::Instruction* term = d->terminator();
    bool edge_ok = term != nullptr && term->opcode() == ir::Opcode::kCondBr &&
                   term->block_refs.size() == 2 &&
                   term->block_refs[0] != term->block_refs[1] &&
                   cfg.successors(d).contains(b);
    if (edge_ok) {
      for (const ir::BasicBlock* pred : cfg.predecessors(b)) {
        if (pred != d && !cfg.dominates(b, pred)) {
          edge_ok = false;
          break;
        }
      }
    }
    if (edge_ok) chain.emplace_back(d, b);
    b = d;
  }
  return chain;
}

Interval RangeAnalysis::refinedAt(Interval r, const ir::Value* v,
                                  const ir::BasicBlock* bb) const {
  const ir::CfgInfo& cfg = bb->parent()->cfg();
  const ir::BasicBlock* def =
      v->isInstruction() ? static_cast<const ir::Instruction*>(v)->parent()
                         : nullptr;
  for (const auto& [d, b] : refineChain(bb, cfg)) {
    // Cheap pre-filter: the edge only constrains v when the branch
    // condition mentions it (directly, or as a cmp operand).
    const ir::Value* cond = d->terminator()->operand(0);
    if (cond != v) {
      if (!cond->isInstruction()) continue;
      const auto* cmp = static_cast<const ir::Instruction*>(cond);
      if (cmp->opcode() != ir::Opcode::kCmp ||
          (cmp->operand(0) != v && cmp->operand(1) != v)) {
        continue;
      }
    }
    if (def != nullptr && !cfg.dominates(def, d)) continue;
    // A nullopt here means the block is statically unreachable for v's
    // range; keep the unrefined interval (any answer is sound there).
    if (const auto refined = refineOnEdge(r, v, d, b)) r = *refined;
  }
  return r;
}

void RangeAnalysis::computeDecidedBranches() {
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined() || fn->isIntrinsic()) continue;
    for (const auto& bb : fn->blocks()) {
      const ir::Instruction* term = bb->terminator();
      if (term == nullptr || term->opcode() != ir::Opcode::kCondBr ||
          term->block_refs.size() != 2 ||
          term->block_refs[0] == term->block_refs[1]) {
        continue;
      }
      const ir::Value* cond = term->operand(0);
      std::optional<bool> verdict;
      const auto* cmp =
          cond->isInstruction() &&
                  static_cast<const ir::Instruction*>(cond)->opcode() ==
                      ir::Opcode::kCmp
              ? static_cast<const ir::Instruction*>(cond)
              : nullptr;
      if (cmp != nullptr && cmp->operand(0)->type()->isInteger() &&
          cmp->operand(1)->type()->isInteger()) {
        verdict = cmpDecided(cmp->cmp_op, rangeAt(cmp->operand(0), bb.get()),
                             rangeAt(cmp->operand(1), bb.get()));
      } else if (cond->type() != nullptr && cond->type()->isInteger()) {
        const Interval c = rangeAt(cond, bb.get());
        if (!c.contains(0)) verdict = true;
        else if (c == Interval::constant(0)) verdict = false;
      }
      if (verdict.has_value()) {
        decided_.emplace(term, *verdict ? 0u : 1u);
      }
    }
  }
}

std::optional<unsigned> RangeAnalysis::decidedBranch(
    const ir::Instruction* condbr) const {
  if (!options_.enabled || degraded_) return std::nullopt;
  const auto it = decided_.find(condbr);
  if (it == decided_.end()) return std::nullopt;
  return it->second;
}

bool RangeAnalysis::edgeInfeasible(const ir::BasicBlock* pred,
                                   const ir::BasicBlock* succ) const {
  if (pred == nullptr) return false;
  const ir::Instruction* term = pred->terminator();
  if (term == nullptr || term->opcode() != ir::Opcode::kCondBr) return false;
  const auto taken = decidedBranch(term);
  if (!taken.has_value()) return false;
  return term->block_refs[1 - *taken] == succ &&
         term->block_refs[*taken] != succ;
}

void RangeAnalysis::degradeToTop() {
  range_.clear();
  return_range_.clear();
  decided_.clear();
  SAFEFLOW_COUNT("ranges.degraded_runs");
}

// --- consumer 3: definite out-of-bounds shm accesses ------------------------

std::size_t checkShmConstBounds(const ir::Module& module,
                                const ShmRegionTable& regions,
                                const ShmPointerAnalysis& shm,
                                const AliasAnalysis& alias,
                                const RangeAnalysis& ranges,
                                SafeFlowReport& report,
                                support::DiagnosticEngine& diags) {
  if (!ranges.enabled() || ranges.degraded()) return 0;
  std::size_t found = 0;
  for (const auto& fn : module.functions()) {
    if (!fn->isDefined() || fn->isIntrinsic()) continue;
    if (regions.isInitFunction(fn.get())) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kIndexAddr) continue;
        const ShmPtrInfo* base = shm.info(inst->operand(0));
        if (base == nullptr) continue;
        std::int64_t elem_size = 1;
        if (inst->type()->isPointer()) {
          elem_size = static_cast<std::int64_t>(
              static_cast<const cfront::PointerType*>(inst->type())
                  ->pointee()
                  ->size());
          if (elem_size == 0) elem_size = 1;
        }
        const Interval idx = ranges.rangeAt(inst->operand(1), bb.get());
        for (int region_id : base->regions) {
          const ShmRegion* region = regions.byId(region_id);
          if (region == nullptr || region->size == 0) continue;
          // Region extent via the alias analysis' object model: the
          // region's root object spans the whole mapping.
          std::int64_t extent = static_cast<std::int64_t>(region->size);
          for (ObjId obj : alias.objectsOfRegion(region_id)) {
            if (alias.parentOf(obj) >= 0) continue;
            const auto [off, size] = alias.extentOf(obj);
            if (off == 0 && size > 0) extent = size;
          }
          const std::int64_t base_lo = base->offset_known ? base->lo : 0;
          const std::int64_t count = extent / elem_size;
          const std::int64_t base_elems = base_lo / elem_size;
          // Definite violation only: *every* value of the index range is
          // out of bounds. "May be out of bounds" stays A1/A2 territory.
          const bool always_high =
              idx.boundedBelow() && addLo(idx.lo, base_elems) >= count;
          const bool always_low = idx.boundedAbove() &&
                                  addHi(idx.hi, base_elems) < 0;
          if (!always_high && !always_low) continue;
          ++found;
          SAFEFLOW_COUNT("ranges.shm_bounds_const.violations");
          report.restriction_violations.push_back(RestrictionViolation{
              "shm-bounds-const", inst->location(),
              "index range " + idx.str() + " into shared array '" +
                  region->name + "' is always outside its " +
                  std::to_string(count) + " elements",
              fn.get()});
          diags.warning(inst->location(), "shm-bounds-const",
                        "index range " + idx.str() + " into shared array '" +
                            region->name + "' is always outside its " +
                            std::to_string(count) + " elements");
        }
      }
    }
  }
  return found;
}

}  // namespace safeflow::analysis
