#include "analysis/restrictions.h"

#include <algorithm>
#include <set>

#include "analysis/ranges.h"
#include "support/metrics.h"

namespace safeflow::analysis {

namespace {

bool isIntegerCast(const ir::Instruction& cast) {
  return cast.type()->isInteger();
}

/// True when `to` can legally view memory of pointer type `from` under the
/// paper's P3 rule.
bool castCompatible(const ir::Type* to, const ir::Type* from) {
  return cfront::typesCompatible(to, from);
}

/// Can `target` be reached from `from` without re-entering `avoid`?
bool reachableAvoiding(const ir::BasicBlock* from,
                       const ir::BasicBlock* target,
                       const ir::BasicBlock* avoid) {
  if (from == target) return true;
  std::set<const ir::BasicBlock*> seen{avoid};
  std::vector<const ir::BasicBlock*> stack{from};
  while (!stack.empty()) {
    const ir::BasicBlock* bb = stack.back();
    stack.pop_back();
    if (bb == target) return true;
    if (!seen.insert(bb).second) continue;
    for (const ir::BasicBlock* succ : bb->successors()) {
      if (!seen.contains(succ)) stack.push_back(succ);
    }
  }
  return false;
}

}  // namespace

RestrictionChecker::RestrictionChecker(const ir::Module& module,
                                       const ShmRegionTable& regions,
                                       const ShmPointerAnalysis& shm,
                                       RestrictionOptions options,
                                       support::AnalysisBudget* budget,
                                       const RangeAnalysis* ranges)
    : module_(module),
      regions_(regions),
      shm_(shm),
      options_(std::move(options)),
      budget_(budget),
      ranges_(ranges) {}

std::vector<RestrictionViolation> RestrictionChecker::run(
    support::DiagnosticEngine& diags) {
  const support::ScopedTimer timer("phase.restrictions");
  support::budgetBeginPhase(budget_, "restrictions");
  std::vector<RestrictionViolation> out;
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined()) continue;
    if (regions_.isInitFunction(fn)) continue;  // shminit is exempt
    // Out of budget: remaining functions go unchecked, so the run must
    // not certify — the driver flags the phase degraded and exits nonzero.
    if (!support::budgetStep(budget_)) break;
    SAFEFLOW_COUNT("restrictions.functions_checked");
    checkFunction(*fn, out);
  }
  for (const RestrictionViolation& v : out) {
    SAFEFLOW_COUNT("restrictions." + v.rule + ".violations");
    diags.warning(v.location, "restriction." + v.rule, v.message);
  }
  return out;
}

void RestrictionChecker::checkFunction(
    const ir::Function& fn, std::vector<RestrictionViolation>& out) {
  const bool is_main = fn.name() == "main";
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      switch (inst->opcode()) {
        case ir::Opcode::kCall: {
          // P1: deallocation of shared memory.
          if (inst->direct_callee == nullptr) break;
          const std::string_view callee = inst->direct_callee->name();
          const bool is_dealloc =
              std::find(options_.dealloc_functions.begin(),
                        options_.dealloc_functions.end(),
                        callee) != options_.dealloc_functions.end();
          if (!is_dealloc) break;
          for (std::size_t i = 0; i < inst->numOperands(); ++i) {
            if (shm_.info(inst->operand(i)) == nullptr) continue;
            // In main, deallocation is permitted only in a returning
            // block (the "end of main").
            const bool at_main_exit =
                is_main && bb->terminator() != nullptr &&
                bb->terminator()->opcode() == ir::Opcode::kRet;
            if (at_main_exit) continue;
            out.push_back(RestrictionViolation{
                "P1", inst->location(),
                "shared memory passed to '" + std::string(callee) +
                    "' before the end of main (rule P1)",
                &fn});
          }
          break;
        }
        case ir::Opcode::kStore: {
          // P2: a shm pointer stored anywhere but a declared shm pointer
          // global. (Stores into promoted scalars vanished in mem2reg; a
          // surviving store means the destination is memory.)
          const ShmPtrInfo* src = shm_.info(inst->operand(0));
          if (src == nullptr || !inst->operand(0)->type()->isPointer()) {
            break;
          }
          const ir::Value* dst = inst->operand(1);
          if (dst->kind() == ir::Value::Kind::kGlobalVar) {
            const auto* g = static_cast<const ir::GlobalVar*>(dst);
            if (regions_.byGlobal(g) != nullptr) break;  // canonical slot
          }
          out.push_back(RestrictionViolation{
              "P2", inst->location(),
              "pointer to shared memory stored into memory (rule P2: shm "
              "pointers must not be aliased through memory)",
              &fn});
          break;
        }
        case ir::Opcode::kCast: {
          const ShmPtrInfo* src = shm_.info(inst->operand(0));
          if (src == nullptr) break;
          if (isIntegerCast(*inst)) {
            out.push_back(RestrictionViolation{
                "P3", inst->location(),
                "pointer to shared memory cast to an integer (rule P3)",
                &fn});
            break;
          }
          if (inst->type()->isPointer() &&
              inst->operand(0)->type()->isPointer() &&
              !castCompatible(inst->type(), inst->operand(0)->type())) {
            out.push_back(RestrictionViolation{
                "P3", inst->location(),
                "pointer to shared memory cast to incompatible type " +
                    inst->type()->str() + " (rule P3)",
                &fn});
          }
          break;
        }
        case ir::Opcode::kIndexAddr:
          checkIndexAddr(fn, *inst, out);
          break;
        default:
          break;
      }
    }
  }
}

void RestrictionChecker::checkIndexAddr(
    const ir::Function& fn, const ir::Instruction& gep,
    std::vector<RestrictionViolation>& out) {
  const ShmPtrInfo* base = shm_.info(gep.operand(0));
  if (base == nullptr) return;
  SAFEFLOW_COUNT("restrictions.index_checks");

  // The index as an interval: its constant plus each coefficient times
  // its symbol's bounds. nullopt when some symbol has no provable bounds.
  const AffineIndex affine = decompose(gep.operand(1));
  std::optional<Interval> index;
  bool ranged = false;
  if (affine.valid) {
    index = Interval::constant(affine.constant);
    for (const auto& [sym, coeff] : affine.terms) {
      bool used_ranges = false;
      const SymbolBounds b = boundsFor(sym, gep.parent(), &used_ranges);
      if (!b.valid) {
        index.reset();
        break;
      }
      ranged |= used_ranges;
      if (used_ranges) SAFEFLOW_COUNT("ranges.bounds_seeded");
      index = index->plus(Interval{b.lo, b.hi}.times(coeff));
    }
  }

  for (int region_id : base->regions) {
    const ShmRegion* region = regions_.byId(region_id);
    if (region == nullptr || region->size == 0) continue;
    const auto a2 = [&](const std::string& problem) {
      out.push_back(RestrictionViolation{
          "A2", gep.location(),
          "index into shared array '" + region->name + "' " + problem +
              " (rule A2)",
          &fn});
    };
    if (!affine.valid) {
      a2("is not a provable affine expression");
      continue;
    }
    if (!index.has_value()) {
      a2("depends on a value with no provable bounds");
      continue;
    }
    const ShmAccess access = shmAccess(gep, *base, *index);
    const std::int64_t count = region->size / access.elem_size;
    if (affine.terms.empty()) {
      if (access.mayLeave(region->size)) {
        out.push_back(RestrictionViolation{
            "A1", gep.location(),
            "constant index " + std::to_string(affine.constant) +
                " exceeds shared array '" + region->name + "' of " +
                std::to_string(count) + " elements (rule A1)",
            &fn});
      }
    } else if (access.start.lo < 0) {
      a2("may be negative");
    } else if (access.mayLeave(region->size)) {
      a2("may exceed its " + std::to_string(count) + " elements");
    } else if (ranged) {
      // In bounds, and only range-derived bounds could show it: an
      // obligation the syntactic induction pattern alone cannot discharge.
      SAFEFLOW_COUNT("ranges.a2_discharged");
    }
  }
}

bool RestrictionChecker::AffineIndex::addScaled(const AffineIndex& other,
                                                std::int64_t k) {
  std::int64_t scaled = 0;
  if (__builtin_mul_overflow(other.constant, k, &scaled) ||
      __builtin_add_overflow(constant, scaled, &constant)) {
    return false;
  }
  for (const auto& [sym, coeff] : other.terms) {
    if (__builtin_mul_overflow(coeff, k, &scaled)) return false;
    const auto it =
        std::find_if(terms.begin(), terms.end(),
                     [sym](const auto& term) { return term.first == sym; });
    if (it == terms.end()) {
      if (scaled != 0) terms.emplace_back(sym, scaled);
    } else if (__builtin_add_overflow(it->second, scaled, &it->second)) {
      return false;
    } else if (it->second == 0) {
      terms.erase(it);
    }
  }
  return true;
}

RestrictionChecker::AffineIndex RestrictionChecker::decompose(
    const ir::Value* v, int depth) const {
  AffineIndex out;
  if (depth > 8) return out;
  if (v->kind() == ir::Value::Kind::kConstantInt) {
    out.valid = true;
    out.constant = static_cast<const ir::ConstantInt*>(v)->value();
    return out;
  }
  if (v->isInstruction()) {
    const auto* inst = static_cast<const ir::Instruction*>(v);
    switch (inst->opcode()) {
      case ir::Opcode::kCast:
        return decompose(inst->operand(0), depth + 1);
      case ir::Opcode::kBinOp: {
        const AffineIndex l = decompose(inst->operand(0), depth + 1);
        const AffineIndex r = decompose(inst->operand(1), depth + 1);
        if (!l.valid || !r.valid) break;
        if (inst->bin_op == ir::BinOp::kAdd ||
            inst->bin_op == ir::BinOp::kSub) {
          out = l;
          if (!out.addScaled(r, inst->bin_op == ir::BinOp::kAdd ? 1 : -1)) {
            break;
          }
          return out;
        }
        if (inst->bin_op == ir::BinOp::kMul) {
          // One side must be a pure constant.
          const AffineIndex* konst =
              l.terms.empty() ? &l : (r.terms.empty() ? &r : nullptr);
          if (konst == nullptr) break;
          const AffineIndex& lin = konst == &l ? r : l;
          out.valid = true;
          if (!out.addScaled(lin, konst->constant)) break;
          return out;
        }
        break;
      }
      case ir::Opcode::kUnOp:
        if (inst->un_op == ir::UnOp::kNeg) {
          const AffineIndex inner = decompose(inst->operand(0), depth + 1);
          if (!inner.valid) break;
          out.valid = true;
          if (!out.addScaled(inner, -1)) break;
          return out;
        }
        break;
      case ir::Opcode::kPhi:
        // An induction variable: itself a symbol.
        out.valid = true;
        out.terms.emplace_back(v, 1);
        return out;
      default:
        break;
    }
    return AffineIndex{};
  }
  if (v->kind() == ir::Value::Kind::kArgument) {
    out.valid = true;
    out.terms.emplace_back(v, 1);
    return out;
  }
  return out;
}

RestrictionChecker::SymbolBounds RestrictionChecker::boundsFor(
    const ir::Value* sym, const ir::BasicBlock* use_block,
    bool* used_ranges) const {
  bool bound_from_ranges = false;
  const SymbolBounds induction = [&]() -> SymbolBounds {
    SymbolBounds out;
    if (!sym->isInstruction()) return out;
    const auto* phi = static_cast<const ir::Instruction*>(sym);
    if (phi->opcode() != ir::Opcode::kPhi) return out;

    // A constant after folding negation and arithmetic (`-3` is a neg).
    const auto constantOf =
        [this](const ir::Value* v) -> std::optional<std::int64_t> {
      const AffineIndex c = decompose(v);
      if (!c.valid || !c.terms.empty()) return std::nullopt;
      return c.constant;
    };

    // Induction pattern: one incoming constant (init), one incoming
    // add/sub of the phi itself with a constant step.
    std::optional<std::int64_t> init;
    int direction = 0;  // the sign of the step
    const ir::Instruction* inc = nullptr;
    for (std::size_t i = 0; i < phi->numOperands(); ++i) {
      const ir::Value* in = phi->operand(i);
      if (const auto c = constantOf(in)) {
        init = *c;
        continue;
      }
      if (in->isInstruction()) {
        const auto* add = static_cast<const ir::Instruction*>(in);
        if (add->opcode() == ir::Opcode::kBinOp &&
            (add->bin_op == ir::BinOp::kAdd ||
             add->bin_op == ir::BinOp::kSub) &&
            add->numOperands() == 2 && add->operand(0) == phi) {
          if (const auto s = constantOf(add->operand(1))) {
            direction = (*s > 0) - (*s < 0);
            if (add->bin_op == ir::BinOp::kSub) direction = -direction;
            inc = add;
            continue;
          }
        }
      }
      return out;  // unrecognized incoming edge
    }
    if (!init.has_value() || direction == 0) return out;

    // Find the loop-header comparison guarding the body: a CondBr in the
    // phi's block whose condition compares the phi against a constant —
    // or, with the range analysis available, against any value whose
    // interval is known at the header (`i < n` with n in [4, 12]).
    const ir::BasicBlock* header = phi->parent();
    const ir::Instruction* term = header->terminator();
    if (term == nullptr || term->opcode() != ir::Opcode::kCondBr) return out;
    const ir::Value* cond = term->operand(0);
    if (!cond->isInstruction()) return out;
    const auto* cmp = static_cast<const ir::Instruction*>(cond);
    if (cmp->opcode() != ir::Opcode::kCmp) return out;
    if (cmp->operand(0) != phi) return out;
    // The loop bound as an interval: a constant is the singleton case.
    std::optional<std::int64_t> bound_lo;
    std::optional<std::int64_t> bound_hi;
    if (const auto b = constantOf(cmp->operand(1))) {
      bound_lo = b;
      bound_hi = b;
    } else if (ranges_ != nullptr) {
      const Interval r = ranges_->rangeAt(cmp->operand(1), header);
      if (r.boundedBelow()) bound_lo = r.lo;
      if (r.boundedAbove()) bound_hi = r.hi;
      bound_from_ranges = true;
    } else {
      return out;
    }

    // The body is the successor from which the phi's increment flows back;
    // determine which CondBr edge enters the body (reaches the increment's
    // block without re-entering the header).
    const bool body_on_true = reachableAvoiding(term->block_refs[0],
                                                inc->parent(), header);
    ir::CmpOp op = cmp->cmp_op;
    if (!body_on_true) {
      // Invert the comparison when the loop body hangs off the false edge.
      switch (op) {
        case ir::CmpOp::kLt: op = ir::CmpOp::kGe; break;
        case ir::CmpOp::kLe: op = ir::CmpOp::kGt; break;
        case ir::CmpOp::kGt: op = ir::CmpOp::kLe; break;
        case ir::CmpOp::kGe: op = ir::CmpOp::kLt; break;
        case ir::CmpOp::kEq: op = ir::CmpOp::kNe; break;
        case ir::CmpOp::kNe: op = ir::CmpOp::kEq; break;
      }
    }

    if (direction > 0) {
      // Counting up: the comparison caps the index from above, so the
      // largest possible loop bound is what matters. `i != N` stops
      // below N like `i < N`.
      if (!bound_hi.has_value() ||
          (op != ir::CmpOp::kLt && op != ir::CmpOp::kLe &&
           op != ir::CmpOp::kNe) ||
          __builtin_sub_overflow(*bound_hi, op == ir::CmpOp::kLe ? 0 : 1,
                                 &out.hi)) {
        return out;
      }
      out.lo = *init;
    } else {
      if (!bound_lo.has_value() ||
          (op != ir::CmpOp::kGt && op != ir::CmpOp::kGe &&
           op != ir::CmpOp::kNe) ||
          __builtin_add_overflow(*bound_lo, op == ir::CmpOp::kGe ? 0 : 1,
                                 &out.lo)) {
        return out;
      }
      out.hi = *init;
    }
    out.valid = out.hi >= out.lo;
    return out;
  }();
  if (induction.valid) {
    if (bound_from_ranges && used_ranges != nullptr) *used_ranges = true;
    return induction;
  }

  // Fallback: the symbol is not a recognizable induction variable (or its
  // loop bound is unknown), but the value-range analysis may still bound
  // it outright — e.g. an argument clamped by early returns, or a value
  // masked to a small range before use.
  SymbolBounds out;
  if (ranges_ != nullptr && use_block != nullptr) {
    const Interval r = ranges_->rangeAt(sym, use_block);
    if (r.boundedBelow() && r.boundedAbove()) {
      out.valid = true;
      out.lo = r.lo;
      out.hi = r.hi;
      if (used_ranges != nullptr) *used_ranges = true;
    }
  }
  return out;
}

}  // namespace safeflow::analysis
