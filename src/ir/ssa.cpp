#include "ir/ssa.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/cfg.h"
#include "support/metrics.h"

namespace safeflow::ir {

namespace {

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// mem2reg over one function, in time linear in its size (plus the
/// phis it places). Each promoted alloca is a slot, numbered in entry
/// order.
class Promoter {
 public:
  Promoter(Function& fn, Module& module)
      : fn_(fn), module_(module), cfg_(fn.cfg()) {}

  SsaStats run();

 private:
  /// The slot of `v` when it is a promoted alloca. Looks `v` up by
  /// address alone: rewrite() still asks once the allocas are destroyed.
  [[nodiscard]] std::uint32_t slotOf(const Value* v) const {
    const auto it = slot_of_.find(v);
    return it == slot_of_.end() ? kNoSlot : it->second;
  }
  /// The slot `inst` loads from or stores to, when promoted.
  [[nodiscard]] std::uint32_t accessedSlot(const Instruction& inst) const {
    if (inst.opcode() == Opcode::kLoad && inst.numOperands() == 1) {
      return slotOf(inst.operand(0));
    }
    if (inst.opcode() == Opcode::kStore && inst.numOperands() == 2) {
      return slotOf(inst.operand(1));
    }
    return kNoSlot;
  }
  /// What the uses of `v` become once promoted loads are gone.
  [[nodiscard]] Value* resolve(Value* v) const {
    for (auto it = replacement_.find(v); it != replacement_.end();
         it = replacement_.find(v)) {
      v = it->second;
    }
    return v;
  }
  /// The definition of `slot` reaching the current point of the walk.
  [[nodiscard]] Value* reaching(std::uint32_t slot, const Type* type) const {
    const std::vector<Value*>& defs = stacks_[slot];
    return defs.empty() ? module_.undef(type) : defs.back();
  }
  void define(std::uint32_t slot, Value* v) {
    stacks_[slot].push_back(v);
    pushed_.push_back(slot);
  }

  bool findPromotable();
  void placePhis();
  void rename();
  void renameBlock(BasicBlock* bb);
  void rewrite();

  Function& fn_;
  Module& module_;
  const CfgInfo& cfg_;
  SsaStats stats_;

  std::vector<Instruction*> allocas_;  ///< by slot
  std::unordered_map<const Value*, std::uint32_t> slot_of_;
  /// Numbers of the blocks that store to each slot.
  std::vector<std::vector<std::uint32_t>> def_blocks_;
  /// Slots of the phis leading each block, in block order.
  std::vector<std::vector<std::uint32_t>> phi_slots_;
  /// Definition stack of each slot along the dominator-tree walk, and
  /// the slot of every definition pushed, so a block's can be popped.
  std::vector<std::vector<Value*>> stacks_;
  std::vector<std::uint32_t> pushed_;
  /// Each promoted load's replacement, applied in one final pass.
  std::unordered_map<const Value*, Value*> replacement_;
};

SsaStats Promoter::run() {
  if (!findPromotable()) return stats_;
  placePhis();
  rename();
  rewrite();
  return stats_;
}

/// A scalar alloca of the entry block is promotable when its address is
/// used only as the pointer operand of loads and stores. One scan over
/// the body finds the escaping allocas and the blocks that store to the
/// others.
bool Promoter::findPromotable() {
  std::vector<Instruction*> candidates;
  for (Instruction* inst : fn_.entry()->instructions()) {
    if (inst->opcode() == Opcode::kAlloca &&
        inst->allocated_type != nullptr &&
        inst->allocated_type->isScalar()) {
      slot_of_.emplace(inst, static_cast<std::uint32_t>(candidates.size()));
      candidates.push_back(inst);
    }
  }
  if (candidates.empty()) return false;

  std::vector<bool> escapes(candidates.size(), false);
  std::vector<std::vector<std::uint32_t>> stores(candidates.size());
  for (const BasicBlock* bb : fn_.blocks()) {
    const std::uint32_t block = cfg_.number(bb);
    for (const Instruction* inst : bb->instructions()) {
      for (std::size_t i = 0; i < inst->numOperands(); ++i) {
        const Value* op = inst->operand(i);
        if (!op->isInstruction()) continue;
        const std::uint32_t slot = slotOf(op);
        if (slot == kNoSlot) continue;
        if (inst->opcode() == Opcode::kLoad && i == 0) continue;
        if (inst->opcode() == Opcode::kStore && i == 1) {
          if (stores[slot].empty() || stores[slot].back() != block) {
            stores[slot].push_back(block);
          }
          continue;
        }
        escapes[slot] = true;
      }
    }
  }

  slot_of_.clear();
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (escapes[c]) continue;
    slot_of_.emplace(candidates[c],
                     static_cast<std::uint32_t>(allocas_.size()));
    allocas_.push_back(candidates[c]);
    def_blocks_.push_back(std::move(stores[c]));
  }
  stats_.promoted_allocas = allocas_.size();
  return !allocas_.empty();
}

/// Phis go on the iterated dominance frontier of each slot's defining
/// blocks (Cytron et al.). Each block's phis lead it in descending slot
/// order, and they are inserted in one batch per block.
void Promoter::placePhis() {
  const std::uint32_t blocks = cfg_.size();
  phi_slots_.resize(blocks);
  std::vector<std::uint32_t> has_phi(blocks, kNoSlot);
  std::vector<std::uint32_t> queued(blocks, kNoSlot);
  std::vector<std::uint32_t> work;
  for (std::uint32_t slot = 0; slot < allocas_.size(); ++slot) {
    work = def_blocks_[slot];
    for (const std::uint32_t b : work) queued[b] = slot;
    while (!work.empty()) {
      const std::uint32_t b = work.back();
      work.pop_back();
      for (const BasicBlock* frontier : cfg_.frontier(cfg_.block(b))) {
        const std::uint32_t f = cfg_.number(frontier);
        if (has_phi[f] == slot) continue;
        has_phi[f] = slot;
        phi_slots_[f].push_back(slot);
        if (queued[f] != slot) {
          queued[f] = slot;
          work.push_back(f);
        }
      }
    }
  }

  for (std::uint32_t b = 0; b < blocks; ++b) {
    std::vector<std::uint32_t>& slots = phi_slots_[b];
    if (slots.empty()) continue;
    std::reverse(slots.begin(), slots.end());
    std::vector<Instruction*> phis;
    phis.reserve(slots.size());
    for (const std::uint32_t slot : slots) {
      const Instruction* alloca = allocas_[slot];
      Instruction* phi = module_.createInstruction(
          Opcode::kPhi, alloca->allocated_type, alloca->location());
      phi->setName(
          module_.copyString(std::string(alloca->name()) + ".phi"));
      phis.push_back(phi);
    }
    stats_.phis_inserted += phis.size();
    cfg_.block(b)->prepend(phis);
  }
}

/// Renames along the dominator tree, depth first, children in reverse
/// postorder; the walk is iterative and each block pops what it pushed.
void Promoter::rename() {
  stacks_.resize(allocas_.size());
  // (block, leaving): a block is entered, then left after its subtree.
  std::vector<std::pair<BasicBlock*, bool>> walk{{fn_.entry(), false}};
  std::vector<std::size_t> marks;
  while (!walk.empty()) {
    const auto [bb, leaving] = walk.back();
    walk.pop_back();
    if (leaving) {
      for (std::size_t i = pushed_.size(); i > marks.back(); --i) {
        stacks_[pushed_[i - 1]].pop_back();
      }
      pushed_.resize(marks.back());
      marks.pop_back();
      continue;
    }
    marks.push_back(pushed_.size());
    walk.emplace_back(bb, true);
    renameBlock(bb);
    const BlockList children = cfg_.children(bb);
    for (std::size_t i = children.size(); i > 0; --i) {
      walk.emplace_back(children[i - 1], false);
    }
  }

  // Blocks unreachable from the entry are outside the dominator tree, so
  // the walk never renamed them. Their accesses to promoted allocas must
  // still go — the allocas are about to be deleted, and a surviving use
  // would dangle. Unreachable code never executes, so undef is sound.
  for (std::uint32_t b = cfg_.reachableCount(); b < cfg_.size(); ++b) {
    for (const Instruction* inst : cfg_.block(b)->instructions()) {
      if (accessedSlot(*inst) == kNoSlot) continue;
      if (inst->opcode() == Opcode::kLoad) {
        replacement_.emplace(inst, module_.undef(inst->type()));
        ++stats_.loads_removed;
      } else {
        ++stats_.stores_removed;
      }
    }
  }
}

void Promoter::renameBlock(BasicBlock* bb) {
  const std::vector<std::uint32_t>& phis = phi_slots_[cfg_.number(bb)];
  const auto& insts = bb->instructions();
  for (std::size_t i = 0; i < phis.size(); ++i) {
    define(phis[i], insts[i]);
  }
  for (std::size_t i = phis.size(); i < insts.size(); ++i) {
    Instruction* inst = insts[i];
    const std::uint32_t slot = accessedSlot(*inst);
    if (slot == kNoSlot) continue;
    if (inst->opcode() == Opcode::kLoad) {
      // A load reaches itself only through a use its definition does not
      // dominate, which lowering never emits in reachable code. Undef
      // keeps the replacements acyclic, so resolve() always ends.
      Value* v = resolve(reaching(slot, inst->type()));
      if (v == inst) v = module_.undef(inst->type());
      replacement_.emplace(inst, v);
      ++stats_.loads_removed;
    } else {
      define(slot, resolve(inst->operand(0)));
      ++stats_.stores_removed;
    }
  }

  // Feed the phis of each successor; an edge named twice feeds twice.
  for (BasicBlock* succ : cfg_.successors(bb)) {
    const std::vector<std::uint32_t>& succ_phis =
        phi_slots_[cfg_.number(succ)];
    for (std::size_t i = 0; i < succ_phis.size(); ++i) {
      Instruction* phi = succ->instructions()[i];
      phi->addOperand(reaching(succ_phis[i], phi->type()));
      phi->block_refs.push_back(bb);
    }
  }
}

/// Points every use of a promoted load at its replacement in one pass
/// over the operands, then deletes the promoted allocas with their loads
/// and stores in one pass per block. Deleting comes second: a use in a
/// later block must not see a load already erased.
void Promoter::rewrite() {
  for (const BasicBlock* bb : fn_.blocks()) {
    for (Instruction* inst : bb->instructions()) {
      for (std::size_t i = 0; i < inst->numOperands(); ++i) {
        Value* op = inst->operand(i);
        if (op->isInstruction() &&
            static_cast<const Instruction*>(op)->opcode() == Opcode::kLoad) {
          inst->setOperand(i, resolve(op));
        }
      }
    }
  }
  for (BasicBlock* bb : fn_.blocks()) {
    bb->eraseIf([this](const Instruction* inst) {
      return accessedSlot(*inst) != kNoSlot || slotOf(inst) != kNoSlot;
    });
  }
}

}  // namespace

SsaStats promoteToSsa(Function& fn, Module& module) {
  if (!fn.isDefined()) return {};
  return Promoter(fn, module).run();
}

SsaStats promoteModuleToSsa(Module& module) {
  const support::ScopedTimer timer("phase.ssa");
  SsaStats total;
  for (Function* fn : module.functions()) {
    if (!fn->isDefined()) continue;
    const SsaStats s = promoteToSsa(*fn, module);
    total.promoted_allocas += s.promoted_allocas;
    total.phis_inserted += s.phis_inserted;
    total.loads_removed += s.loads_removed;
    total.stores_removed += s.stores_removed;
  }
  SAFEFLOW_COUNT_N("ssa.promoted_allocas", total.promoted_allocas);
  SAFEFLOW_COUNT_N("ssa.phis_inserted", total.phis_inserted);
  SAFEFLOW_COUNT_N("ssa.loads_removed", total.loads_removed);
  SAFEFLOW_COUNT_N("ssa.stores_removed", total.stores_removed);
  return total;
}

std::string verifySsa(const Function& fn) {
  if (!fn.isDefined()) return {};
  const CfgInfo& cfg = fn.cfg();

  // Map each instruction to its defining block and intra-block position.
  std::unordered_map<const Value*, std::pair<const BasicBlock*, std::size_t>>
      defs;
  for (const BasicBlock* bb : fn.blocks()) {
    for (std::size_t i = 0; i < bb->instructions().size(); ++i) {
      defs.emplace(bb->instructions()[i], std::make_pair(bb, i));
    }
  }

  for (const BasicBlock* bb : fn.blocks()) {
    // Dominance means nothing in code the entry cannot reach (LLVM's
    // verifier skips it too); dangling operands are still caught there.
    const bool reachable = cfg.reachable(bb);
    for (std::size_t i = 0; i < bb->instructions().size(); ++i) {
      const Instruction* inst = bb->instructions()[i];
      for (std::size_t oi = 0; oi < inst->numOperands(); ++oi) {
        const Value* op = inst->operand(oi);
        if (!op->isInstruction()) continue;
        auto it = defs.find(op);
        if (it == defs.end()) {
          return "operand of '" + std::string(inst->name()) + "' in " +
                 std::string(bb->label()) +
                 " is not defined in this function";
        }
        if (!reachable) continue;
        const auto [def_bb, def_pos] = it->second;
        if (inst->opcode() == Opcode::kPhi) {
          // Phi operand must be defined in a block dominating the incoming
          // edge's source.
          if (oi < inst->block_refs.size()) {
            const BasicBlock* incoming = inst->block_refs[oi];
            if (cfg.reachable(incoming) &&
                !cfg.dominates(def_bb, incoming)) {
              return "phi operand does not dominate incoming edge in " +
                     std::string(bb->label());
            }
          }
          continue;
        }
        if (def_bb == bb) {
          if (def_pos >= i) {
            return "use before def inside block " + std::string(bb->label());
          }
        } else if (!cfg.dominates(def_bb, bb)) {
          return "definition in " + std::string(def_bb->label()) +
                 " does not dominate use in " + std::string(bb->label());
        }
      }
    }
  }
  return {};
}

}  // namespace safeflow::ir
