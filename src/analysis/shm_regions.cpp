#include "analysis/shm_regions.h"

#include <algorithm>

#include "support/metrics.h"

namespace safeflow::analysis {

std::int64_t ShmRegion::elementCount() const {
  if (pointee_type == nullptr || pointee_type->size() == 0) return 0;
  return size / static_cast<std::int64_t>(pointee_type->size());
}

const ir::GlobalVar* traceToGlobal(const ir::Value* v) {
  while (v != nullptr && v->isInstruction()) {
    const auto* inst = static_cast<const ir::Instruction*>(v);
    if ((inst->opcode() != ir::Opcode::kLoad &&
         inst->opcode() != ir::Opcode::kCast) ||
        inst->numOperands() != 1) {
      return nullptr;
    }
    v = inst->operand(0);
  }
  return v != nullptr && v->kind() == ir::Value::Kind::kGlobalVar
             ? static_cast<const ir::GlobalVar*>(v)
             : nullptr;
}

ShmRegionTable ShmRegionTable::build(const ir::Module& module,
                                     support::DiagnosticEngine& diags) {
  const support::ScopedTimer timer("phase.shm_regions");
  ShmRegionTable table;
  for (const auto& fn : module.functions()) {
    if (fn->annotations.is_shminit) table.init_functions_.push_back(fn);
  }

  // Message channels (paper §3.4.3): noncore(fd) annotations on integer
  // descriptor variables anywhere in the core component create
  // pseudo-regions for the data received over them.
  for (const auto& fn : module.functions()) {
    if (!fn->isDefined()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kCall ||
            inst->direct_callee == nullptr ||
            inst->direct_callee->name() != ir::kIntrinsicNonCore) {
          continue;
        }
        const ir::GlobalVar* g = traceToGlobal(inst->operand(0));
        if (g == nullptr || !g->valueType()->isInteger()) continue;
        if (table.by_global_.contains(g)) continue;
        ShmRegion channel;
        channel.id = static_cast<int>(table.regions_.size());
        channel.name = g->name();
        channel.pointer_global = g;
        channel.noncore = true;
        channel.is_message_channel = true;
        channel.location = inst->location();
        table.by_global_[g] = channel.id;
        table.regions_.push_back(channel);
      }
    }
  }

  for (const ir::Function* fn : table.init_functions_) {
    if (!fn->isDefined()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kCall ||
            inst->direct_callee == nullptr) {
          continue;
        }
        const std::string_view callee = inst->direct_callee->name();
        if (callee == ir::kIntrinsicShmVar) {
          const ir::GlobalVar* g = traceToGlobal(inst->operand(0));
          if (g == nullptr) {
            diags.error(inst->location(), "annotation",
                        "shmvar must name a global shared-memory pointer");
            continue;
          }
          if (table.by_global_.contains(g)) {
            diags.error(inst->location(), "annotation",
                        "duplicate shmvar declaration for '" +
                            std::string(g->name()) + "'");
            continue;
          }
          ShmRegion region;
          region.id = static_cast<int>(table.regions_.size());
          region.name = g->name();
          region.pointer_global = g;
          const ir::Type* t = g->valueType();
          region.pointee_type =
              t->isPointer()
                  ? static_cast<const cfront::PointerType*>(t)->pointee()
                  : t;
          region.size =
              static_cast<const ir::ConstantInt*>(inst->operand(1))->value();
          region.location = inst->location();
          table.by_global_[g] = region.id;
          table.regions_.push_back(region);
        } else if (callee == ir::kIntrinsicNonCore) {
          const ir::GlobalVar* g = traceToGlobal(inst->operand(0));
          const ShmRegion* region = g ? table.byGlobal(g) : nullptr;
          if (region == nullptr) {
            diags.error(inst->location(), "annotation",
                        "noncore annotation without a matching shmvar");
            continue;
          }
          table.regions_[static_cast<std::size_t>(region->id)].noncore =
              true;
        }
      }
    }
  }
  table.verifyInitCheck(module, diags);
  SAFEFLOW_GAUGE("shm_regions.count", table.regions_.size());
  SAFEFLOW_GAUGE("shm_regions.noncore", table.noncoreCount());
  SAFEFLOW_GAUGE("shm_regions.init_functions", table.init_functions_.size());
  return table;
}

void ShmRegionTable::verifyInitCheck(const ir::Module& module,
                                     support::DiagnosticEngine& diags) {
  (void)module;
  if (regions_.empty()) return;

  // Abstract state: byte offset of each value within "the" shm segment.
  // shmat-style allocator results sit at offset 0; pointer arithmetic and
  // casts shift/copy it; stores into the region globals bind the offsets.
  std::map<const ir::Value*, std::int64_t> offsets;
  std::map<const ir::GlobalVar*, std::int64_t> region_offsets;

  for (const ir::Function* fn : init_functions_) {
    if (!fn->isDefined()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        switch (inst->opcode()) {
          case ir::Opcode::kCall:
            if (inst->direct_callee != nullptr &&
                (inst->direct_callee->name() == "shmat" ||
                 inst->direct_callee->name() == "mmap")) {
              offsets[inst] = 0;
            }
            break;
          case ir::Opcode::kCast: {
            auto it = offsets.find(inst->operand(0));
            if (it != offsets.end()) offsets[inst] = it->second;
            break;
          }
          case ir::Opcode::kIndexAddr: {
            auto base = offsets.find(inst->operand(0));
            if (base == offsets.end()) break;
            const ir::Value* idx = inst->operand(1);
            if (idx->kind() != ir::Value::Kind::kConstantInt) break;
            std::int64_t elem = 1;
            if (inst->type()->isPointer()) {
              elem = static_cast<std::int64_t>(
                  static_cast<const cfront::PointerType*>(inst->type())
                      ->pointee()
                      ->size());
              if (elem == 0) elem = 1;
            }
            offsets[inst] =
                base->second +
                static_cast<const ir::ConstantInt*>(idx)->value() * elem;
            break;
          }
          case ir::Opcode::kLoad: {
            // Re-reading a region global recovers its bound offset
            // (e.g. `noncoreCtrl = feedback + 1`).
            if (inst->operand(0)->kind() == ir::Value::Kind::kGlobalVar) {
              const auto* g =
                  static_cast<const ir::GlobalVar*>(inst->operand(0));
              auto it = region_offsets.find(g);
              if (it != region_offsets.end()) {
                offsets[inst] = it->second;
              }
            } else {
              auto it = offsets.find(inst->operand(0));
              if (it != offsets.end()) offsets[inst] = it->second;
            }
            break;
          }
          case ir::Opcode::kStore: {
            auto v = offsets.find(inst->operand(0));
            if (v == offsets.end()) break;
            if (inst->operand(1)->kind() == ir::Value::Kind::kGlobalVar) {
              const auto* g =
                  static_cast<const ir::GlobalVar*>(inst->operand(1));
              region_offsets[g] = v->second;
            } else if (inst->operand(1)->isInstruction() &&
                       static_cast<const ir::Instruction*>(
                           inst->operand(1))
                               ->opcode() == ir::Opcode::kAlloca) {
              // Local cursor variable that escaped promotion.
              offsets[inst->operand(1)] = v->second;
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }

  // Collect extents for all plain shm regions; any unknown offset demands
  // the run-time check instead.
  struct Extent {
    std::int64_t lo;
    std::int64_t hi;
    const ShmRegion* region;
  };
  std::vector<Extent> extents;
  for (const ShmRegion& r : regions_) {
    if (r.is_message_channel) continue;
    auto it = region_offsets.find(r.pointer_global);
    if (it == region_offsets.end()) return;  // not statically derivable
    extents.push_back(Extent{it->second, it->second + r.size, &r});
  }
  for (std::size_t i = 0; i < extents.size(); ++i) {
    for (std::size_t j = i + 1; j < extents.size(); ++j) {
      if (extents[i].lo < extents[j].hi && extents[j].lo < extents[i].hi) {
        diags.error(extents[j].region->location, "annotation.initcheck",
                    "shmvar regions '" + extents[i].region->name +
                        "' and '" + extents[j].region->name +
                        "' overlap (InitCheck verified statically)");
        return;
      }
    }
  }
  init_check_static_ = true;
}

const ShmRegion* ShmRegionTable::byId(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= regions_.size()) {
    return nullptr;
  }
  return &regions_[static_cast<std::size_t>(id)];
}

const ShmRegion* ShmRegionTable::byGlobal(const ir::GlobalVar* g) const {
  auto it = by_global_.find(g);
  return it == by_global_.end() ? nullptr : byId(it->second);
}

const ShmRegion* ShmRegionTable::byName(std::string_view name) const {
  for (const ShmRegion& r : regions_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::size_t ShmRegionTable::noncoreCount() const {
  return static_cast<std::size_t>(
      std::count_if(regions_.begin(), regions_.end(),
                    [](const ShmRegion& r) { return r.noncore; }));
}

const ShmRegion* ShmRegionTable::channelByGlobal(
    const ir::GlobalVar* g) const {
  const ShmRegion* r = byGlobal(g);
  return (r != nullptr && r->is_message_channel) ? r : nullptr;
}

bool ShmRegionTable::isInitFunction(const ir::Function* fn) const {
  return std::find(init_functions_.begin(), init_functions_.end(), fn) !=
         init_functions_.end();
}

}  // namespace safeflow::analysis
