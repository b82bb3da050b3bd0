#include "analysis/shm_propagation.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "support/metrics.h"

namespace safeflow::analysis {

namespace {
constexpr unsigned kWidenThreshold = 4;
}

bool ShmPtrInfo::merge(const ShmPtrInfo& other) {
  if (other.regions.empty()) return false;
  // Adopting facts into a previously-empty info copies the interval
  // verbatim; hulling with the default [0,0] would fabricate offset 0.
  if (regions.empty()) {
    const bool changed = *this != other;
    *this = other;
    return changed;
  }
  bool changed = false;
  for (int r : other.regions) {
    if (regions.insert(r).second) changed = true;
  }
  if (!other.offset_known && offset_known) {
    offset_known = false;
    changed = true;
  }
  if (offset_known && other.offset_known) {
    if (other.lo < lo) {
      lo = other.lo;
      changed = true;
    }
    if (other.hi > hi) {
      hi = other.hi;
      changed = true;
    }
  }
  return changed;
}

ShmPointerAnalysis::ShmPointerAnalysis(const ir::Module& module,
                                       const ShmRegionTable& regions,
                                       const ir::CallGraph& callgraph,
                                       support::AnalysisBudget* budget,
                                       PhaseMemoHooks memo)
    : module_(module),
      regions_(regions),
      callgraph_(callgraph),
      budget_(budget),
      memo_(memo) {}

ShmPtrInfo ShmPointerAnalysis::get(const ir::Value* v) const {
  auto it = facts_.find(v);
  return it == facts_.end() ? ShmPtrInfo{} : it->second;
}

void ShmPointerAnalysis::widen(ShmPtrInfo& info) const {
  info.offset_known = false;
  info.lo = 0;
  std::int64_t max_size = 0;
  for (int r : info.regions) {
    if (const ShmRegion* region = regions_.byId(r)) {
      max_size = std::max(max_size, region->size);
    }
  }
  info.hi = max_size;
}

bool ShmPointerAnalysis::update(const ir::Value* v,
                                const ShmPtrInfo& incoming) {
  if (incoming.empty()) return false;
  ShmPtrInfo& slot = facts_[v];
  ShmPtrInfo merged = slot;
  if (!merged.merge(incoming)) return false;
  unsigned& count = update_counts_[v];
  if (++count >= kWidenThreshold && merged.offset_known) widen(merged);
  slot = merged;
  return true;
}

void ShmPointerAnalysis::run() {
  const support::ScopedTimer timer("phase.shm_propagation");
  if (regions_.empty()) return;
  support::budgetBeginPhase(budget_, "shm_propagation");

  ir::FunctionWorklist worklist(callgraph_, [this](const ir::Function& fn) {
    return fn.isDefined() && !regions_.isInitFunction(&fn);
  });
  worklist_ = &worklist;
  while (const ir::Function* fn = worklist.pop()) {
    if (!support::budgetStep(budget_)) break;
    ++iterations_;
    bool ret_changed;
    {
      support::ScopedSpan span("shm_propagation.function");
      span.arg("fn", std::string(fn->name()));
      ret_changed = memo_.enabled() ? memoizedAnalyze(*fn)
                                    : analyzeFunction(*fn);
    }
    if (ret_changed) worklist.wakeCallers(fn);
  }
  worklist_ = nullptr;
  SAFEFLOW_COUNT_N("shm_propagation.worklist_pushes", worklist.pushes());
  if (budget_ != nullptr && budget_->exhausted()) {
    // The fixpoint was cut short, so remaining facts may under-approximate
    // offsets. Widen every fact to "anywhere within its regions": coverage
    // checks then flag (rather than certify) every access the partial
    // analysis could not pin down.
    for (auto& [value, info] : facts_) widen(info);
    for (auto& [fn, info] : returns_) widen(info);
  }
  SAFEFLOW_COUNT_N("shm_propagation.iterations", iterations_);
  SAFEFLOW_COUNT_N("shm_propagation.values_tracked", facts_.size());
}

bool ShmPointerAnalysis::analyzeFunction(const ir::Function& fn) {
  bool any_change = true;
  bool ret_changed = false;
  // Iterate the straight-line transfer functions to a local fixpoint;
  // block order does not matter because facts only grow.
  while (any_change) {
    any_change = false;
    for (const auto& bb : fn.blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (!support::budgetStep(budget_)) return ret_changed;
        switch (inst->opcode()) {
          case ir::Opcode::kLoad: {
            // Loading the region's global pointer variable yields a pointer
            // to offset 0 of the region.
            const ir::Value* ptr = inst->operand(0);
            if (ptr->kind() == ir::Value::Kind::kGlobalVar) {
              const auto* g = static_cast<const ir::GlobalVar*>(ptr);
              if (const ShmRegion* region = regions_.byGlobal(g)) {
                ShmPtrInfo info;
                info.regions.insert(region->id);
                info.lo = info.hi = 0;
                any_change |= update(inst, info);
                break;
              }
            }
            // Loading through an alloca that holds a shm pointer (not
            // promoted because its address escapes) propagates its fact.
            const ShmPtrInfo src = get(ptr);
            if (!src.empty() && inst->type()->isPointer()) {
              // The loaded value's provenance is unknown within the
              // region(s) the holder could reference.
              ShmPtrInfo info = src;
              any_change |= update(inst, info);
            }
            break;
          }
          case ir::Opcode::kStore: {
            // Storing a shm pointer into a local slot (pre-promotion
            // pattern or escaped local): the slot's loads see the fact.
            const ShmPtrInfo src = get(inst->operand(0));
            if (!src.empty()) {
              const ir::Value* dst = inst->operand(1);
              if (dst->isInstruction() &&
                  static_cast<const ir::Instruction*>(dst)->opcode() ==
                      ir::Opcode::kAlloca) {
                any_change |= update(dst, src);
              }
            }
            break;
          }
          case ir::Opcode::kCast: {
            const ShmPtrInfo src = get(inst->operand(0));
            if (!src.empty()) any_change |= update(inst, src);
            break;
          }
          case ir::Opcode::kPhi: {
            ShmPtrInfo merged;
            for (std::size_t i = 0; i < inst->numOperands(); ++i) {
              merged.merge(get(inst->operand(i)));
            }
            if (!merged.empty()) any_change |= update(inst, merged);
            break;
          }
          case ir::Opcode::kFieldAddr: {
            ShmPtrInfo src = get(inst->operand(0));
            if (src.empty()) break;
            // Shift by the field offset; requires the pointee struct type.
            const ir::Value* base = inst->operand(0);
            const ir::Type* bt = base->type();
            std::int64_t field_off = 0;
            if (bt->isPointer()) {
              const ir::Type* pointee =
                  static_cast<const cfront::PointerType*>(bt)->pointee();
              if (pointee->isStruct()) {
                const auto* st =
                    static_cast<const cfront::StructType*>(pointee);
                if (inst->field_index < st->fields().size()) {
                  field_off = static_cast<std::int64_t>(
                      st->fields()[inst->field_index].offset);
                }
              }
            }
            if (src.offset_known) {
              src.lo += field_off;
              src.hi += field_off;
            }
            any_change |= update(inst, src);
            break;
          }
          case ir::Opcode::kIndexAddr: {
            ShmPtrInfo src = get(inst->operand(0));
            if (src.empty()) break;
            std::int64_t elem_size = 8;
            if (inst->type()->isPointer()) {
              elem_size = static_cast<std::int64_t>(
                  static_cast<const cfront::PointerType*>(inst->type())
                      ->pointee()
                      ->size());
              if (elem_size == 0) elem_size = 1;
            }
            const ir::Value* idx = inst->operand(1);
            std::int64_t delta = 0;
            std::int64_t lo = 0;
            std::int64_t hi = 0;
            // A constant index whose byte offset overflows int64 widens
            // the fact, as a variable index does.
            if (idx->kind() == ir::Value::Kind::kConstantInt &&
                src.offset_known &&
                !__builtin_mul_overflow(
                    static_cast<const ir::ConstantInt*>(idx)->value(),
                    elem_size, &delta) &&
                !__builtin_add_overflow(src.lo, delta, &lo) &&
                !__builtin_add_overflow(src.hi, delta, &hi)) {
              src.lo = lo;
              src.hi = hi;
            } else {
              widen(src);
            }
            any_change |= update(inst, src);
            break;
          }
          case ir::Opcode::kCall: {
            // Propagate shm-pointer arguments into callee parameters
            // (top-down) and callee return facts into this call's result
            // (bottom-up).
            const std::size_t first_arg =
                inst->direct_callee == nullptr ? 1 : 0;
            for (const ir::Function* target :
                 callgraph_.targets(*inst)) {
              if (target->isIntrinsic()) continue;
              if (!target->isDefined() ||
                  regions_.isInitFunction(target)) {
                continue;
              }
              for (std::size_t i = first_arg; i < inst->numOperands();
                   ++i) {
                const std::size_t param = i - first_arg;
                if (param >= target->args().size()) break;
                const ShmPtrInfo arg = get(inst->operand(i));
                if (!arg.empty() && update(target->args()[param], arg)) {
                  worklist_->wake(target);
                }
              }
              auto rit = returns_.find(target);
              if (rit != returns_.end() && !rit->second.empty()) {
                any_change |= update(inst, rit->second);
              }
            }
            break;
          }
          case ir::Opcode::kRet: {
            if (inst->numOperands() == 1) {
              const ShmPtrInfo v = get(inst->operand(0));
              if (!v.empty()) {
                ShmPtrInfo& ret = returns_[&fn];
                if (ret.merge(v)) {
                  ret_changed = true;
                  any_change = true;
                }
              }
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }
  return ret_changed;
}

namespace {

void hashShmInfo(support::Fnv1a& h, const ShmPtrInfo& info) {
  hashUint(h, info.regions.size());
  for (int r : info.regions) hashInt(h, r);
  hashInt(h, info.lo);
  hashInt(h, info.hi);
  hashUint(h, info.offset_known ? 1 : 0);
}

void writeShmInfo(BlobWriter& w, const ShmPtrInfo& info) {
  w.u64(info.regions.size());
  for (int r : info.regions) w.i64(r);
  w.i64(info.lo);
  w.i64(info.hi);
  w.u64(info.offset_known ? 1 : 0);
}

bool readShmInfo(BlobReader& r, ShmPtrInfo* info) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    info->regions.insert(static_cast<int>(r.i64()));
  }
  info->lo = r.i64();
  info->hi = r.i64();
  info->offset_known = r.u64() != 0;
  return r.ok();
}

std::string shmInfoStr(const ShmPtrInfo& info) {
  std::string s;
  for (int r : info.regions) s += std::to_string(r) + ",";
  s += "|" + std::to_string(info.lo) + "|" + std::to_string(info.hi) + "|" +
       (info.offset_known ? "1" : "0");
  return s;
}

/// True for call targets this phase actually propagates through.
bool shmRelevantTarget(const ir::Function* target,
                       const ShmRegionTable& regions) {
  return target->isDefined() && !target->isIntrinsic() &&
         !regions.isInitFunction(target);
}

}  // namespace

// The local solve is a deterministic transformer over: its own facts and
// update counts, its return info, its callees' formal facts/counts (it
// writes them) and return infos (it reads them). Digesting exactly that
// set makes a digest hit mean "the live solve would compute exactly the
// recorded post-state", so replaying it is exact memoization — not an
// approximation to be verified separately.
void ShmPointerAnalysis::digestInput(const ir::Function& fn,
                                     support::Fnv1a& h) const {
  const ValueIndex& vi = memo_.index->of(fn);
  hashToken(h, "shm-in");
  hashToken(h, fn.name());
  const auto& values = vi.values();
  for (std::size_t id = 0; id < values.size(); ++id) {
    const auto it = facts_.find(values[id]);
    if (it == facts_.end()) continue;
    hashUint(h, id);
    hashShmInfo(h, it->second);
    const auto cit = update_counts_.find(values[id]);
    hashUint(h, cit == update_counts_.end() ? 0 : cit->second);
  }
  hashToken(h, "ret");
  const auto rit = returns_.find(&fn);
  hashUint(h, rit == returns_.end() ? 0 : 1);
  if (rit != returns_.end()) hashShmInfo(h, rit->second);
  hashToken(h, "calls");
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (!shmRelevantTarget(target, regions_)) continue;
        hashToken(h, target->name());
        for (std::size_t p = 0; p < target->args().size(); ++p) {
          const ir::Value* formal = target->args()[p];
          const auto fit = facts_.find(formal);
          if (fit == facts_.end()) continue;
          hashUint(h, p);
          hashShmInfo(h, fit->second);
          const auto cit = update_counts_.find(formal);
          hashUint(h, cit == update_counts_.end() ? 0 : cit->second);
        }
        const auto trit = returns_.find(target);
        hashUint(h, trit == returns_.end() ? 0 : 1);
        if (trit != returns_.end()) hashShmInfo(h, trit->second);
      }
    }
  }
}

std::string ShmPointerAnalysis::captureRecord(const ir::Function& fn,
                                              bool identity,
                                              bool ret_changed) const {
  const ValueIndex& vi = memo_.index->of(fn);
  BlobWriter w;
  // Identity records (post-digest == pre-digest, i.e. the solve changed
  // nothing in the digested read/write set) let a hit skip the state
  // parse entirely; the driver signal is still stored separately because
  // it is what the replay must return. Note ret_changed alone is NOT an
  // identity test: a solve can grow facts without changing return info.
  w.u64(identity ? 1 : 0);
  w.u64(ret_changed ? 1 : 0);

  const auto& values = vi.values();
  std::vector<std::size_t> own;
  for (std::size_t id = 0; id < values.size(); ++id) {
    if (facts_.count(values[id]) != 0) own.push_back(id);
  }
  w.u64(own.size());
  for (const std::size_t id : own) {
    w.u64(id);
    writeShmInfo(w, facts_.at(values[id]));
    const auto cit = update_counts_.find(values[id]);
    w.u64(cit == update_counts_.end() ? 0 : cit->second);
  }

  const auto rit = returns_.find(&fn);
  w.u64(rit == returns_.end() ? 0 : 1);
  if (rit != returns_.end()) writeShmInfo(w, rit->second);

  // Callee formals this function's call sites may have written.
  std::set<std::pair<std::string, std::size_t>> seen;
  std::vector<std::tuple<std::string, std::size_t, const ir::Value*>> slots;
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (!shmRelevantTarget(target, regions_)) continue;
        for (std::size_t p = 0; p < target->args().size(); ++p) {
          const ir::Value* formal = target->args()[p];
          if (facts_.count(formal) == 0) continue;
          if (!seen.insert({std::string(target->name()), p}).second) continue;
          slots.emplace_back(target->name(), p, formal);
        }
      }
    }
  }
  w.u64(slots.size());
  for (const auto& [name, p, formal] : slots) {
    w.str(name);
    w.u64(p);
    writeShmInfo(w, facts_.at(formal));
    const auto cit = update_counts_.find(formal);
    w.u64(cit == update_counts_.end() ? 0 : cit->second);
  }
  return w.take();
}

bool ShmPointerAnalysis::applyRecord(const ir::Function& fn,
                                     const std::string& blob,
                                     bool* ret_changed) {
  const ValueIndex& vi = memo_.index->of(fn);
  const auto& values = vi.values();
  BlobReader r(blob);

  // Parse everything into staging first: a malformed blob must not leave
  // partially-applied state behind (the caller falls back to a live run).
  r.u64();  // identity flag, already consumed by the caller's peek
  const bool rc = r.u64() != 0;
  std::vector<std::pair<const ir::Value*, std::pair<ShmPtrInfo, unsigned>>>
      staged;
  const std::uint64_t own = r.u64();
  for (std::uint64_t i = 0; i < own && r.ok(); ++i) {
    const std::uint64_t id = r.u64();
    ShmPtrInfo info;
    if (!readShmInfo(r, &info)) return false;
    const unsigned count = static_cast<unsigned>(r.u64());
    if (id >= values.size()) return false;
    staged.push_back({values[id], {info, count}});
  }
  bool have_ret = false;
  ShmPtrInfo ret_info;
  if (r.u64() != 0) {
    have_ret = true;
    if (!readShmInfo(r, &ret_info)) return false;
  }
  const std::uint64_t nslots = r.u64();
  for (std::uint64_t i = 0; i < nslots && r.ok(); ++i) {
    const std::string name = r.str();
    const std::uint64_t p = r.u64();
    ShmPtrInfo info;
    if (!readShmInfo(r, &info)) return false;
    const unsigned count = static_cast<unsigned>(r.u64());
    const ir::Function* target = memo_.index->function(name);
    if (target == nullptr || p >= target->args().size()) return false;
    staged.push_back({target->args()[p], {info, count}});
  }
  if (!r.ok() || !r.atEnd()) return false;

  for (const auto& [v, rec] : staged) {
    // A replayed formal that grew wakes its function, as update() did.
    if (std::exchange(facts_[v], rec.first) != rec.first &&
        v->kind() == ir::Value::Kind::kArgument) {
      worklist_->wake(static_cast<const ir::Argument*>(v)->parent());
    }
    update_counts_[v] = rec.second;
  }
  if (have_ret) returns_[&fn] = ret_info;
  *ret_changed = rc;
  return true;
}

bool ShmPointerAnalysis::memoizedAnalyze(const ir::Function& fn) {
  support::Fnv1a h;
  digestInput(fn, h);
  const std::uint64_t digest = h.digest();
  if (const std::string* blob = memo_.bank->find(fn, digest)) {
    // Identity records changed nothing, so only the recorded driver
    // signal is needed — skip the state parse. This makes the converged
    // tail of a warm fixpoint (every visit after the first) nearly free.
    BlobReader peek(*blob);
    const bool identity = peek.u64() != 0;
    const bool rc = peek.u64() != 0;
    if (peek.ok() && identity) return rc;
    bool ret_changed = false;
    if (applyRecord(fn, *blob, &ret_changed)) return ret_changed;
  }
  const bool ret_changed = analyzeFunction(fn);
  // Re-digesting after the solve detects identity transforms exactly:
  // the digest covers the full read set and the pre-state of the write
  // set, so an unchanged digest means an unchanged write set.
  support::Fnv1a post;
  digestInput(fn, post);
  const bool identity = post.digest() == digest;
  memo_.bank->record(fn, digest, captureRecord(fn, identity, ret_changed));
  return ret_changed;
}

std::uint64_t ShmPointerAnalysis::digestState(
    const ModuleIndex& index) const {
  std::map<std::string, std::string> items;
  for (const auto& [v, info] : facts_) {
    const auto [owner, id] = index.locate(v);
    const std::string name =
        std::string(owner != nullptr ? owner->name() : "?") + "#" +
        std::to_string(id);
    items["v:" + name] = shmInfoStr(info);
  }
  for (const auto& [fn, info] : returns_) {
    items["r:" + std::string(fn->name())] = shmInfoStr(info);
  }
  support::Fnv1a h;
  for (const auto& [k, v] : items) {
    hashToken(h, k);
    hashToken(h, v);
  }
  return h.digest();
}

const ShmPtrInfo* ShmPointerAnalysis::info(const ir::Value* v) const {
  auto it = facts_.find(v);
  return (it == facts_.end() || it->second.empty()) ? nullptr : &it->second;
}

}  // namespace safeflow::analysis
