#include "ir/ir.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "ir/cfg.h"

namespace safeflow::ir {

Instruction* BasicBlock::append(Instruction* inst) {
  inst->setParent(this);
  insts_.push_back(inst);
  return inst;
}

Instruction* BasicBlock::prepend(Instruction* inst) {
  inst->setParent(this);
  insts_.insert(insts_.begin(), inst);
  return inst;
}

void BasicBlock::prepend(std::span<Instruction* const> insts) {
  for (Instruction* inst : insts) inst->setParent(this);
  insts_.insert(insts_.begin(), insts.begin(), insts.end());
}

void BasicBlock::erase(Instruction* inst) {
  const auto it = std::find(insts_.begin(), insts_.end(), inst);
  assert(it != insts_.end() && "erasing instruction from wrong block");
  insts_.erase(it);
  poison(inst);
}

Instruction* BasicBlock::terminator() const {
  if (insts_.empty()) return nullptr;
  Instruction* last = insts_.back();
  return last->isTerminator() ? last : nullptr;
}

std::span<BasicBlock* const> BasicBlock::successors() const {
  const Instruction* term = terminator();
  if (term == nullptr) return {};
  return term->block_refs;
}

Function::Function(std::string_view name, const cfront::FunctionType* type,
                   Module* parent)
    : name_(name),
      type_(type),
      parent_(parent),
      args_(parent->arena()),
      blocks_(parent->arena()) {}

Argument* Function::addArg(const Type* type, std::string_view name) {
  args_.push_back(parent_->create<Argument>(
      type, name, this, static_cast<unsigned>(args_.size())));
  return args_.back();
}

BasicBlock* Function::createBlock(std::string_view label) {
  blocks_.push_back(parent_->create<BasicBlock>(
      label, this, static_cast<std::uint32_t>(blocks_.size()),
      parent_->arena()));
  return blocks_.back();
}

const CfgInfo& Function::cfg() const {
  if (cfg_ == nullptr) cfg_ = parent_->create<CfgInfo>(*this);
  return *cfg_;
}

std::string_view Module::copyString(std::string_view text) {
  if (text.empty()) return {};
  char* copy = static_cast<char*>(arena_.allocate(text.size(), 1));
  std::memcpy(copy, text.data(), text.size());
  return {copy, text.size()};
}

Function* Module::getOrCreateFunction(std::string_view name,
                                      const cfront::FunctionType* type) {
  auto it = function_map_.find(name);
  if (it != function_map_.end()) return it->second;
  Function* f = create<Function>(copyString(name), type, this);
  functions_.push_back(f);
  function_map_.emplace(f->name(), f);
  return f;
}

Function* Module::findFunction(std::string_view name) const {
  auto it = function_map_.find(name);
  return it == function_map_.end() ? nullptr : it->second;
}

GlobalVar* Module::getOrCreateGlobal(std::string_view name,
                                     const Type* value_type,
                                     SourceLocation loc) {
  auto it = global_map_.find(name);
  if (it != global_map_.end()) return it->second;
  GlobalVar* g = create<GlobalVar>(copyString(name), value_type,
                                   types_.pointerTo(value_type), loc);
  globals_.push_back(g);
  global_map_.emplace(g->name(), g);
  return g;
}

GlobalVar* Module::findGlobal(std::string_view name) const {
  auto it = global_map_.find(name);
  return it == global_map_.end() ? nullptr : it->second;
}

ConstantInt* Module::constantInt(std::int64_t value, const Type* type) {
  ConstantInt*& slot = int_constants_[{value, type}];
  if (slot == nullptr) slot = create<ConstantInt>(value, type);
  return slot;
}

ConstantFloat* Module::constantFloat(double value, const Type* type) {
  return create<ConstantFloat>(value, type);
}

ConstantString* Module::constantString(std::string_view text) {
  return create<ConstantString>(copyString(text),
                                types_.pointerTo(types_.charType()));
}

Undef* Module::undef(const Type* type) {
  Undef*& slot = undefs_[type];
  if (slot == nullptr) slot = create<Undef>(type);
  return slot;
}

}  // namespace safeflow::ir
