#include "ir/ir.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "ir/cfg.h"

namespace safeflow::ir {

Instruction* BasicBlock::append(std::unique_ptr<Instruction> inst) {
  inst->setParent(this);
  insts_.push_back(std::move(inst));
  return insts_.back().get();
}

Instruction* BasicBlock::prepend(std::unique_ptr<Instruction> inst) {
  inst->setParent(this);
  insts_.insert(insts_.begin(), std::move(inst));
  return insts_.front().get();
}

void BasicBlock::prepend(std::vector<std::unique_ptr<Instruction>> insts) {
  for (const auto& inst : insts) inst->setParent(this);
  insts_.insert(insts_.begin(), std::make_move_iterator(insts.begin()),
                std::make_move_iterator(insts.end()));
}

void BasicBlock::erase(Instruction* inst) {
  const auto it = std::find_if(
      insts_.begin(), insts_.end(),
      [inst](const std::unique_ptr<Instruction>& p) { return p.get() == inst; });
  assert(it != insts_.end() && "erasing instruction from wrong block");
  insts_.erase(it);
}

Instruction* BasicBlock::terminator() const {
  if (insts_.empty()) return nullptr;
  Instruction* last = insts_.back().get();
  return last->isTerminator() ? last : nullptr;
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  Instruction* term = terminator();
  if (term == nullptr) return {};
  return term->block_refs;
}

Function::Function(std::string name, const cfront::FunctionType* type,
                   Module* parent)
    : name_(std::move(name)), type_(type), parent_(parent) {}

Function::~Function() = default;

Argument* Function::addArg(const Type* type, std::string name) {
  args_.push_back(std::make_unique<Argument>(
      type, std::move(name), this, static_cast<unsigned>(args_.size())));
  return args_.back().get();
}

BasicBlock* Function::createBlock(std::string label) {
  blocks_.push_back(std::make_unique<BasicBlock>(
      std::move(label), this, static_cast<std::uint32_t>(blocks_.size())));
  return blocks_.back().get();
}

const CfgInfo& Function::cfg() const {
  if (cfg_ == nullptr) cfg_ = std::make_unique<CfgInfo>(*this);
  return *cfg_;
}

Function* Module::getOrCreateFunction(const std::string& name,
                                      const cfront::FunctionType* type) {
  auto it = function_map_.find(name);
  if (it != function_map_.end()) return it->second;
  functions_.push_back(std::make_unique<Function>(name, type, this));
  Function* f = functions_.back().get();
  function_map_[name] = f;
  return f;
}

Function* Module::findFunction(const std::string& name) const {
  auto it = function_map_.find(name);
  return it == function_map_.end() ? nullptr : it->second;
}

GlobalVar* Module::getOrCreateGlobal(const std::string& name,
                                     const Type* value_type,
                                     SourceLocation loc) {
  auto it = global_map_.find(name);
  if (it != global_map_.end()) return it->second;
  globals_.push_back(std::make_unique<GlobalVar>(
      name, value_type, types_.pointerTo(value_type), loc));
  GlobalVar* g = globals_.back().get();
  global_map_[name] = g;
  return g;
}

GlobalVar* Module::findGlobal(const std::string& name) const {
  auto it = global_map_.find(name);
  return it == global_map_.end() ? nullptr : it->second;
}

ConstantInt* Module::constantInt(std::int64_t value, const Type* type) {
  const auto key = std::make_pair(value, type);
  auto it = int_constants_.find(key);
  if (it != int_constants_.end()) return it->second.get();
  auto owned = std::make_unique<ConstantInt>(value, type);
  ConstantInt* raw = owned.get();
  int_constants_[key] = std::move(owned);
  return raw;
}

ConstantFloat* Module::constantFloat(double value, const Type* type) {
  float_constants_.push_back(std::make_unique<ConstantFloat>(value, type));
  return float_constants_.back().get();
}

ConstantString* Module::constantString(std::string text) {
  string_constants_.push_back(std::make_unique<ConstantString>(
      std::move(text), types_.pointerTo(types_.charType())));
  return string_constants_.back().get();
}

Undef* Module::undef(const Type* type) {
  auto it = undefs_.find(type);
  if (it != undefs_.end()) return it->second.get();
  auto owned = std::make_unique<Undef>(type);
  Undef* raw = owned.get();
  undefs_[type] = std::move(owned);
  return raw;
}

}  // namespace safeflow::ir
