#include "analysis/summaries.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "analysis/alias.h"

namespace safeflow::analysis {

namespace {

void hashBytes(support::Fnv1a& h, std::string_view s) { hashToken(h, s); }

void hashNum(support::Fnv1a& h, std::int64_t v) {
  hashBytes(h, std::to_string(v));
}

void hashUNum(support::Fnv1a& h, std::uint64_t v) {
  hashBytes(h, std::to_string(v));
}

}  // namespace

// ---------------------------------------------------------------------------
// Positional value naming
// ---------------------------------------------------------------------------

ValueIndex::ValueIndex(const ir::Function& fn) {
  for (const auto& arg : fn.args()) {
    ids_[arg] = static_cast<int>(values_.size());
    values_.push_back(arg);
  }
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      ids_[inst] = static_cast<int>(values_.size());
      values_.push_back(inst);
    }
  }
}

int ValueIndex::idOf(const ir::Value* v) const {
  const auto it = ids_.find(v);
  return it == ids_.end() ? -1 : it->second;
}

ModuleIndex::ModuleIndex(const ir::Module& module) {
  for (const auto& fn : module.functions()) {
    by_name_[std::string(fn->name())] = fn;
    if (!fn->isDefined()) continue;
    const auto [it, inserted] = indexes_.emplace(fn, ValueIndex(*fn));
    const auto& values = it->second.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      owners_[values[i]] = {fn, static_cast<int>(i)};
    }
  }
}

const ValueIndex& ModuleIndex::of(const ir::Function& fn) const {
  const auto it = indexes_.find(&fn);
  return it == indexes_.end() ? empty_ : it->second;
}

std::pair<const ir::Function*, int> ModuleIndex::locate(
    const ir::Value* v) const {
  const auto it = owners_.find(v);
  return it == owners_.end() ? std::pair<const ir::Function*, int>{nullptr, -1}
                             : it->second;
}

const ir::Value* ModuleIndex::resolve(const std::string& fn_name,
                                      int id) const {
  const ir::Function* fn = function(fn_name);
  if (fn == nullptr || id < 0) return nullptr;
  const auto& values = of(*fn).values();
  if (static_cast<std::size_t>(id) >= values.size()) return nullptr;
  return values[static_cast<std::size_t>(id)];
}

const ir::Function* ModuleIndex::function(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Canonical hashing
// ---------------------------------------------------------------------------

void hashType(const ir::Type* type, support::Fnv1a& h, int depth) {
  if (type == nullptr) {
    hashBytes(h, "t:null");
    return;
  }
  hashNum(h, static_cast<int>(type->kind()));
  hashUNum(h, type->size());
  // Beyond the depth limit only kind+size are observable; a deeper layout
  // edit that matters to an analysis necessarily changes a size or field
  // offset within the hashed depth.
  if (depth >= 4) return;
  switch (type->kind()) {
    case cfront::Type::Kind::kInteger:
      hashNum(h,
              static_cast<const cfront::IntegerType*>(type)->isSigned() ? 1
                                                                        : 0);
      return;
    case cfront::Type::Kind::kPointer:
      hashType(static_cast<const cfront::PointerType*>(type)->pointee(), h,
               depth + 1);
      return;
    case cfront::Type::Kind::kArray: {
      const auto* at = static_cast<const cfront::ArrayType*>(type);
      hashUNum(h, at->count());
      hashType(at->element(), h, depth + 1);
      return;
    }
    case cfront::Type::Kind::kStruct: {
      const auto* st = static_cast<const cfront::StructType*>(type);
      hashBytes(h, st->name());
      for (const auto& f : st->fields()) {
        hashBytes(h, f.name);
        hashUNum(h, f.offset);
        hashType(f.type, h, depth + 1);
      }
      return;
    }
    case cfront::Type::Kind::kFunction: {
      const auto* ft = static_cast<const cfront::FunctionType*>(type);
      hashType(ft->returnType(), h, depth + 1);
      for (const auto* p : ft->params()) hashType(p, h, depth + 1);
      hashNum(h, ft->isVariadic() ? 1 : 0);
      return;
    }
    default:
      return;
  }
}

namespace {

void hashOperand(const ir::Value* v, const ValueIndex& vi,
                 support::Fnv1a& h) {
  switch (v->kind()) {
    case ir::Value::Kind::kConstantInt:
      hashBytes(h, "ci");
      hashNum(h, static_cast<const ir::ConstantInt*>(v)->value());
      hashType(v->type(), h);
      return;
    case ir::Value::Kind::kConstantFloat: {
      // %a prints the exact bit pattern, so two different constants can
      // never hash alike the way rounded decimal could make them.
      char buf[48];
      std::snprintf(buf, sizeof buf, "%a",
                    static_cast<const ir::ConstantFloat*>(v)->value());
      hashBytes(h, "cf");
      hashBytes(h, buf);
      return;
    }
    case ir::Value::Kind::kConstantString:
      hashBytes(h, "cs");
      hashBytes(h, static_cast<const ir::ConstantString*>(v)->text());
      return;
    case ir::Value::Kind::kGlobalVar:
      hashBytes(h, "g");
      hashBytes(h, v->name());
      hashType(static_cast<const ir::GlobalVar*>(v)->valueType(), h);
      return;
    case ir::Value::Kind::kFunction:
      hashBytes(h, "f");
      hashBytes(h, v->name());
      return;
    case ir::Value::Kind::kUndef:
      hashBytes(h, "undef");
      return;
    default:
      // Function-local argument or instruction: positional reference.
      hashBytes(h, "v");
      hashNum(h, vi.idOf(v));
      return;
  }
}

}  // namespace

void hashFunction(const ir::Function& fn, support::Fnv1a& h) {
  const ValueIndex vi(fn);
  hashBytes(h, "fn");
  hashBytes(h, fn.name());
  hashNum(h, fn.annotations.is_shminit ? 1 : 0);
  hashNum(h, fn.annotations.is_monitor ? 1 : 0);
  hashType(fn.functionType(), h);
  for (const auto& arg : fn.args()) hashType(arg->type(), h);

  std::map<const ir::BasicBlock*, int> block_ids;
  int next_block = 0;
  for (const auto& bb : fn.blocks()) block_ids[bb] = next_block++;

  for (const auto& bb : fn.blocks()) {
    hashBytes(h, "b");
    hashNum(h, block_ids[bb]);
    for (const auto& inst : bb->instructions()) {
      hashNum(h, static_cast<int>(inst->opcode()));
      hashType(inst->type(), h);
      switch (inst->opcode()) {
        case ir::Opcode::kAlloca:
          hashType(inst->allocated_type, h);
          break;
        case ir::Opcode::kBinOp:
          hashNum(h, static_cast<int>(inst->bin_op));
          break;
        case ir::Opcode::kUnOp:
          hashNum(h, static_cast<int>(inst->un_op));
          break;
        case ir::Opcode::kCmp:
          hashNum(h, static_cast<int>(inst->cmp_op));
          break;
        case ir::Opcode::kFieldAddr:
          hashNum(h, inst->field_index);
          break;
        case ir::Opcode::kCall:
          hashBytes(h, inst->direct_callee != nullptr
                           ? inst->direct_callee->name()
                           : std::string());
          break;
        default:
          break;
      }
      for (const ir::Value* op : inst->operands()) hashOperand(op, vi, h);
      for (const ir::BasicBlock* ref : inst->block_refs) {
        hashNum(h, block_ids[ref]);
      }
    }
  }
}

FunctionKeyMap computeFunctionKeys(const ir::Module& module,
                                   const ir::CallGraph& callgraph,
                                   std::string_view config_fingerprint) {
  (void)module;
  FunctionKeyMap keys;
  for (const auto& scc : callgraph.sccsBottomUp()) {
    std::vector<const ir::Function*> members;
    for (const ir::Function* fn : scc) {
      if (fn->isDefined() && !fn->isIntrinsic()) members.push_back(fn);
    }
    if (members.empty()) continue;
    std::sort(members.begin(), members.end(),
              [](const ir::Function* a, const ir::Function* b) {
                return a->name() < b->name();
              });
    const std::set<const ir::Function*> in_scc(scc.begin(), scc.end());

    support::Fnv1a component;
    hashBytes(component, config_fingerprint);
    // Callee keys go into a sorted set: the component hash must not
    // depend on callee iteration order, only on the set of dependencies.
    std::set<std::string> callee_keys;
    for (const ir::Function* fn : members) {
      hashBytes(component, fn->name());
      hashFunction(*fn, component);
      for (const ir::Function* callee : callgraph.callees(fn)) {
        if (in_scc.count(callee) != 0) continue;
        const auto it = keys.find(callee);
        callee_keys.insert(it != keys.end() ? it->second
                                            : "external:" +
                                                  std::string(callee->name()));
      }
    }
    for (const std::string& k : callee_keys) hashBytes(component, k);

    // Members of one SCC share the component hash (they are solved as a
    // unit) but need distinct store keys.
    const std::string component_hex = component.hex();
    for (const ir::Function* fn : members) {
      support::Fnv1a kh;
      kh.update(component_hex);
      kh.update("/");
      kh.update(fn->name());
      keys[fn] = kh.hex();
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Blob codec
// ---------------------------------------------------------------------------

void BlobWriter::u64(std::uint64_t v) {
  out_ += "u ";
  out_ += std::to_string(v);
  out_ += '\n';
}

void BlobWriter::i64(std::int64_t v) {
  out_ += "i ";
  out_ += std::to_string(v);
  out_ += '\n';
}

void BlobWriter::str(std::string_view s) {
  out_ += "s ";
  out_ += std::to_string(s.size());
  out_ += '\n';
  out_.append(s);
}

std::string_view BlobReader::token() {
  if (!ok_) return {};
  const auto nl = data_.find('\n', pos_);
  if (nl == std::string_view::npos) {
    ok_ = false;
    return {};
  }
  const auto line = data_.substr(pos_, nl - pos_);
  pos_ = nl + 1;
  return line;
}

namespace {

bool parseDigits(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::uint64_t BlobReader::u64() {
  const auto line = token();
  std::uint64_t v = 0;
  if (!ok_ || line.size() < 2 || line[0] != 'u' || line[1] != ' ' ||
      !parseDigits(line.substr(2), &v)) {
    ok_ = false;
    return 0;
  }
  return v;
}

std::int64_t BlobReader::i64() {
  const auto line = token();
  if (!ok_ || line.size() < 2 || line[0] != 'i' || line[1] != ' ') {
    ok_ = false;
    return 0;
  }
  auto body = line.substr(2);
  const bool negative = !body.empty() && body[0] == '-';
  if (negative) body = body.substr(1);
  std::uint64_t mag = 0;
  if (!parseDigits(body, &mag)) {
    ok_ = false;
    return 0;
  }
  return negative ? -static_cast<std::int64_t>(mag)
                  : static_cast<std::int64_t>(mag);
}

std::string BlobReader::str() {
  const auto line = token();
  std::uint64_t len = 0;
  if (!ok_ || line.size() < 2 || line[0] != 's' || line[1] != ' ' ||
      !parseDigits(line.substr(2), &len) ||
      pos_ + len > data_.size()) {
    ok_ = false;
    return {};
  }
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// ---------------------------------------------------------------------------
// Stable object naming
// ---------------------------------------------------------------------------

std::string stableObjectName(const AliasAnalysis& alias,
                             const ModuleIndex& index, ObjId obj) {
  if (obj < 0) return "-";
  switch (alias.kindOf(obj)) {
    case AliasAnalysis::ObjKind::kUnknown:
      return "?";
    case AliasAnalysis::ObjKind::kRegion:
      return "R" + std::to_string(alias.regionOf(obj));
    case AliasAnalysis::ObjKind::kGlobal: {
      const ir::Value* g = alias.anchorOf(obj);
      return "G" + std::string(g != nullptr ? g->name() : "?");
    }
    case AliasAnalysis::ObjKind::kAlloca: {
      const auto [fn, id] = index.locate(alias.anchorOf(obj));
      return "A" + std::string(fn != nullptr ? fn->name() : "?") + "#" +
             std::to_string(id);
    }
    case AliasAnalysis::ObjKind::kField: {
      // Field index plus exact byte extent: the Andersen engine can hold
      // several offset cells behind one declared field index (byte
      // views, union punning), and names must stay injective.
      const auto [off, size] = alias.extentOf(obj);
      return stableObjectName(alias, index, alias.parentOf(obj)) + ".f" +
             std::to_string(alias.fieldIndexOf(obj)) + "@" +
             std::to_string(off) + ":" + std::to_string(size);
    }
  }
  return "?";
}

}  // namespace safeflow::analysis
