#include "cfront/types.h"

#include <algorithm>
#include <cassert>

namespace safeflow::cfront {

std::string IntegerType::str() const {
  std::string base;
  switch (bytes_) {
    case 1: base = "char"; break;
    case 2: base = "short"; break;
    case 4: base = "int"; break;
    case 8: base = "long"; break;
    default: base = "int" + std::to_string(bytes_ * 8); break;
  }
  return signed_ ? base : "unsigned " + base;
}

std::string FunctionType::str() const {
  std::string s = ret_->str() + " (";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i != 0) s += ", ";
    s += params_[i]->str();
  }
  if (variadic_) s += params_.empty() ? "..." : ", ...";
  s += ")";
  return s;
}

const StructField* StructType::findField(std::string_view name) const {
  for (const StructField& f : fields_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

int StructType::fieldIndex(std::string_view name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void StructType::complete(std::vector<StructField> fields) {
  // A struct redefinition reaches here only on an already-diagnosed TU
  // (the parser checks isComplete() first); keep the first layout so
  // existing field offsets stay stable.
  if (complete_) return;
  std::uint64_t offset = 0;
  std::uint64_t align = 1;
  for (StructField& f : fields) {
    const std::uint64_t a = std::max<std::uint64_t>(1, f.type->alignment());
    if (is_union_) {
      f.offset = 0;
      offset = std::max(offset, f.type->size());
    } else {
      offset = (offset + a - 1) / a * a;
      f.offset = offset;
      offset += f.type->size();
    }
    align = std::max(align, a);
  }
  size_ = (offset + align - 1) / align * align;
  align_ = align;
  fields_ = std::move(fields);
  complete_ = true;
}

TypeContext::TypeContext() {
  auto add = [this](auto type_ptr) {
    auto* raw = type_ptr.get();
    owned_.push_back(std::move(type_ptr));
    return raw;
  };
  void_ = add(std::make_unique<VoidType>());
  char_ = add(std::make_unique<IntegerType>(1, true));
  short_ = add(std::make_unique<IntegerType>(2, true));
  int_ = add(std::make_unique<IntegerType>(4, true));
  long_ = add(std::make_unique<IntegerType>(8, true));
  uchar_ = add(std::make_unique<IntegerType>(1, false));
  ushort_ = add(std::make_unique<IntegerType>(2, false));
  uint_ = add(std::make_unique<IntegerType>(4, false));
  ulong_ = add(std::make_unique<IntegerType>(8, false));
  float_ = add(std::make_unique<FloatType>(4));
  double_ = add(std::make_unique<FloatType>(8));
}

const IntegerType* TypeContext::integerType(std::uint64_t bytes,
                                            bool is_signed) {
  switch (bytes) {
    case 1: return is_signed ? char_ : uchar_;
    case 2: return is_signed ? short_ : ushort_;
    case 4: return is_signed ? int_ : uint_;
    default: return is_signed ? long_ : ulong_;
  }
}

const PointerType* TypeContext::pointerTo(const Type* pointee) {
  auto it = pointers_.find(pointee);
  if (it != pointers_.end()) return it->second;
  auto owned = std::make_unique<PointerType>(pointee);
  const PointerType* raw = owned.get();
  owned_.push_back(std::move(owned));
  pointers_[pointee] = raw;
  return raw;
}

const ArrayType* TypeContext::arrayOf(const Type* element,
                                      std::uint64_t count) {
  const auto key = std::make_pair(element, count);
  auto it = arrays_.find(key);
  if (it != arrays_.end()) return it->second;
  auto owned = std::make_unique<ArrayType>(element, count);
  const ArrayType* raw = owned.get();
  owned_.push_back(std::move(owned));
  arrays_[key] = raw;
  return raw;
}

const FunctionType* TypeContext::functionType(
    const Type* ret, std::vector<const Type*> params, bool variadic) {
  for (const FunctionType* ft : function_types_) {
    if (ft->returnType() == ret && ft->params() == params &&
        ft->isVariadic() == variadic) {
      return ft;
    }
  }
  auto owned =
      std::make_unique<FunctionType>(ret, std::move(params), variadic);
  const FunctionType* raw = owned.get();
  owned_.push_back(std::move(owned));
  function_types_.push_back(raw);
  return raw;
}

std::string TypeContext::nextAnonymousTag() {
  return "<anon" + std::to_string(anonymous_tags_++) + ">";
}

StructType* TypeContext::getOrCreateStruct(const std::string& tag) {
  auto it = structs_.find(tag);
  if (it != structs_.end()) return it->second;
  auto owned = std::make_unique<StructType>(tag);
  StructType* raw = owned.get();
  owned_.push_back(std::move(owned));
  structs_[tag] = raw;
  return raw;
}

const StructType* TypeContext::findStruct(const std::string& tag) const {
  auto it = structs_.find(tag);
  return it == structs_.end() ? nullptr : it->second;
}

bool typesCompatible(const Type* to, const Type* from) {
  if (to == from) return true;
  if (to == nullptr || from == nullptr) return false;
  if (to->isArithmetic() && from->isArithmetic()) return true;
  if (to->isPointer() && from->isPointer()) {
    const Type* tp = static_cast<const PointerType*>(to)->pointee();
    const Type* fp = static_cast<const PointerType*>(from)->pointee();
    if (tp->isVoid() || fp->isVoid()) return true;
    if (tp == fp) return true;
    // char* may view any object representation.
    if (tp->isInteger() && tp->size() == 1) return true;
    return false;
  }
  // Array-to-pointer decay.
  if (to->isPointer() && from->isArray()) {
    const Type* tp = static_cast<const PointerType*>(to)->pointee();
    const Type* elem = static_cast<const ArrayType*>(from)->element();
    return tp == elem || tp->isVoid();
  }
  return false;
}

}  // namespace safeflow::cfront
