// Type system for the C subset. Types are immutable, uniqued, and owned by
// a TypeContext; code passes `const Type*` freely. Layout (sizes, field
// offsets) follows a conventional LP64 target: char=1, short=2, int=4,
// long=8, float=4, double=8, pointers=8.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace safeflow::cfront {

class TypeContext;

class Type {
 public:
  enum class Kind {
    kVoid,
    kInteger,
    kFloat,
    kPointer,
    kArray,
    kStruct,
    kFunction,
  };

  virtual ~Type() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isVoid() const { return kind_ == Kind::kVoid; }
  [[nodiscard]] bool isInteger() const { return kind_ == Kind::kInteger; }
  [[nodiscard]] bool isFloat() const { return kind_ == Kind::kFloat; }
  [[nodiscard]] bool isPointer() const { return kind_ == Kind::kPointer; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool isStruct() const { return kind_ == Kind::kStruct; }
  [[nodiscard]] bool isFunction() const { return kind_ == Kind::kFunction; }
  [[nodiscard]] bool isArithmetic() const {
    return isInteger() || isFloat();
  }
  [[nodiscard]] bool isScalar() const {
    return isArithmetic() || isPointer();
  }

  /// Size in bytes; 0 for void and function types.
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  [[nodiscard]] virtual std::uint64_t alignment() const { return size(); }
  [[nodiscard]] virtual std::string str() const = 0;

 protected:
  explicit Type(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

class VoidType final : public Type {
 public:
  VoidType() : Type(Kind::kVoid) {}
  [[nodiscard]] std::uint64_t size() const override { return 0; }
  [[nodiscard]] std::uint64_t alignment() const override { return 1; }
  [[nodiscard]] std::string str() const override { return "void"; }
};

class IntegerType final : public Type {
 public:
  IntegerType(std::uint64_t bytes, bool is_signed)
      : Type(Kind::kInteger), bytes_(bytes), signed_(is_signed) {}
  [[nodiscard]] std::uint64_t size() const override { return bytes_; }
  [[nodiscard]] bool isSigned() const { return signed_; }
  [[nodiscard]] std::string str() const override;

 private:
  std::uint64_t bytes_;
  bool signed_;
};

class FloatType final : public Type {
 public:
  explicit FloatType(std::uint64_t bytes)
      : Type(Kind::kFloat), bytes_(bytes) {}
  [[nodiscard]] std::uint64_t size() const override { return bytes_; }
  [[nodiscard]] std::string str() const override {
    return bytes_ == 4 ? "float" : "double";
  }

 private:
  std::uint64_t bytes_;
};

class PointerType final : public Type {
 public:
  explicit PointerType(const Type* pointee)
      : Type(Kind::kPointer), pointee_(pointee) {}
  [[nodiscard]] const Type* pointee() const { return pointee_; }
  [[nodiscard]] std::uint64_t size() const override { return 8; }
  [[nodiscard]] std::string str() const override {
    return pointee_->str() + "*";
  }

 private:
  const Type* pointee_;
};

class ArrayType final : public Type {
 public:
  ArrayType(const Type* element, std::uint64_t count)
      : Type(Kind::kArray), element_(element), count_(count) {}
  [[nodiscard]] const Type* element() const { return element_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t size() const override {
    return element_->size() * count_;
  }
  [[nodiscard]] std::uint64_t alignment() const override {
    return element_->alignment();
  }
  [[nodiscard]] std::string str() const override {
    return element_->str() + "[" + std::to_string(count_) + "]";
  }

 private:
  const Type* element_;
  std::uint64_t count_;
};

struct StructField {
  std::string name;
  const Type* type = nullptr;
  std::uint64_t offset = 0;
};

/// Struct types are created by name first (to allow self-referential
/// pointers) and completed once their fields are parsed.
class StructType final : public Type {
 public:
  explicit StructType(std::string name)
      : Type(Kind::kStruct), name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool isComplete() const { return complete_; }
  [[nodiscard]] const std::vector<StructField>& fields() const {
    return fields_;
  }
  [[nodiscard]] const StructField* findField(std::string_view name) const;
  /// Index of a field by name, or -1.
  [[nodiscard]] int fieldIndex(std::string_view name) const;

  /// Unions share the struct representation but lay every member at
  /// offset 0; the points-to layer models their members as overlapping
  /// cells (Miné-style) instead of giving up.
  [[nodiscard]] bool isUnion() const { return is_union_; }
  void markUnion() { is_union_ = true; }

  /// Lays out fields with natural alignment and marks the type complete.
  /// Union members all get offset 0 and the size is the widest member.
  void complete(std::vector<StructField> fields);

  [[nodiscard]] std::uint64_t size() const override { return size_; }
  [[nodiscard]] std::uint64_t alignment() const override { return align_; }
  [[nodiscard]] std::string str() const override {
    return "struct " + name_;
  }

 private:
  std::string name_;
  std::vector<StructField> fields_;
  std::uint64_t size_ = 0;
  std::uint64_t align_ = 1;
  bool complete_ = false;
  bool is_union_ = false;
};

class FunctionType final : public Type {
 public:
  FunctionType(const Type* ret, std::vector<const Type*> params,
               bool variadic)
      : Type(Kind::kFunction),
        ret_(ret),
        params_(std::move(params)),
        variadic_(variadic) {}

  [[nodiscard]] const Type* returnType() const { return ret_; }
  [[nodiscard]] const std::vector<const Type*>& params() const {
    return params_;
  }
  [[nodiscard]] bool isVariadic() const { return variadic_; }
  [[nodiscard]] std::uint64_t size() const override { return 0; }
  [[nodiscard]] std::uint64_t alignment() const override { return 1; }
  [[nodiscard]] std::string str() const override;

 private:
  const Type* ret_;
  std::vector<const Type*> params_;
  bool variadic_;
};

/// Owns and uniques all types for one translation unit set.
class TypeContext {
 public:
  TypeContext();
  TypeContext(const TypeContext&) = delete;
  TypeContext& operator=(const TypeContext&) = delete;

  [[nodiscard]] const VoidType* voidType() const { return void_; }
  [[nodiscard]] const IntegerType* charType() const { return char_; }
  [[nodiscard]] const IntegerType* shortType() const { return short_; }
  [[nodiscard]] const IntegerType* intType() const { return int_; }
  [[nodiscard]] const IntegerType* longType() const { return long_; }
  [[nodiscard]] const IntegerType* ucharType() const { return uchar_; }
  [[nodiscard]] const IntegerType* ushortType() const { return ushort_; }
  [[nodiscard]] const IntegerType* uintType() const { return uint_; }
  [[nodiscard]] const IntegerType* ulongType() const { return ulong_; }
  [[nodiscard]] const FloatType* floatType() const { return float_; }
  [[nodiscard]] const FloatType* doubleType() const { return double_; }

  const IntegerType* integerType(std::uint64_t bytes, bool is_signed);
  const PointerType* pointerTo(const Type* pointee);
  const ArrayType* arrayOf(const Type* element, std::uint64_t count);
  const FunctionType* functionType(const Type* ret,
                                   std::vector<const Type*> params,
                                   bool variadic);

  /// Returns the struct with this tag, creating an incomplete one if new.
  StructType* getOrCreateStruct(const std::string& tag);
  [[nodiscard]] const StructType* findStruct(const std::string& tag) const;
  /// Tag for the next anonymous struct or union: "<anon0>", "<anon1>", ...
  /// Numbered per context, so the names a run prints do not depend on
  /// what the process parsed before it.
  std::string nextAnonymousTag();

 private:
  std::vector<std::unique_ptr<Type>> owned_;
  const VoidType* void_;
  const IntegerType* char_;
  const IntegerType* short_;
  const IntegerType* int_;
  const IntegerType* long_;
  const IntegerType* uchar_;
  const IntegerType* ushort_;
  const IntegerType* uint_;
  const IntegerType* ulong_;
  const FloatType* float_;
  const FloatType* double_;
  std::map<const Type*, const PointerType*> pointers_;
  std::map<std::pair<const Type*, std::uint64_t>, const ArrayType*> arrays_;
  std::map<std::string, StructType*> structs_;
  std::vector<const FunctionType*> function_types_;
  unsigned anonymous_tags_ = 0;
};

/// True when a value of `from` may be assigned/cast to `to` without the
/// paper's P3 "incompatible cast" restriction firing (same type, both
/// arithmetic, pointer to same pointee, or either side void*).
[[nodiscard]] bool typesCompatible(const Type* to, const Type* from);

}  // namespace safeflow::cfront
