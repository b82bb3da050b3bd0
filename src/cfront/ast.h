// Abstract syntax tree for the C subset. Expression nodes carry the type
// computed by the parser.
//
// Ownership: every node (Expr, Stmt, VarDecl, FunctionDecl) comes from the
// arena of its TranslationUnit, a std::pmr::monotonic_buffer_resource, and
// links to its children by plain pointers. Child lists (statements,
// arguments, initializer items, parameters, declarations, annotations) are
// exact-size arena arrays behind a std::span. No node's destructor ever
// runs, so every node type must be trivially destructible
// (TranslationUnit::create checks it): destroying the unit frees a few
// chunks. Spellings (declaration, member
// and annotation names, annotation texts, string literals) are views into
// the SourceManager's buffers, as token spellings are; a string the parser
// builds itself (adjacent string literals joined) is copied into the
// arena. A view never points anywhere else.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory_resource>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cfront/types.h"
#include "support/source_location.h"

namespace safeflow::cfront {

using support::SourceLocation;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class UnaryOp {
  kNeg,      // -x
  kLogNot,   // !x
  kBitNot,   // ~x
  kAddrOf,   // &x
  kDeref,    // *x
  kPreInc,
  kPreDec,
  kPostInc,
  kPostDec,
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kRem,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kLt, kGt, kLe, kGe, kEq, kNe,
  kLogAnd, kLogOr,
  kComma,
};

class Expr {
 public:
  enum class Kind {
    kIntLit, kFloatLit, kStringLit,
    kDeclRef, kUnary, kBinary, kAssign, kConditional,
    kCall, kSubscript, kMember, kCast, kSizeof, kInitList,
  };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }

 protected:
  Expr(Kind kind, const Type* type, SourceLocation loc)
      : kind_(kind), type_(type), loc_(loc) {}
  // Not virtual: nothing deletes a node through a base pointer.
  ~Expr() = default;

 private:
  Kind kind_;
  const Type* type_;
  SourceLocation loc_;
};

class IntLitExpr final : public Expr {
 public:
  IntLitExpr(std::int64_t value, const Type* type, SourceLocation loc)
      : Expr(Kind::kIntLit, type, loc), value_(value) {}
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_;
};

class FloatLitExpr final : public Expr {
 public:
  FloatLitExpr(double value, const Type* type, SourceLocation loc)
      : Expr(Kind::kFloatLit, type, loc), value_(value) {}
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_;
};

class StringLitExpr final : public Expr {
 public:
  StringLitExpr(std::string_view value, const Type* type, SourceLocation loc)
      : Expr(Kind::kStringLit, type, loc), value_(value) {}
  [[nodiscard]] std::string_view value() const { return value_; }

 private:
  std::string_view value_;
};

class ValueDecl;  // VarDecl or FunctionDecl

class DeclRefExpr final : public Expr {
 public:
  DeclRefExpr(const ValueDecl* decl, const Type* type, SourceLocation loc)
      : Expr(Kind::kDeclRef, type, loc), decl_(decl) {}
  [[nodiscard]] const ValueDecl* decl() const { return decl_; }

 private:
  const ValueDecl* decl_;
};

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, const Expr* operand, const Type* type,
            SourceLocation loc)
      : Expr(Kind::kUnary, type, loc), op_(op), operand_(operand) {}
  [[nodiscard]] UnaryOp op() const { return op_; }
  [[nodiscard]] const Expr* operand() const { return operand_; }

 private:
  UnaryOp op_;
  const Expr* operand_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, const Expr* lhs, const Expr* rhs, const Type* type,
             SourceLocation loc)
      : Expr(Kind::kBinary, type, loc),
        op_(op),
        lhs_(lhs),
        rhs_(rhs) {}
  [[nodiscard]] BinaryOp op() const { return op_; }
  [[nodiscard]] const Expr* lhs() const { return lhs_; }
  [[nodiscard]] const Expr* rhs() const { return rhs_; }

 private:
  BinaryOp op_;
  const Expr* lhs_;
  const Expr* rhs_;
};

/// Assignment, including compound assignment (op != nullopt encodes `lhs op=
/// rhs` with the arithmetic op).
class AssignExpr final : public Expr {
 public:
  AssignExpr(const Expr* lhs, const Expr* rhs,
             std::optional<BinaryOp> compound_op,
             const Type* type, SourceLocation loc)
      : Expr(Kind::kAssign, type, loc),
        lhs_(lhs),
        rhs_(rhs),
        compound_op_(compound_op) {}
  [[nodiscard]] const Expr* lhs() const { return lhs_; }
  [[nodiscard]] const Expr* rhs() const { return rhs_; }
  [[nodiscard]] std::optional<BinaryOp> compoundOp() const {
    return compound_op_;
  }

 private:
  const Expr* lhs_;
  const Expr* rhs_;
  std::optional<BinaryOp> compound_op_;
};

class ConditionalExpr final : public Expr {
 public:
  ConditionalExpr(const Expr* cond, const Expr* then, const Expr* otherwise,
                  const Type* type, SourceLocation loc)
      : Expr(Kind::kConditional, type, loc),
        cond_(cond),
        then_(then),
        else_(otherwise) {}
  [[nodiscard]] const Expr* cond() const { return cond_; }
  [[nodiscard]] const Expr* thenExpr() const { return then_; }
  [[nodiscard]] const Expr* elseExpr() const { return else_; }

 private:
  const Expr* cond_;
  const Expr* then_;
  const Expr* else_;
};

class CallExpr final : public Expr {
 public:
  CallExpr(const Expr* callee, std::span<const Expr* const> args,
           const Type* type, SourceLocation loc)
      : Expr(Kind::kCall, type, loc), callee_(callee), args_(args) {}
  [[nodiscard]] const Expr* callee() const { return callee_; }
  [[nodiscard]] std::span<const Expr* const> args() const { return args_; }

 private:
  const Expr* callee_;
  std::span<const Expr* const> args_;
};

class SubscriptExpr final : public Expr {
 public:
  SubscriptExpr(const Expr* base, const Expr* index, const Type* type,
                SourceLocation loc)
      : Expr(Kind::kSubscript, type, loc),
        base_(base),
        index_(index) {}
  [[nodiscard]] const Expr* base() const { return base_; }
  [[nodiscard]] const Expr* index() const { return index_; }

 private:
  const Expr* base_;
  const Expr* index_;
};

class MemberExpr final : public Expr {
 public:
  MemberExpr(const Expr* base, std::string_view member, bool is_arrow,
             const Type* type, SourceLocation loc)
      : Expr(Kind::kMember, type, loc),
        base_(base),
        member_(member),
        is_arrow_(is_arrow) {}
  [[nodiscard]] const Expr* base() const { return base_; }
  [[nodiscard]] std::string_view member() const { return member_; }
  [[nodiscard]] bool isArrow() const { return is_arrow_; }

 private:
  const Expr* base_;
  std::string_view member_;
  bool is_arrow_;
};

class CastExpr final : public Expr {
 public:
  CastExpr(const Expr* operand, const Type* type, SourceLocation loc)
      : Expr(Kind::kCast, type, loc), operand_(operand) {}
  [[nodiscard]] const Expr* operand() const { return operand_; }

 private:
  const Expr* operand_;
};

/// Brace-enclosed initializer list: {a, b, ...}, possibly nested. The
/// node's type is the variable's declared type.
class InitListExpr final : public Expr {
 public:
  InitListExpr(std::span<const Expr* const> items, const Type* type,
               SourceLocation loc)
      : Expr(Kind::kInitList, type, loc), items_(items) {}
  [[nodiscard]] std::span<const Expr* const> items() const { return items_; }

 private:
  std::span<const Expr* const> items_;
};

/// sizeof(type) / sizeof expr, folded to its value at parse time.
class SizeofExpr final : public Expr {
 public:
  SizeofExpr(std::uint64_t value, const Type* of_type, const Type* type,
             SourceLocation loc)
      : Expr(Kind::kSizeof, type, loc), value_(value), of_type_(of_type) {}
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] const Type* measuredType() const { return of_type_; }

 private:
  std::uint64_t value_;
  const Type* of_type_;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

/// A SafeFlow annotation (paper §3.1, §3.2.1), parsed by the Parser where
/// its comment is written:
///
///   assume(core(ptr, offset, size))   monitoring-function fact
///   assert(safe(x))                   critical-data requirement
///   shminit                           shm initializing function marker
///   assume(shmvar(ptr, size))         shm variable post-condition
///   assume(noncore(ptr))              non-core region post-condition
struct Annotation {
  enum class Kind { kAssumeCore, kAssertSafe, kShmInit, kShmVar, kNonCore };
  Kind kind = Kind::kShmInit;
  /// The pointer or value named, resolved by C scope at the annotation;
  /// null for shminit and for a name with no declaration in scope.
  const ValueDecl* decl = nullptr;
  std::string_view name;    // as spelled
  std::int64_t offset = 0;  // core
  std::int64_t size = 0;    // core, shmvar
  std::string_view text;    // the comment body
  SourceLocation location;
};

class ValueDecl {
 public:
  enum class Kind { kVar, kFunction };
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }

 protected:
  ValueDecl(Kind kind, std::string_view name, const Type* type,
            SourceLocation loc)
      : kind_(kind), name_(name), type_(type), loc_(loc) {}
  // Not virtual: nothing deletes a declaration through a base pointer.
  ~ValueDecl() = default;

 private:
  Kind kind_;
  std::string_view name_;
  const Type* type_;
  SourceLocation loc_;
};

enum class StorageKind { kGlobal, kLocal, kParam, kExtern };

class VarDecl final : public ValueDecl {
 public:
  VarDecl(std::string_view name, const Type* type, StorageKind storage,
          SourceLocation loc)
      : ValueDecl(Kind::kVar, name, type, loc), storage_(storage) {}

  [[nodiscard]] StorageKind storage() const { return storage_; }
  [[nodiscard]] const Expr* init() const { return init_; }
  void setInit(const Expr* init) { init_ = init; }

 private:
  StorageKind storage_;
  const Expr* init_ = nullptr;
};

class Stmt;

class FunctionDecl final : public ValueDecl {
 public:
  FunctionDecl(std::string_view name, const FunctionType* type,
               std::span<const VarDecl* const> params, SourceLocation loc)
      : ValueDecl(Kind::kFunction, name, type, loc), params_(params) {}

  [[nodiscard]] const FunctionType* functionType() const {
    return static_cast<const FunctionType*>(type());
  }
  [[nodiscard]] std::span<const VarDecl* const> params() const {
    return params_;
  }
  [[nodiscard]] const Stmt* body() const { return body_; }
  [[nodiscard]] bool isDefined() const { return body_ != nullptr; }
  void setBody(const Stmt* body) { body_ = body; }

  /// Annotations written before the signature or between it and the body
  /// (assume(core), shminit, ...).
  [[nodiscard]] std::span<const Annotation> entryAnnotations() const {
    return entry_annotations_;
  }
  void setEntryAnnotations(std::span<const Annotation> annotations) {
    entry_annotations_ = annotations;
  }

 private:
  std::span<const VarDecl* const> params_;
  const Stmt* body_ = nullptr;
  std::span<const Annotation> entry_annotations_;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

class Stmt {
 public:
  enum class Kind {
    kCompound, kDecl, kExpr, kIf, kWhile, kDo, kFor, kReturn,
    kBreak, kContinue, kSwitch, kCase, kNull, kAnnotation,
  };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }

 protected:
  Stmt(Kind kind, SourceLocation loc) : kind_(kind), loc_(loc) {}
  // Not virtual: nothing deletes a node through a base pointer.
  ~Stmt() = default;

 private:
  Kind kind_;
  SourceLocation loc_;
};

class CompoundStmt final : public Stmt {
 public:
  CompoundStmt(std::span<const Stmt* const> stmts, SourceLocation loc)
      : Stmt(Kind::kCompound, loc), stmts_(stmts) {}
  [[nodiscard]] std::span<const Stmt* const> stmts() const { return stmts_; }

 private:
  std::span<const Stmt* const> stmts_;
};

class DeclStmt final : public Stmt {
 public:
  DeclStmt(std::span<const VarDecl* const> decls, SourceLocation loc)
      : Stmt(Kind::kDecl, loc), decls_(decls) {}
  [[nodiscard]] std::span<const VarDecl* const> decls() const {
    return decls_;
  }

 private:
  std::span<const VarDecl* const> decls_;
};

class ExprStmt final : public Stmt {
 public:
  ExprStmt(const Expr* expr, SourceLocation loc)
      : Stmt(Kind::kExpr, loc), expr_(expr) {}
  [[nodiscard]] const Expr* expr() const { return expr_; }

 private:
  const Expr* expr_;
};

class IfStmt final : public Stmt {
 public:
  IfStmt(const Expr* cond, const Stmt* then, const Stmt* otherwise,
         SourceLocation loc)
      : Stmt(Kind::kIf, loc),
        cond_(cond),
        then_(then),
        else_(otherwise) {}
  [[nodiscard]] const Expr* cond() const { return cond_; }
  [[nodiscard]] const Stmt* thenStmt() const { return then_; }
  [[nodiscard]] const Stmt* elseStmt() const { return else_; }

 private:
  const Expr* cond_;
  const Stmt* then_;
  const Stmt* else_;
};

class WhileStmt final : public Stmt {
 public:
  WhileStmt(const Expr* cond, const Stmt* body, SourceLocation loc)
      : Stmt(Kind::kWhile, loc),
        cond_(cond),
        body_(body) {}
  [[nodiscard]] const Expr* cond() const { return cond_; }
  [[nodiscard]] const Stmt* body() const { return body_; }

 private:
  const Expr* cond_;
  const Stmt* body_;
};

class DoStmt final : public Stmt {
 public:
  DoStmt(const Stmt* body, const Expr* cond, SourceLocation loc)
      : Stmt(Kind::kDo, loc), body_(body), cond_(cond) {}
  [[nodiscard]] const Stmt* body() const { return body_; }
  [[nodiscard]] const Expr* cond() const { return cond_; }

 private:
  const Stmt* body_;
  const Expr* cond_;
};

class ForStmt final : public Stmt {
 public:
  ForStmt(const Stmt* init, const Expr* cond, const Expr* step,
          const Stmt* body,
          SourceLocation loc)
      : Stmt(Kind::kFor, loc),
        init_(init),
        cond_(cond),
        step_(step),
        body_(body) {}
  [[nodiscard]] const Stmt* init() const { return init_; }
  [[nodiscard]] const Expr* cond() const { return cond_; }
  [[nodiscard]] const Expr* step() const { return step_; }
  [[nodiscard]] const Stmt* body() const { return body_; }

 private:
  const Stmt* init_;
  const Expr* cond_;
  const Expr* step_;
  const Stmt* body_;
};

class ReturnStmt final : public Stmt {
 public:
  ReturnStmt(const Expr* value, SourceLocation loc)
      : Stmt(Kind::kReturn, loc), value_(value) {}
  [[nodiscard]] const Expr* value() const { return value_; }

 private:
  const Expr* value_;
};

class BreakStmt final : public Stmt {
 public:
  explicit BreakStmt(SourceLocation loc) : Stmt(Kind::kBreak, loc) {}
};

class ContinueStmt final : public Stmt {
 public:
  explicit ContinueStmt(SourceLocation loc) : Stmt(Kind::kContinue, loc) {}
};

class CaseStmt final : public Stmt {
 public:
  /// is_default when this is `default:`. Body statements run until the next
  /// case or the end of the switch (fallthrough is represented naturally).
  CaseStmt(std::optional<std::int64_t> value, SourceLocation loc)
      : Stmt(Kind::kCase, loc), value_(value) {}
  [[nodiscard]] bool isDefault() const { return !value_.has_value(); }
  [[nodiscard]] std::int64_t value() const { return *value_; }

 private:
  std::optional<std::int64_t> value_;
};

class SwitchStmt final : public Stmt {
 public:
  SwitchStmt(const Expr* cond, const Stmt* body, SourceLocation loc)
      : Stmt(Kind::kSwitch, loc),
        cond_(cond),
        body_(body) {}
  [[nodiscard]] const Expr* cond() const { return cond_; }
  [[nodiscard]] const Stmt* body() const { return body_; }

 private:
  const Expr* cond_;
  const Stmt* body_;
};

class NullStmt final : public Stmt {
 public:
  explicit NullStmt(SourceLocation loc) : Stmt(Kind::kNull, loc) {}
};

/// A SafeFlow annotation in statement position (assert(safe(x)),
/// shmvar/noncore post-conditions).
class AnnotationStmt final : public Stmt {
 public:
  AnnotationStmt(const Annotation& annotation, SourceLocation loc)
      : Stmt(Kind::kAnnotation, loc), annotation_(annotation) {}
  [[nodiscard]] const Annotation& annotation() const { return annotation_; }

 private:
  Annotation annotation_;
};

// ---------------------------------------------------------------------------
// Translation unit
// ---------------------------------------------------------------------------

class TranslationUnit {
 public:
  explicit TranslationUnit(TypeContext& types) : types_(types) {}
  TranslationUnit(const TranslationUnit&) = delete;
  TranslationUnit& operator=(const TranslationUnit&) = delete;

  [[nodiscard]] TypeContext& types() const { return types_; }
  [[nodiscard]] const std::vector<const VarDecl*>& globals() const {
    return globals_;
  }
  [[nodiscard]] const std::vector<const FunctionDecl*>& functions() const {
    return functions_;
  }
  [[nodiscard]] const std::map<std::string, const Type*>& typedefs() const {
    return typedefs_;
  }

  /// Constructs a node in the arena. Its destructor never runs.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "an AST node may own nothing outside the arena");
    return ::new (arena_.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }
  /// An exact-size arena copy of `items`.
  template <typename T>
  std::span<const T> copy(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    if (items.empty()) return {};
    T* out = static_cast<T*>(
        arena_.allocate(items.size_bytes(), alignof(T)));
    std::memcpy(static_cast<void*>(out), items.data(), items.size_bytes());
    return {out, items.size()};
  }
  /// An arena copy of a string the parser built.
  std::string_view copyString(std::string_view text) {
    const auto chars = copy(std::span<const char>(text));
    return {chars.data(), chars.size()};
  }

  void addGlobal(const VarDecl* var) { globals_.push_back(var); }
  void addFunction(const FunctionDecl* fn) { functions_.push_back(fn); }
  void addTypedef(std::string_view name, const Type* type) {
    typedefs_.insert_or_assign(std::string(name), type);
  }

  [[nodiscard]] const FunctionDecl* findFunction(std::string_view name) const;
  [[nodiscard]] const VarDecl* findGlobal(std::string_view name) const;

 private:
  TypeContext& types_;
  // Declared before the lists that point into it.
  std::pmr::monotonic_buffer_resource arena_;
  std::vector<const VarDecl*> globals_;
  std::vector<const FunctionDecl*> functions_;
  std::map<std::string, const Type*> typedefs_;
};

}  // namespace safeflow::cfront
