// Abstract syntax tree for the C subset. Nodes are owned by unique_ptr
// links from their parents; the TranslationUnit owns top-level decls.
// Expression nodes carry the type computed by the parser.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
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

  virtual ~Expr() = default;
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }

 protected:
  Expr(Kind kind, const Type* type, SourceLocation loc)
      : kind_(kind), type_(type), loc_(loc) {}

 private:
  Kind kind_;
  const Type* type_;
  SourceLocation loc_;
};

using ExprPtr = std::unique_ptr<Expr>;

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
  StringLitExpr(std::string value, const Type* type, SourceLocation loc)
      : Expr(Kind::kStringLit, type, loc), value_(std::move(value)) {}
  [[nodiscard]] const std::string& value() const { return value_; }

 private:
  std::string value_;
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
  UnaryExpr(UnaryOp op, ExprPtr operand, const Type* type,
            SourceLocation loc)
      : Expr(Kind::kUnary, type, loc), op_(op), operand_(std::move(operand)) {}
  [[nodiscard]] UnaryOp op() const { return op_; }
  [[nodiscard]] const Expr* operand() const { return operand_.get(); }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs, const Type* type,
             SourceLocation loc)
      : Expr(Kind::kBinary, type, loc),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}
  [[nodiscard]] BinaryOp op() const { return op_; }
  [[nodiscard]] const Expr* lhs() const { return lhs_.get(); }
  [[nodiscard]] const Expr* rhs() const { return rhs_.get(); }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Assignment, including compound assignment (op != nullopt encodes `lhs op=
/// rhs` with the arithmetic op).
class AssignExpr final : public Expr {
 public:
  AssignExpr(ExprPtr lhs, ExprPtr rhs, std::optional<BinaryOp> compound_op,
             const Type* type, SourceLocation loc)
      : Expr(Kind::kAssign, type, loc),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)),
        compound_op_(compound_op) {}
  [[nodiscard]] const Expr* lhs() const { return lhs_.get(); }
  [[nodiscard]] const Expr* rhs() const { return rhs_.get(); }
  [[nodiscard]] std::optional<BinaryOp> compoundOp() const {
    return compound_op_;
  }

 private:
  ExprPtr lhs_;
  ExprPtr rhs_;
  std::optional<BinaryOp> compound_op_;
};

class ConditionalExpr final : public Expr {
 public:
  ConditionalExpr(ExprPtr cond, ExprPtr then, ExprPtr otherwise,
                  const Type* type, SourceLocation loc)
      : Expr(Kind::kConditional, type, loc),
        cond_(std::move(cond)),
        then_(std::move(then)),
        else_(std::move(otherwise)) {}
  [[nodiscard]] const Expr* cond() const { return cond_.get(); }
  [[nodiscard]] const Expr* thenExpr() const { return then_.get(); }
  [[nodiscard]] const Expr* elseExpr() const { return else_.get(); }

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr else_;
};

class CallExpr final : public Expr {
 public:
  CallExpr(ExprPtr callee, std::vector<ExprPtr> args, const Type* type,
           SourceLocation loc)
      : Expr(Kind::kCall, type, loc),
        callee_(std::move(callee)),
        args_(std::move(args)) {}
  [[nodiscard]] const Expr* callee() const { return callee_.get(); }
  [[nodiscard]] const std::vector<ExprPtr>& args() const { return args_; }

 private:
  ExprPtr callee_;
  std::vector<ExprPtr> args_;
};

class SubscriptExpr final : public Expr {
 public:
  SubscriptExpr(ExprPtr base, ExprPtr index, const Type* type,
                SourceLocation loc)
      : Expr(Kind::kSubscript, type, loc),
        base_(std::move(base)),
        index_(std::move(index)) {}
  [[nodiscard]] const Expr* base() const { return base_.get(); }
  [[nodiscard]] const Expr* index() const { return index_.get(); }

 private:
  ExprPtr base_;
  ExprPtr index_;
};

class MemberExpr final : public Expr {
 public:
  MemberExpr(ExprPtr base, std::string member, bool is_arrow,
             const Type* type, SourceLocation loc)
      : Expr(Kind::kMember, type, loc),
        base_(std::move(base)),
        member_(std::move(member)),
        is_arrow_(is_arrow) {}
  [[nodiscard]] const Expr* base() const { return base_.get(); }
  [[nodiscard]] const std::string& member() const { return member_; }
  [[nodiscard]] bool isArrow() const { return is_arrow_; }

 private:
  ExprPtr base_;
  std::string member_;
  bool is_arrow_;
};

class CastExpr final : public Expr {
 public:
  CastExpr(ExprPtr operand, const Type* type, SourceLocation loc)
      : Expr(Kind::kCast, type, loc), operand_(std::move(operand)) {}
  [[nodiscard]] const Expr* operand() const { return operand_.get(); }

 private:
  ExprPtr operand_;
};

/// Brace-enclosed initializer list: {a, b, ...}, possibly nested. The
/// node's type is the variable's declared type.
class InitListExpr final : public Expr {
 public:
  InitListExpr(std::vector<ExprPtr> items, const Type* type,
               SourceLocation loc)
      : Expr(Kind::kInitList, type, loc), items_(std::move(items)) {}
  [[nodiscard]] const std::vector<ExprPtr>& items() const { return items_; }

 private:
  std::vector<ExprPtr> items_;
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
  std::string name;         // as spelled
  std::int64_t offset = 0;  // core
  std::int64_t size = 0;    // core, shmvar
  std::string text;         // the comment body
  SourceLocation location;
};

class ValueDecl {
 public:
  enum class Kind { kVar, kFunction };
  virtual ~ValueDecl() = default;
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }

 protected:
  ValueDecl(Kind kind, std::string name, const Type* type,
            SourceLocation loc)
      : kind_(kind), name_(std::move(name)), type_(type), loc_(loc) {}

 private:
  Kind kind_;
  std::string name_;
  const Type* type_;
  SourceLocation loc_;
};

enum class StorageKind { kGlobal, kLocal, kParam, kExtern };

class VarDecl final : public ValueDecl {
 public:
  VarDecl(std::string name, const Type* type, StorageKind storage,
          SourceLocation loc)
      : ValueDecl(Kind::kVar, std::move(name), type, loc),
        storage_(storage) {}

  [[nodiscard]] StorageKind storage() const { return storage_; }
  [[nodiscard]] const Expr* init() const { return init_.get(); }
  void setInit(ExprPtr init) { init_ = std::move(init); }

 private:
  StorageKind storage_;
  ExprPtr init_;
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

class FunctionDecl final : public ValueDecl {
 public:
  FunctionDecl(std::string name, const FunctionType* type,
               std::vector<std::unique_ptr<VarDecl>> params,
               SourceLocation loc)
      : ValueDecl(Kind::kFunction, std::move(name), type, loc),
        params_(std::move(params)) {}

  [[nodiscard]] const FunctionType* functionType() const {
    return static_cast<const FunctionType*>(type());
  }
  [[nodiscard]] const std::vector<std::unique_ptr<VarDecl>>& params() const {
    return params_;
  }
  [[nodiscard]] const Stmt* body() const;
  [[nodiscard]] bool isDefined() const { return body_ != nullptr; }
  void setBody(StmtPtr body);

  /// Annotations written before the signature or between it and the body
  /// (assume(core), shminit, ...).
  [[nodiscard]] const std::vector<Annotation>& entryAnnotations() const {
    return entry_annotations_;
  }
  void addEntryAnnotation(Annotation a) {
    entry_annotations_.push_back(std::move(a));
  }

 private:
  std::vector<std::unique_ptr<VarDecl>> params_;
  StmtPtr body_;
  std::vector<Annotation> entry_annotations_;
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

  virtual ~Stmt() = default;
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }

 protected:
  Stmt(Kind kind, SourceLocation loc) : kind_(kind), loc_(loc) {}

 private:
  Kind kind_;
  SourceLocation loc_;
};

class CompoundStmt final : public Stmt {
 public:
  CompoundStmt(std::vector<StmtPtr> stmts, SourceLocation loc)
      : Stmt(Kind::kCompound, loc), stmts_(std::move(stmts)) {}
  [[nodiscard]] const std::vector<StmtPtr>& stmts() const { return stmts_; }

 private:
  std::vector<StmtPtr> stmts_;
};

class DeclStmt final : public Stmt {
 public:
  DeclStmt(std::vector<std::unique_ptr<VarDecl>> decls, SourceLocation loc)
      : Stmt(Kind::kDecl, loc), decls_(std::move(decls)) {}
  [[nodiscard]] const std::vector<std::unique_ptr<VarDecl>>& decls() const {
    return decls_;
  }

 private:
  std::vector<std::unique_ptr<VarDecl>> decls_;
};

class ExprStmt final : public Stmt {
 public:
  ExprStmt(ExprPtr expr, SourceLocation loc)
      : Stmt(Kind::kExpr, loc), expr_(std::move(expr)) {}
  [[nodiscard]] const Expr* expr() const { return expr_.get(); }

 private:
  ExprPtr expr_;
};

class IfStmt final : public Stmt {
 public:
  IfStmt(ExprPtr cond, StmtPtr then, StmtPtr otherwise, SourceLocation loc)
      : Stmt(Kind::kIf, loc),
        cond_(std::move(cond)),
        then_(std::move(then)),
        else_(std::move(otherwise)) {}
  [[nodiscard]] const Expr* cond() const { return cond_.get(); }
  [[nodiscard]] const Stmt* thenStmt() const { return then_.get(); }
  [[nodiscard]] const Stmt* elseStmt() const { return else_.get(); }

 private:
  ExprPtr cond_;
  StmtPtr then_;
  StmtPtr else_;
};

class WhileStmt final : public Stmt {
 public:
  WhileStmt(ExprPtr cond, StmtPtr body, SourceLocation loc)
      : Stmt(Kind::kWhile, loc),
        cond_(std::move(cond)),
        body_(std::move(body)) {}
  [[nodiscard]] const Expr* cond() const { return cond_.get(); }
  [[nodiscard]] const Stmt* body() const { return body_.get(); }

 private:
  ExprPtr cond_;
  StmtPtr body_;
};

class DoStmt final : public Stmt {
 public:
  DoStmt(StmtPtr body, ExprPtr cond, SourceLocation loc)
      : Stmt(Kind::kDo, loc), body_(std::move(body)), cond_(std::move(cond)) {}
  [[nodiscard]] const Stmt* body() const { return body_.get(); }
  [[nodiscard]] const Expr* cond() const { return cond_.get(); }

 private:
  StmtPtr body_;
  ExprPtr cond_;
};

class ForStmt final : public Stmt {
 public:
  ForStmt(StmtPtr init, ExprPtr cond, ExprPtr step, StmtPtr body,
          SourceLocation loc)
      : Stmt(Kind::kFor, loc),
        init_(std::move(init)),
        cond_(std::move(cond)),
        step_(std::move(step)),
        body_(std::move(body)) {}
  [[nodiscard]] const Stmt* init() const { return init_.get(); }
  [[nodiscard]] const Expr* cond() const { return cond_.get(); }
  [[nodiscard]] const Expr* step() const { return step_.get(); }
  [[nodiscard]] const Stmt* body() const { return body_.get(); }

 private:
  StmtPtr init_;
  ExprPtr cond_;
  ExprPtr step_;
  StmtPtr body_;
};

class ReturnStmt final : public Stmt {
 public:
  ReturnStmt(ExprPtr value, SourceLocation loc)
      : Stmt(Kind::kReturn, loc), value_(std::move(value)) {}
  [[nodiscard]] const Expr* value() const { return value_.get(); }

 private:
  ExprPtr value_;
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
  SwitchStmt(ExprPtr cond, StmtPtr body, SourceLocation loc)
      : Stmt(Kind::kSwitch, loc),
        cond_(std::move(cond)),
        body_(std::move(body)) {}
  [[nodiscard]] const Expr* cond() const { return cond_.get(); }
  [[nodiscard]] const Stmt* body() const { return body_.get(); }

 private:
  ExprPtr cond_;
  StmtPtr body_;
};

class NullStmt final : public Stmt {
 public:
  explicit NullStmt(SourceLocation loc) : Stmt(Kind::kNull, loc) {}
};

/// A SafeFlow annotation in statement position (assert(safe(x)),
/// shmvar/noncore post-conditions).
class AnnotationStmt final : public Stmt {
 public:
  AnnotationStmt(Annotation annotation, SourceLocation loc)
      : Stmt(Kind::kAnnotation, loc), annotation_(std::move(annotation)) {}
  [[nodiscard]] const Annotation& annotation() const { return annotation_; }

 private:
  Annotation annotation_;
};

inline const Stmt* FunctionDecl::body() const { return body_.get(); }
inline void FunctionDecl::setBody(StmtPtr body) { body_ = std::move(body); }

// ---------------------------------------------------------------------------
// Translation unit
// ---------------------------------------------------------------------------

class TranslationUnit {
 public:
  explicit TranslationUnit(TypeContext& types) : types_(types) {}

  [[nodiscard]] TypeContext& types() const { return types_; }
  [[nodiscard]] const std::vector<std::unique_ptr<VarDecl>>& globals() const {
    return globals_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<FunctionDecl>>& functions()
      const {
    return functions_;
  }
  [[nodiscard]] const std::map<std::string, const Type*>& typedefs() const {
    return typedefs_;
  }

  VarDecl* addGlobal(std::unique_ptr<VarDecl> var);
  FunctionDecl* addFunction(std::unique_ptr<FunctionDecl> fn);
  void addTypedef(const std::string& name, const Type* type) {
    typedefs_[name] = type;
  }

  [[nodiscard]] const FunctionDecl* findFunction(std::string_view name) const;
  [[nodiscard]] const VarDecl* findGlobal(std::string_view name) const;

 private:
  TypeContext& types_;
  std::vector<std::unique_ptr<VarDecl>> globals_;
  std::vector<std::unique_ptr<FunctionDecl>> functions_;
  std::map<std::string, const Type*> typedefs_;
};

}  // namespace safeflow::cfront
