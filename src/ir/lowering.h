// AST → IR lowering. Produces a CFG of non-SSA instructions (locals as
// allocas); the SSA pass (ssa.h) then promotes scalars. SafeFlow
// annotations are lowered to calls to the safeflow.* intrinsic functions,
// mirroring the paper's "annotations become calls to external dummy
// functions" preprocessing.
#pragma once

#include <map>
#include <string_view>

#include "cfront/ast.h"
#include "ir/ir.h"
#include "support/diagnostics.h"

namespace safeflow::ir {

class Lowering {
 public:
  Lowering(const cfront::TranslationUnit& tu, Module& module,
           support::DiagnosticEngine& diags);

  /// Lowers every defined function and all globals. Returns false when
  /// lowering reported errors.
  bool run();

 private:
  // -- emission helpers -------------------------------------------------
  Instruction* emit(Opcode op, const Type* type, SourceLocation loc);
  Value* emitLoad(Value* ptr, SourceLocation loc);
  void emitStore(Value* value, Value* ptr, SourceLocation loc);
  Value* emitCast(Value* v, const Type* to, SourceLocation loc);
  /// Inserts a numeric conversion only when types differ.
  Value* coerce(Value* v, const Type* to, SourceLocation loc);
  void setBlock(BasicBlock* bb) { block_ = bb; }
  /// A new block of the current function labelled "<stem>.<n>".
  BasicBlock* newBlock(std::string_view stem, unsigned n);
  void branchTo(BasicBlock* target, SourceLocation loc);
  void condBranch(Value* cond, BasicBlock* then_bb, BasicBlock* else_bb,
                  SourceLocation loc);
  [[nodiscard]] bool blockTerminated() const;

  // -- declarations ------------------------------------------------------
  void lowerGlobals();
  void lowerFunction(const cfront::FunctionDecl& fd);
  Function* functionFor(const cfront::FunctionDecl& fd);
  Function* intrinsic(std::string_view name);
  /// Entry and statement annotations alike: a call to the intrinsic on
  /// the named variable's value (assert) or pointer (the others).
  void lowerAnnotation(const cfront::Annotation& a);

  // -- statements ---------------------------------------------------------
  void lowerStmt(const cfront::Stmt& stmt);
  void lowerCompound(const cfront::CompoundStmt& s);
  void lowerIf(const cfront::IfStmt& s);
  void lowerWhile(const cfront::WhileStmt& s);
  void lowerDo(const cfront::DoStmt& s);
  void lowerFor(const cfront::ForStmt& s);
  void lowerSwitch(const cfront::SwitchStmt& s);
  void lowerReturn(const cfront::ReturnStmt& s);
  void lowerDecl(const cfront::DeclStmt& s);

  // -- expressions ----------------------------------------------------------
  Value* rvalue(const cfront::Expr& e);
  Value* lvalue(const cfront::Expr& e);
  Value* lowerCall(const cfront::CallExpr& e);
  Value* lowerBinary(const cfront::BinaryExpr& e);
  Value* lowerShortCircuit(const cfront::BinaryExpr& e);
  Value* lowerAssign(const cfront::AssignExpr& e);
  Value* lowerIncDec(const cfront::UnaryExpr& e);
  Value* lowerConditional(const cfront::ConditionalExpr& e);
  /// The address of a declaration: its slot in the current function or
  /// its module global; null when it has neither.
  Value* storageOf(const cfront::ValueDecl& decl);

  /// Adds an entry-block alloca for a local and remembers it.
  Instruction* createLocalSlot(const cfront::VarDecl& vd);
  /// Element-wise initialization from a brace list into `addr`.
  void lowerInitList(Value* addr, const cfront::InitListExpr& list,
                     const cfront::Type* type);

  const cfront::TranslationUnit& tu_;
  Module& module_;
  support::DiagnosticEngine& diags_;

  Function* fn_ = nullptr;
  BasicBlock* block_ = nullptr;
  BasicBlock* entry_ = nullptr;
  std::map<const cfront::ValueDecl*, Value*> slots_;  // decl -> address
  std::vector<BasicBlock*> break_targets_;
  std::vector<BasicBlock*> continue_targets_;
  unsigned label_counter_ = 0;
};

}  // namespace safeflow::ir
