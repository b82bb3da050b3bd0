#include "ir/lowering.h"

#include <cassert>

#include "support/metrics.h"

namespace safeflow::ir {

namespace {

using cfront::Expr;
using cfront::Stmt;

BinOp lowerBinOp(cfront::BinaryOp op) {
  switch (op) {
    case cfront::BinaryOp::kAdd: return BinOp::kAdd;
    case cfront::BinaryOp::kSub: return BinOp::kSub;
    case cfront::BinaryOp::kMul: return BinOp::kMul;
    case cfront::BinaryOp::kDiv: return BinOp::kDiv;
    case cfront::BinaryOp::kRem: return BinOp::kRem;
    case cfront::BinaryOp::kBitAnd: return BinOp::kAnd;
    case cfront::BinaryOp::kBitOr: return BinOp::kOr;
    case cfront::BinaryOp::kBitXor: return BinOp::kXor;
    case cfront::BinaryOp::kShl: return BinOp::kShl;
    case cfront::BinaryOp::kShr: return BinOp::kShr;
    // Unexpected op (possible on error-recovery AST): fall back to kAdd —
    // wrong arithmetic on an already-diagnosed TU, never UB.
    default: return BinOp::kAdd;
  }
}

CmpOp lowerCmpOp(cfront::BinaryOp op) {
  switch (op) {
    case cfront::BinaryOp::kLt: return CmpOp::kLt;
    case cfront::BinaryOp::kGt: return CmpOp::kGt;
    case cfront::BinaryOp::kLe: return CmpOp::kLe;
    case cfront::BinaryOp::kGe: return CmpOp::kGe;
    case cfront::BinaryOp::kEq: return CmpOp::kEq;
    case cfront::BinaryOp::kNe: return CmpOp::kNe;
    // Same rationale as lowerBinOp's default.
    default: return CmpOp::kEq;
  }
}

bool isComparison(cfront::BinaryOp op) {
  switch (op) {
    case cfront::BinaryOp::kLt:
    case cfront::BinaryOp::kGt:
    case cfront::BinaryOp::kLe:
    case cfront::BinaryOp::kGe:
    case cfront::BinaryOp::kEq:
    case cfront::BinaryOp::kNe:
      return true;
    default:
      return false;
  }
}

/// The intrinsic an annotation lowers to; shminit lowers to no call.
std::string_view intrinsicFor(cfront::Annotation::Kind kind) {
  switch (kind) {
    case cfront::Annotation::Kind::kAssumeCore: return kIntrinsicAssumeCore;
    case cfront::Annotation::Kind::kAssertSafe: return kIntrinsicAssertSafe;
    case cfront::Annotation::Kind::kShmVar: return kIntrinsicShmVar;
    default: return kIntrinsicNonCore;
  }
}

}  // namespace

Lowering::Lowering(const cfront::TranslationUnit& tu, Module& module,
                   support::DiagnosticEngine& diags)
    : tu_(tu), module_(module), diags_(diags) {}

bool Lowering::run() {
  const support::ScopedTimer timer("phase.lowering");
  const std::size_t errors_before = diags_.errorCount();
  lowerGlobals();
  // Declare every function first so calls resolve without ordering issues.
  for (const cfront::FunctionDecl* fd : tu_.functions()) functionFor(*fd);
  for (const cfront::FunctionDecl* fd : tu_.functions()) {
    if (fd->isDefined()) {
      SAFEFLOW_COUNT("lowering.functions");
      lowerFunction(*fd);
    }
  }
  return diags_.errorCount() == errors_before;
}

void Lowering::lowerGlobals() {
  for (const cfront::VarDecl* g : tu_.globals()) {
    module_.getOrCreateGlobal(g->name(), g->type(), g->location());
  }
}

Function* Lowering::functionFor(const cfront::FunctionDecl& fd) {
  Function* fn = module_.getOrCreateFunction(fd.name(), fd.functionType());
  if (fn->args().empty() && !fd.params().empty()) {
    for (const cfront::VarDecl* p : fd.params()) {
      fn->addArg(p->type(), p->name());
    }
  }
  if (fn->location == SourceLocation{}) fn->location = fd.location();
  return fn;
}

Function* Lowering::intrinsic(std::string_view name) {
  const cfront::FunctionType* ft = module_.types().functionType(
      module_.types().voidType(), {}, /*variadic=*/true);
  return module_.getOrCreateFunction(name, ft);
}

Instruction* Lowering::emit(Opcode op, const Type* type, SourceLocation loc) {
  if (block_ == nullptr) {
    // Error recovery can reach an expression with no live block (e.g. a
    // recovered statement after a terminator); absorb the instructions
    // into a detached block instead of dereferencing null.
    block_ = newBlock("unreachable", label_counter_++);
  }
  return block_->append(module_.createInstruction(op, type, loc));
}

BasicBlock* Lowering::newBlock(std::string_view stem, unsigned n) {
  std::string label(stem);
  label += '.';
  label += std::to_string(n);
  return fn_->createBlock(module_.copyString(label));
}

Value* Lowering::emitLoad(Value* ptr, SourceLocation loc) {
  const Type* pointee = module_.types().intType();
  if (ptr->type()->isPointer()) {
    pointee = static_cast<const cfront::PointerType*>(ptr->type())->pointee();
  }
  Instruction* load = emit(Opcode::kLoad, pointee, loc);
  load->addOperand(ptr);
  return load;
}

void Lowering::emitStore(Value* value, Value* ptr, SourceLocation loc) {
  Instruction* store = emit(Opcode::kStore, module_.types().voidType(), loc);
  store->addOperand(value);
  store->addOperand(ptr);
}

Value* Lowering::emitCast(Value* v, const Type* to, SourceLocation loc) {
  Instruction* cast = emit(Opcode::kCast, to, loc);
  cast->addOperand(v);
  return cast;
}

Value* Lowering::coerce(Value* v, const Type* to, SourceLocation loc) {
  if (v->type() == to || to == nullptr || to->isVoid()) return v;
  if (!v->type()->isScalar() || !to->isScalar()) return v;
  return emitCast(v, to, loc);
}

bool Lowering::blockTerminated() const {
  return block_ == nullptr || block_->terminator() != nullptr;
}

void Lowering::branchTo(BasicBlock* target, SourceLocation loc) {
  if (blockTerminated()) return;
  Instruction* br = emit(Opcode::kBr, module_.types().voidType(), loc);
  br->block_refs.push_back(target);
}

void Lowering::condBranch(Value* cond, BasicBlock* then_bb,
                          BasicBlock* else_bb, SourceLocation loc) {
  if (blockTerminated()) return;
  Instruction* br = emit(Opcode::kCondBr, module_.types().voidType(), loc);
  br->addOperand(cond);
  br->block_refs.push_back(then_bb);
  br->block_refs.push_back(else_bb);
}

Instruction* Lowering::createLocalSlot(const cfront::VarDecl& vd) {
  Instruction* slot = entry_->prepend(module_.createInstruction(
      Opcode::kAlloca, module_.types().pointerTo(vd.type()), vd.location()));
  slot->allocated_type = vd.type();
  slot->setName(vd.name());
  slots_[&vd] = slot;
  return slot;
}

void Lowering::lowerFunction(const cfront::FunctionDecl& fd) {
  fn_ = functionFor(fd);
  if (fn_->isDefined()) return;  // already lowered (duplicate definition)
  slots_.clear();
  break_targets_.clear();
  continue_targets_.clear();
  label_counter_ = 0;

  entry_ = fn_->createBlock("entry");
  block_ = entry_;

  // Parameters: spill each Argument into a local slot so the body can take
  // addresses / reassign; mem2reg re-promotes the scalar ones.
  for (std::size_t i = 0; i < fd.params().size(); ++i) {
    const cfront::VarDecl* p = fd.params()[i];
    Instruction* slot = createLocalSlot(*p);
    if (i < fn_->args().size()) {
      emitStore(fn_->args()[i], slot, p->location());
    }
  }

  for (const cfront::Annotation& a : fd.entryAnnotations()) {
    lowerAnnotation(a);
  }

  assert(fd.body() != nullptr);
  lowerStmt(*fd.body());

  // Seal dangling blocks with a return.
  for (BasicBlock* bb : fn_->blocks()) {
    if (bb->terminator() == nullptr) {
      BasicBlock* saved = block_;
      block_ = bb;
      Instruction* ret =
          emit(Opcode::kRet, module_.types().voidType(), fd.location());
      const Type* ret_t = fd.functionType()->returnType();
      if (!ret_t->isVoid()) ret->addOperand(module_.undef(ret_t));
      block_ = saved;
    }
  }
  fn_ = nullptr;
  block_ = nullptr;
}

void Lowering::lowerAnnotation(const cfront::Annotation& a) {
  using Kind = cfront::Annotation::Kind;
  if (a.kind == Kind::kShmInit) {
    fn_->annotations.is_shminit = true;
    return;
  }
  if (a.kind == Kind::kAssumeCore) fn_->annotations.is_monitor = true;
  Value* addr = a.decl != nullptr ? storageOf(*a.decl) : nullptr;
  if (addr == nullptr) {
    diags_.error(a.location, "annotation",
                 "annotation references unknown variable '" +
                     std::string(a.name) + "'");
    return;
  }
  Value* operand = emitLoad(addr, a.location);
  Instruction* call =
      emit(Opcode::kCall, module_.types().voidType(), a.location);
  call->direct_callee = intrinsic(intrinsicFor(a.kind));
  call->addOperand(operand);
  const Type* long_t = module_.types().longType();
  if (a.kind == Kind::kAssumeCore) {
    call->addOperand(module_.constantInt(a.offset, long_t));
  }
  if (a.kind == Kind::kAssumeCore || a.kind == Kind::kShmVar) {
    call->addOperand(module_.constantInt(a.size, long_t));
  }
  // Keep the source-level name of the asserted variable on the call so
  // reports can say which critical value was checked.
  if (a.kind == Kind::kAssertSafe) call->setName(a.name);
}

Value* Lowering::storageOf(const cfront::ValueDecl& decl) {
  if (auto it = slots_.find(&decl); it != slots_.end()) return it->second;
  return module_.findGlobal(decl.name());
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Lowering::lowerStmt(const Stmt& stmt) {
  if (block_ == nullptr) {
    // Unreachable code after return/break; keep lowering into a detached
    // block so diagnostics and def-use stay well-formed.
    block_ = newBlock("unreachable", label_counter_++);
  }
  switch (stmt.kind()) {
    case Stmt::Kind::kCompound:
      lowerCompound(static_cast<const cfront::CompoundStmt&>(stmt));
      return;
    case Stmt::Kind::kDecl:
      lowerDecl(static_cast<const cfront::DeclStmt&>(stmt));
      return;
    case Stmt::Kind::kExpr:
      if (const auto* e = static_cast<const cfront::ExprStmt&>(stmt).expr()) {
        rvalue(*e);
      }
      return;
    case Stmt::Kind::kIf:
      lowerIf(static_cast<const cfront::IfStmt&>(stmt));
      return;
    case Stmt::Kind::kWhile:
      lowerWhile(static_cast<const cfront::WhileStmt&>(stmt));
      return;
    case Stmt::Kind::kDo:
      lowerDo(static_cast<const cfront::DoStmt&>(stmt));
      return;
    case Stmt::Kind::kFor:
      lowerFor(static_cast<const cfront::ForStmt&>(stmt));
      return;
    case Stmt::Kind::kSwitch:
      lowerSwitch(static_cast<const cfront::SwitchStmt&>(stmt));
      return;
    case Stmt::Kind::kReturn:
      lowerReturn(static_cast<const cfront::ReturnStmt&>(stmt));
      return;
    case Stmt::Kind::kBreak:
      if (!break_targets_.empty()) {
        branchTo(break_targets_.back(), stmt.location());
      } else {
        diags_.error(stmt.location(), "lower", "break outside loop/switch");
      }
      block_ = nullptr;
      return;
    case Stmt::Kind::kContinue:
      if (!continue_targets_.empty()) {
        branchTo(continue_targets_.back(), stmt.location());
      } else {
        diags_.error(stmt.location(), "lower", "continue outside loop");
      }
      block_ = nullptr;
      return;
    case Stmt::Kind::kCase:
      // Handled inside lowerSwitch; elsewhere it is a stray label.
      diags_.error(stmt.location(), "lower", "case label outside switch");
      return;
    case Stmt::Kind::kNull:
      return;
    case Stmt::Kind::kAnnotation:
      lowerAnnotation(
          static_cast<const cfront::AnnotationStmt&>(stmt).annotation());
      return;
  }
}

void Lowering::lowerCompound(const cfront::CompoundStmt& s) {
  for (const Stmt* sub : s.stmts()) lowerStmt(*sub);
}

void Lowering::lowerDecl(const cfront::DeclStmt& s) {
  for (const cfront::VarDecl* vd : s.decls()) {
    Instruction* slot = createLocalSlot(*vd);
    if (vd->init() == nullptr) continue;
    if (vd->init()->kind() == Expr::Kind::kInitList) {
      lowerInitList(slot,
                    static_cast<const cfront::InitListExpr&>(*vd->init()),
                    vd->type());
      continue;
    }
    Value* v = rvalue(*vd->init());
    emitStore(coerce(v, vd->type(), vd->location()), slot, vd->location());
  }
}

void Lowering::lowerInitList(Value* addr,
                             const cfront::InitListExpr& list,
                             const cfront::Type* type) {
  if (type->isArray()) {
    const auto* at = static_cast<const cfront::ArrayType*>(type);
    // View the array storage as a pointer to its element type.
    Value* base = emitCast(
        addr, module_.types().pointerTo(at->element()), list.location());
    for (std::size_t i = 0; i < list.items().size(); ++i) {
      Instruction* gep = emit(Opcode::kIndexAddr, base->type(),
                              list.location());
      gep->addOperand(base);
      gep->addOperand(module_.constantInt(static_cast<std::int64_t>(i),
                                          module_.types().intType()));
      const cfront::Expr* item = list.items()[i];
      if (item->kind() == Expr::Kind::kInitList) {
        lowerInitList(gep, static_cast<const cfront::InitListExpr&>(*item),
                      at->element());
      } else {
        Value* v = rvalue(*item);
        emitStore(coerce(v, at->element(), item->location()), gep,
                  item->location());
      }
    }
    return;
  }
  if (type->isStruct()) {
    const auto* st = static_cast<const cfront::StructType*>(type);
    for (std::size_t i = 0;
         i < list.items().size() && i < st->fields().size(); ++i) {
      const cfront::StructField& field = st->fields()[i];
      Instruction* gep = emit(Opcode::kFieldAddr,
                              module_.types().pointerTo(field.type),
                              list.location());
      gep->field_index = static_cast<unsigned>(i);
      gep->addOperand(addr);
      const cfront::Expr* item = list.items()[i];
      if (item->kind() == Expr::Kind::kInitList) {
        lowerInitList(gep, static_cast<const cfront::InitListExpr&>(*item),
                      field.type);
      } else {
        Value* v = rvalue(*item);
        emitStore(coerce(v, field.type, item->location()), gep,
                  item->location());
      }
    }
    return;
  }
  // Scalar initialized with a (possibly singleton) brace list.
  if (!list.items().empty()) {
    Value* v = rvalue(*list.items().front());
    emitStore(coerce(v, type, list.location()), addr, list.location());
  }
}

void Lowering::lowerIf(const cfront::IfStmt& s) {
  const unsigned n = label_counter_++;
  BasicBlock* then_bb = newBlock("if.then", n);
  BasicBlock* end_bb = newBlock("if.end", n);
  BasicBlock* else_bb =
      s.elseStmt() ? newBlock("if.else", n) : end_bb;

  Value* cond = rvalue(*s.cond());
  condBranch(cond, then_bb, else_bb, s.location());

  setBlock(then_bb);
  if (s.thenStmt() != nullptr) lowerStmt(*s.thenStmt());
  branchTo(end_bb, s.location());

  if (s.elseStmt() != nullptr) {
    setBlock(else_bb);
    lowerStmt(*s.elseStmt());
    branchTo(end_bb, s.location());
  }
  setBlock(end_bb);
}

void Lowering::lowerWhile(const cfront::WhileStmt& s) {
  const unsigned n = label_counter_++;
  BasicBlock* cond_bb = newBlock("while.cond", n);
  BasicBlock* body_bb = newBlock("while.body", n);
  BasicBlock* end_bb = newBlock("while.end", n);

  branchTo(cond_bb, s.location());
  setBlock(cond_bb);
  Value* cond = rvalue(*s.cond());
  condBranch(cond, body_bb, end_bb, s.location());

  break_targets_.push_back(end_bb);
  continue_targets_.push_back(cond_bb);
  setBlock(body_bb);
  if (s.body() != nullptr) lowerStmt(*s.body());
  branchTo(cond_bb, s.location());
  break_targets_.pop_back();
  continue_targets_.pop_back();

  setBlock(end_bb);
}

void Lowering::lowerDo(const cfront::DoStmt& s) {
  const unsigned n = label_counter_++;
  BasicBlock* body_bb = newBlock("do.body", n);
  BasicBlock* cond_bb = newBlock("do.cond", n);
  BasicBlock* end_bb = newBlock("do.end", n);

  branchTo(body_bb, s.location());
  break_targets_.push_back(end_bb);
  continue_targets_.push_back(cond_bb);
  setBlock(body_bb);
  if (s.body() != nullptr) lowerStmt(*s.body());
  branchTo(cond_bb, s.location());
  break_targets_.pop_back();
  continue_targets_.pop_back();

  setBlock(cond_bb);
  Value* cond = rvalue(*s.cond());
  condBranch(cond, body_bb, end_bb, s.location());
  setBlock(end_bb);
}

void Lowering::lowerFor(const cfront::ForStmt& s) {
  const unsigned n = label_counter_++;
  BasicBlock* cond_bb = newBlock("for.cond", n);
  BasicBlock* body_bb = newBlock("for.body", n);
  BasicBlock* step_bb = newBlock("for.step", n);
  BasicBlock* end_bb = newBlock("for.end", n);

  if (s.init() != nullptr) lowerStmt(*s.init());
  branchTo(cond_bb, s.location());

  setBlock(cond_bb);
  if (s.cond() != nullptr) {
    Value* cond = rvalue(*s.cond());
    condBranch(cond, body_bb, end_bb, s.location());
  } else {
    branchTo(body_bb, s.location());
  }

  break_targets_.push_back(end_bb);
  continue_targets_.push_back(step_bb);
  setBlock(body_bb);
  if (s.body() != nullptr) lowerStmt(*s.body());
  branchTo(step_bb, s.location());
  break_targets_.pop_back();
  continue_targets_.pop_back();

  setBlock(step_bb);
  if (s.step() != nullptr) rvalue(*s.step());
  branchTo(cond_bb, s.location());

  setBlock(end_bb);
}

void Lowering::lowerSwitch(const cfront::SwitchStmt& s) {
  const unsigned n = label_counter_++;
  Value* cond = rvalue(*s.cond());
  BasicBlock* dispatch = block_;
  BasicBlock* end_bb = newBlock("switch.end", n);

  if (s.body() == nullptr || s.body()->kind() != Stmt::Kind::kCompound) {
    diags_.error(s.location(), "lower",
                 "switch body must be a compound statement");
    setBlock(end_bb);
    return;
  }
  const auto& body = static_cast<const cfront::CompoundStmt&>(*s.body());

  // Lower the body into a chain of blocks, one starting at each case
  // label; record (value, block) pairs. Fallthrough is the natural edge.
  struct CaseTarget {
    std::optional<std::int64_t> value;
    BasicBlock* block;
  };
  std::vector<CaseTarget> cases;
  break_targets_.push_back(end_bb);
  block_ = nullptr;
  for (const Stmt* sub : body.stmts()) {
    if (sub->kind() == Stmt::Kind::kCase) {
      const auto& cs = static_cast<const cfront::CaseStmt&>(*sub);
      BasicBlock* case_bb =
          newBlock("switch.case." + std::to_string(n),
                   static_cast<unsigned>(cases.size()));
      if (block_ != nullptr) branchTo(case_bb, cs.location());  // fallthrough
      setBlock(case_bb);
      cases.push_back(CaseTarget{
          cs.isDefault() ? std::nullopt : std::optional(cs.value()),
          case_bb});
      continue;
    }
    lowerStmt(*sub);
  }
  if (block_ != nullptr) branchTo(end_bb, s.location());
  break_targets_.pop_back();

  // Emit the dispatch chain in the block where the switch appeared.
  setBlock(dispatch);
  BasicBlock* default_bb = end_bb;
  for (const CaseTarget& c : cases) {
    if (!c.value.has_value()) default_bb = c.block;
  }
  for (const CaseTarget& c : cases) {
    if (!c.value.has_value()) continue;
    Instruction* cmp =
        emit(Opcode::kCmp, module_.types().intType(), s.location());
    cmp->cmp_op = CmpOp::kEq;
    cmp->addOperand(cond);
    cmp->addOperand(
        module_.constantInt(*c.value, module_.types().longType()));
    BasicBlock* next =
        newBlock("switch.test." + std::to_string(n), label_counter_++);
    condBranch(cmp, c.block, next, s.location());
    setBlock(next);
  }
  branchTo(default_bb, s.location());
  setBlock(end_bb);
}

void Lowering::lowerReturn(const cfront::ReturnStmt& s) {
  Instruction* ret =
      emit(Opcode::kRet, module_.types().voidType(), s.location());
  if (s.value() != nullptr) {
    // Emit the value first, then attach (emit order: value before ret).
    block_->erase(ret);
    Value* v = rvalue(*s.value());
    v = coerce(v, fn_->functionType()->returnType(), s.location());
    Instruction* ret2 =
        emit(Opcode::kRet, module_.types().voidType(), s.location());
    ret2->addOperand(v);
  }
  block_ = nullptr;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Value* Lowering::rvalue(const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kIntLit:
      return module_.constantInt(
          static_cast<const cfront::IntLitExpr&>(e).value(), e.type());
    case Expr::Kind::kFloatLit:
      return module_.constantFloat(
          static_cast<const cfront::FloatLitExpr&>(e).value(), e.type());
    case Expr::Kind::kStringLit:
      return module_.constantString(
          static_cast<const cfront::StringLitExpr&>(e).value());
    case Expr::Kind::kSizeof:
      return module_.constantInt(
          static_cast<std::int64_t>(
              static_cast<const cfront::SizeofExpr&>(e).value()),
          e.type());
    case Expr::Kind::kDeclRef: {
      const auto& ref = static_cast<const cfront::DeclRefExpr&>(e);
      if (ref.decl()->kind() == cfront::ValueDecl::Kind::kFunction) {
        const auto& fd =
            static_cast<const cfront::FunctionDecl&>(*ref.decl());
        // Taking a function as a value: resolve to the IR function; it is
        // represented as itself (pointer semantics handled by caller).
        Function* target = module_.findFunction(fd.name());
        if (target == nullptr) target = functionFor(fd);
        // Functions are not Values in this IR; represent the address as a
        // ConstantString-like unique token via a dedicated global.
        GlobalVar* fn_addr = module_.getOrCreateGlobal(
            "@fnaddr." + std::string(fd.name()), fd.type(), fd.location());
        return fn_addr;
      }
      const auto& vd = static_cast<const cfront::VarDecl&>(*ref.decl());
      Value* addr = lvalue(e);
      if (addr == nullptr) return module_.undef(e.type());
      if (vd.type()->isArray()) return addr;  // decay: address of first elt
      return emitLoad(addr, e.location());
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const cfront::UnaryExpr&>(e);
      switch (u.op()) {
        case cfront::UnaryOp::kAddrOf: {
          // lvalue() returns null for storage-less operands (already
          // diagnosed); an undef address keeps the operand list dense.
          Value* addr = lvalue(*u.operand());
          return addr == nullptr ? module_.undef(e.type()) : addr;
        }
        case cfront::UnaryOp::kDeref: {
          Value* addr = lvalue(e);
          if (addr == nullptr) return module_.undef(e.type());
          if (e.type()->isArray() || e.type()->isStruct()) return addr;
          return emitLoad(addr, e.location());
        }
        case cfront::UnaryOp::kPreInc:
        case cfront::UnaryOp::kPreDec:
        case cfront::UnaryOp::kPostInc:
        case cfront::UnaryOp::kPostDec:
          return lowerIncDec(u);
        case cfront::UnaryOp::kNeg: {
          Value* v = rvalue(*u.operand());
          Instruction* inst = emit(Opcode::kUnOp, e.type(), e.location());
          inst->un_op = UnOp::kNeg;
          inst->addOperand(v);
          return inst;
        }
        case cfront::UnaryOp::kLogNot: {
          Value* v = rvalue(*u.operand());
          Instruction* inst = emit(Opcode::kUnOp, e.type(), e.location());
          inst->un_op = UnOp::kNot;
          inst->addOperand(v);
          return inst;
        }
        case cfront::UnaryOp::kBitNot: {
          Value* v = rvalue(*u.operand());
          Instruction* inst = emit(Opcode::kUnOp, e.type(), e.location());
          inst->un_op = UnOp::kBitNot;
          inst->addOperand(v);
          return inst;
        }
      }
      return module_.undef(e.type());
    }
    case Expr::Kind::kBinary:
      return lowerBinary(static_cast<const cfront::BinaryExpr&>(e));
    case Expr::Kind::kAssign:
      return lowerAssign(static_cast<const cfront::AssignExpr&>(e));
    case Expr::Kind::kConditional:
      return lowerConditional(
          static_cast<const cfront::ConditionalExpr&>(e));
    case Expr::Kind::kCall:
      return lowerCall(static_cast<const cfront::CallExpr&>(e));
    case Expr::Kind::kSubscript:
    case Expr::Kind::kMember: {
      Value* addr = lvalue(e);
      if (addr == nullptr) return module_.undef(e.type());
      if (e.type()->isArray() || e.type()->isStruct()) return addr;
      return emitLoad(addr, e.location());
    }
    case Expr::Kind::kCast: {
      const auto& c = static_cast<const cfront::CastExpr&>(e);
      Value* v = rvalue(*c.operand());
      return emitCast(v, e.type(), e.location());
    }
    case Expr::Kind::kInitList:
      diags_.error(e.location(), "lower",
                   "initializer list only allowed in declarations");
      return module_.undef(e.type());
  }
  return module_.undef(e.type());
}

Value* Lowering::lvalue(const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kDeclRef: {
      const auto& ref = static_cast<const cfront::DeclRefExpr&>(e);
      if (Value* addr = storageOf(*ref.decl())) return addr;
      diags_.error(e.location(), "lower",
                   "no storage for '" + std::string(ref.decl()->name()) +
                       "'");
      return nullptr;
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const cfront::UnaryExpr&>(e);
      if (u.op() == cfront::UnaryOp::kDeref) return rvalue(*u.operand());
      break;
    }
    case Expr::Kind::kSubscript: {
      const auto& s = static_cast<const cfront::SubscriptExpr&>(e);
      Value* base = rvalue(*s.base());  // decayed pointer
      Value* index = rvalue(*s.index());
      Instruction* gep = emit(Opcode::kIndexAddr,
                              module_.types().pointerTo(e.type()),
                              e.location());
      gep->addOperand(base);
      gep->addOperand(index);
      return gep;
    }
    case Expr::Kind::kMember: {
      const auto& m = static_cast<const cfront::MemberExpr&>(e);
      Value* base_addr =
          m.isArrow() ? rvalue(*m.base()) : lvalue(*m.base());
      if (base_addr == nullptr) return nullptr;
      // Find the struct type to resolve the field index.
      const Type* base_t = m.base()->type();
      if (m.isArrow() && base_t->isPointer()) {
        base_t = static_cast<const cfront::PointerType*>(base_t)->pointee();
      }
      if (!base_t->isStruct()) return nullptr;
      const auto* st = static_cast<const cfront::StructType*>(base_t);
      const int idx = st->fieldIndex(m.member());
      if (idx < 0) return nullptr;
      Instruction* gep = emit(Opcode::kFieldAddr,
                              module_.types().pointerTo(e.type()),
                              e.location());
      gep->field_index = static_cast<unsigned>(idx);
      gep->addOperand(base_addr);
      return gep;
    }
    case Expr::Kind::kCast: {
      // (T*)p used as lvalue target — lower operand as lvalue.
      const auto& c = static_cast<const cfront::CastExpr&>(e);
      return lvalue(*c.operand());
    }
    default:
      break;
  }
  diags_.error(e.location(), "lower", "expression is not an lvalue");
  return nullptr;
}

Value* Lowering::lowerBinary(const cfront::BinaryExpr& e) {
  if (e.op() == cfront::BinaryOp::kLogAnd ||
      e.op() == cfront::BinaryOp::kLogOr) {
    return lowerShortCircuit(e);
  }
  if (e.op() == cfront::BinaryOp::kComma) {
    rvalue(*e.lhs());
    return rvalue(*e.rhs());
  }
  Value* lhs = rvalue(*e.lhs());
  Value* rhs = rvalue(*e.rhs());

  if (isComparison(e.op())) {
    Instruction* cmp = emit(Opcode::kCmp, e.type(), e.location());
    cmp->cmp_op = lowerCmpOp(e.op());
    cmp->addOperand(lhs);
    cmp->addOperand(rhs);
    return cmp;
  }

  // Pointer arithmetic lowers to IndexAddr so shm offsets stay trackable.
  const bool lhs_ptr = lhs->type()->isPointer();
  const bool rhs_ptr = rhs->type()->isPointer();
  if ((e.op() == cfront::BinaryOp::kAdd ||
       e.op() == cfront::BinaryOp::kSub) &&
      (lhs_ptr || rhs_ptr) && !(lhs_ptr && rhs_ptr)) {
    Value* ptr = lhs_ptr ? lhs : rhs;
    Value* idx = lhs_ptr ? rhs : lhs;
    if (e.op() == cfront::BinaryOp::kSub) {
      Instruction* neg =
          emit(Opcode::kUnOp, idx->type(), e.location());
      neg->un_op = UnOp::kNeg;
      neg->addOperand(idx);
      idx = neg;
    }
    Instruction* gep = emit(Opcode::kIndexAddr, ptr->type(), e.location());
    gep->addOperand(ptr);
    gep->addOperand(idx);
    return gep;
  }
  if (lhs_ptr && rhs_ptr && e.op() == cfront::BinaryOp::kSub) {
    // Pointer difference: representable as casts to long + subtraction.
    Value* li = emitCast(lhs, module_.types().longType(), e.location());
    Value* ri = emitCast(rhs, module_.types().longType(), e.location());
    Instruction* sub = emit(Opcode::kBinOp, e.type(), e.location());
    sub->bin_op = BinOp::kSub;
    sub->addOperand(li);
    sub->addOperand(ri);
    return sub;
  }

  lhs = coerce(lhs, e.type(), e.location());
  rhs = coerce(rhs, e.type(), e.location());
  Instruction* inst = emit(Opcode::kBinOp, e.type(), e.location());
  inst->bin_op = lowerBinOp(e.op());
  inst->addOperand(lhs);
  inst->addOperand(rhs);
  return inst;
}

Value* Lowering::lowerShortCircuit(const cfront::BinaryExpr& e) {
  const unsigned n = label_counter_++;
  const bool is_and = e.op() == cfront::BinaryOp::kLogAnd;
  // Temp slot holding the boolean result; mem2reg turns it into a phi.
  Instruction* slot = entry_->prepend(module_.createInstruction(
      Opcode::kAlloca, module_.types().pointerTo(module_.types().intType()),
      e.location()));
  slot->allocated_type = module_.types().intType();
  slot->setName(module_.copyString("sc.tmp." + std::to_string(n)));

  BasicBlock* rhs_bb = newBlock("sc.rhs", n);
  BasicBlock* end_bb = newBlock("sc.end", n);

  Value* lhs = rvalue(*e.lhs());
  // Normalize to 0/1 and store as the result if we short-circuit.
  Instruction* lhs_bool = emit(Opcode::kCmp, e.type(), e.location());
  lhs_bool->cmp_op = CmpOp::kNe;
  lhs_bool->addOperand(lhs);
  lhs_bool->addOperand(module_.constantInt(0, module_.types().intType()));
  emitStore(lhs_bool, slot, e.location());
  if (is_and) {
    condBranch(lhs_bool, rhs_bb, end_bb, e.location());
  } else {
    condBranch(lhs_bool, end_bb, rhs_bb, e.location());
  }

  setBlock(rhs_bb);
  Value* rhs = rvalue(*e.rhs());
  Instruction* rhs_bool = emit(Opcode::kCmp, e.type(), e.location());
  rhs_bool->cmp_op = CmpOp::kNe;
  rhs_bool->addOperand(rhs);
  rhs_bool->addOperand(module_.constantInt(0, module_.types().intType()));
  emitStore(rhs_bool, slot, e.location());
  branchTo(end_bb, e.location());

  setBlock(end_bb);
  return emitLoad(slot, e.location());
}

Value* Lowering::lowerConditional(const cfront::ConditionalExpr& e) {
  const unsigned n = label_counter_++;
  Instruction* slot = entry_->prepend(module_.createInstruction(
      Opcode::kAlloca, module_.types().pointerTo(e.type()), e.location()));
  slot->allocated_type = e.type();
  slot->setName(module_.copyString("cond.tmp." + std::to_string(n)));

  BasicBlock* then_bb = newBlock("cond.then", n);
  BasicBlock* else_bb = newBlock("cond.else", n);
  BasicBlock* end_bb = newBlock("cond.end", n);

  Value* cond = rvalue(*e.cond());
  condBranch(cond, then_bb, else_bb, e.location());

  setBlock(then_bb);
  Value* tv = rvalue(*e.thenExpr());
  emitStore(coerce(tv, e.type(), e.location()), slot, e.location());
  branchTo(end_bb, e.location());

  setBlock(else_bb);
  Value* ev = rvalue(*e.elseExpr());
  emitStore(coerce(ev, e.type(), e.location()), slot, e.location());
  branchTo(end_bb, e.location());

  setBlock(end_bb);
  return emitLoad(slot, e.location());
}

Value* Lowering::lowerAssign(const cfront::AssignExpr& e) {
  Value* addr = lvalue(*e.lhs());
  if (addr == nullptr) return module_.undef(e.type());
  Value* result = nullptr;
  if (e.compoundOp().has_value()) {
    Value* old = emitLoad(addr, e.location());
    Value* rhs = rvalue(*e.rhs());
    const cfront::BinaryOp op = *e.compoundOp();
    if (old->type()->isPointer() &&
        (op == cfront::BinaryOp::kAdd || op == cfront::BinaryOp::kSub)) {
      if (op == cfront::BinaryOp::kSub) {
        Instruction* neg = emit(Opcode::kUnOp, rhs->type(), e.location());
        neg->un_op = UnOp::kNeg;
        neg->addOperand(rhs);
        rhs = neg;
      }
      Instruction* gep = emit(Opcode::kIndexAddr, old->type(), e.location());
      gep->addOperand(old);
      gep->addOperand(rhs);
      result = gep;
    } else {
      rhs = coerce(rhs, e.type(), e.location());
      Instruction* inst = emit(Opcode::kBinOp, e.type(), e.location());
      inst->bin_op = lowerBinOp(op);
      inst->addOperand(old);
      inst->addOperand(rhs);
      result = inst;
    }
  } else {
    result = coerce(rvalue(*e.rhs()), e.type(), e.location());
  }
  emitStore(result, addr, e.location());
  return result;
}

Value* Lowering::lowerIncDec(const cfront::UnaryExpr& e) {
  Value* addr = lvalue(*e.operand());
  if (addr == nullptr) return module_.undef(e.type());
  Value* old = emitLoad(addr, e.location());
  const bool inc = e.op() == cfront::UnaryOp::kPreInc ||
                   e.op() == cfront::UnaryOp::kPostInc;
  Value* updated = nullptr;
  if (old->type()->isPointer()) {
    Instruction* gep = emit(Opcode::kIndexAddr, old->type(), e.location());
    gep->addOperand(old);
    gep->addOperand(
        module_.constantInt(inc ? 1 : -1, module_.types().intType()));
    updated = gep;
  } else {
    Instruction* inst = emit(Opcode::kBinOp, old->type(), e.location());
    inst->bin_op = inc ? BinOp::kAdd : BinOp::kSub;
    inst->addOperand(old);
    inst->addOperand(module_.constantInt(1, old->type()));
    updated = inst;
  }
  emitStore(updated, addr, e.location());
  const bool is_pre = e.op() == cfront::UnaryOp::kPreInc ||
                      e.op() == cfront::UnaryOp::kPreDec;
  return is_pre ? updated : old;
}

Value* Lowering::lowerCall(const cfront::CallExpr& e) {
  Function* direct = nullptr;
  Value* indirect = nullptr;
  if (e.callee()->kind() == Expr::Kind::kDeclRef) {
    const auto& ref = static_cast<const cfront::DeclRefExpr&>(*e.callee());
    if (ref.decl()->kind() == cfront::ValueDecl::Kind::kFunction) {
      const auto& fd = static_cast<const cfront::FunctionDecl&>(*ref.decl());
      direct = functionFor(fd);
    }
  }
  if (direct == nullptr) indirect = rvalue(*e.callee());

  std::vector<Value*> args;
  args.reserve(e.args().size());
  for (const Expr* a : e.args()) args.push_back(rvalue(*a));

  Instruction* call = emit(Opcode::kCall, e.type(), e.location());
  call->direct_callee = direct;
  if (indirect != nullptr) call->addOperand(indirect);
  for (Value* a : args) call->addOperand(a);
  return call;
}

}  // namespace safeflow::ir
