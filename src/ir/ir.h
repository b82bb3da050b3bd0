// Typed three-address IR, structurally similar to (a small subset of) the
// LLVM IR the paper's prototype analyzed: a Module of Functions, each a CFG
// of BasicBlocks holding Instructions. After the mem2reg/SSA pass, scalar
// locals are in SSA form with Phi nodes; aggregates stay in memory and are
// addressed through FieldAddr/IndexAddr (GEP-like) instructions.
//
// Types are shared with the front end (const cfront::Type*). Ownership:
// Module owns Functions and GlobalVariables; Function owns BasicBlocks and
// its Arguments; BasicBlock owns Instructions. Operands are non-owning
// Value*.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cfront/types.h"
#include "support/source_location.h"

namespace safeflow::ir {

using cfront::Type;
using support::SourceLocation;

class Function;
class BasicBlock;
class CfgInfo;
class Instruction;
class Module;

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

class Value {
 public:
  enum class Kind {
    kArgument,
    kConstantInt,
    kConstantFloat,
    kConstantString,
    kGlobalVar,
    kFunction,
    kUndef,
    kInstruction,
  };

  virtual ~Value() = default;
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  [[nodiscard]] bool isInstruction() const {
    return kind_ == Kind::kInstruction;
  }

 protected:
  Value(Kind kind, const Type* type, std::string name = {})
      : kind_(kind), type_(type), name_(std::move(name)) {}

 private:
  Kind kind_;
  const Type* type_;
  std::string name_;
};

class Argument final : public Value {
 public:
  Argument(const Type* type, std::string name, Function* parent,
           unsigned index)
      : Value(Kind::kArgument, type, std::move(name)),
        parent_(parent),
        index_(index) {}
  [[nodiscard]] Function* parent() const { return parent_; }
  [[nodiscard]] unsigned index() const { return index_; }

 private:
  Function* parent_;
  unsigned index_;
};

class ConstantInt final : public Value {
 public:
  ConstantInt(std::int64_t value, const Type* type)
      : Value(Kind::kConstantInt, type), value_(value) {}
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_;
};

class ConstantFloat final : public Value {
 public:
  ConstantFloat(double value, const Type* type)
      : Value(Kind::kConstantFloat, type), value_(value) {}
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_;
};

class ConstantString final : public Value {
 public:
  ConstantString(std::string text, const Type* type)
      : Value(Kind::kConstantString, type), text_(std::move(text)) {}
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// A value that is never defined (unreachable merges, error recovery).
class Undef final : public Value {
 public:
  explicit Undef(const Type* type) : Value(Kind::kUndef, type) {}
};

/// A module-level variable. Its Value type is pointer-to-contents (like
/// LLVM): loading through it yields the variable's value.
class GlobalVar final : public Value {
 public:
  GlobalVar(std::string name, const Type* value_type,
            const Type* pointer_type, SourceLocation loc)
      : Value(Kind::kGlobalVar, pointer_type, std::move(name)),
        value_type_(value_type),
        loc_(loc) {}
  [[nodiscard]] const Type* valueType() const { return value_type_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }

 private:
  const Type* value_type_;
  SourceLocation loc_;
};

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

enum class Opcode {
  kAlloca,     // stack slot; result is pointer to allocatedType
  kLoad,       // (ptr)
  kStore,      // (value, ptr) — no result
  kBinOp,      // (lhs, rhs)
  kUnOp,       // (operand)
  kCmp,        // (lhs, rhs) — integer result
  kCast,       // (operand) to result type
  kFieldAddr,  // (base_ptr) + field index into struct -> field pointer
  kIndexAddr,  // (base_ptr, index) -> element pointer
  kCall,       // (callee?, args...) — callee null for direct calls
  kPhi,        // (incoming values; blocks parallel)
  kBr,         // unconditional; successor block
  kCondBr,     // (cond); two successor blocks
  kRet,        // (value?) — no result
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor, kShl, kShr,
};

enum class UnOp { kNeg, kNot, kBitNot };

enum class CmpOp { kLt, kGt, kLe, kGe, kEq, kNe };

class Instruction final : public Value {
 public:
  Instruction(Opcode op, const Type* type, SourceLocation loc)
      : Value(Kind::kInstruction, type), opcode_(op), loc_(loc) {}

  [[nodiscard]] Opcode opcode() const { return opcode_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }
  [[nodiscard]] BasicBlock* parent() const { return parent_; }
  void setParent(BasicBlock* bb) { parent_ = bb; }

  [[nodiscard]] const std::vector<Value*>& operands() const {
    return operands_;
  }
  [[nodiscard]] Value* operand(std::size_t i) const { return operands_[i]; }
  void addOperand(Value* v) { operands_.push_back(v); }
  void setOperand(std::size_t i, Value* v) { operands_[i] = v; }
  [[nodiscard]] std::size_t numOperands() const { return operands_.size(); }

  // -- opcode-specific payloads --------------------------------------------
  // kAlloca
  const Type* allocated_type = nullptr;
  // kBinOp / kUnOp / kCmp
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNeg;
  CmpOp cmp_op = CmpOp::kEq;
  // kFieldAddr
  unsigned field_index = 0;
  // kCall: direct callee (null for indirect calls through operand 0)
  Function* direct_callee = nullptr;
  // kBr / kCondBr successors; kPhi incoming blocks (parallel to operands)
  std::vector<BasicBlock*> block_refs;

  [[nodiscard]] bool isTerminator() const {
    return opcode_ == Opcode::kBr || opcode_ == Opcode::kCondBr ||
           opcode_ == Opcode::kRet;
  }

 private:
  Opcode opcode_;
  SourceLocation loc_;
  BasicBlock* parent_ = nullptr;
  std::vector<Value*> operands_;
};

// ---------------------------------------------------------------------------
// BasicBlock / Function / Module
// ---------------------------------------------------------------------------

class BasicBlock {
 public:
  BasicBlock(std::string label, Function* parent, std::uint32_t index)
      : label_(std::move(label)), parent_(parent), index_(index) {}

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] Function* parent() const { return parent_; }
  /// Position in the parent's block list (layout order).
  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Instruction>>&
  instructions() const {
    return insts_;
  }

  Instruction* append(std::unique_ptr<Instruction> inst);
  Instruction* prepend(std::unique_ptr<Instruction> inst);
  /// Inserts `insts`, in order, ahead of the block's first instruction.
  void prepend(std::vector<std::unique_ptr<Instruction>> insts);
  /// Removes (and destroys) the instruction; it must belong to this block.
  void erase(Instruction* inst);
  /// Removes (and destroys) every instruction `pred` holds for, in one
  /// pass over the block.
  template <typename Pred>
  void eraseIf(Pred pred) {
    std::erase_if(insts_, [&pred](const std::unique_ptr<Instruction>& inst) {
      return pred(static_cast<const Instruction*>(inst.get()));
    });
  }

  [[nodiscard]] Instruction* terminator() const;
  [[nodiscard]] std::vector<BasicBlock*> successors() const;

 private:
  std::string label_;
  Function* parent_;
  std::uint32_t index_;
  std::vector<std::unique_ptr<Instruction>> insts_;
};

/// Attributes attached from SafeFlow annotations during lowering.
struct FunctionAnnotations {
  bool is_shminit = false;
  // assume(core(...)) facts are lowered to safeflow.assume.core intrinsic
  // calls in the entry block; this records only the flag that any exist.
  bool is_monitor = false;
};

class Function {
 public:
  // Out of line, where CfgInfo is complete.
  Function(std::string name, const cfront::FunctionType* type, Module* parent);
  ~Function();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const cfront::FunctionType* functionType() const {
    return type_;
  }
  [[nodiscard]] Module* parent() const { return parent_; }
  [[nodiscard]] bool isDefined() const { return !blocks_.empty(); }

  [[nodiscard]] const std::vector<std::unique_ptr<Argument>>& args() const {
    return args_;
  }
  Argument* addArg(const Type* type, std::string name);

  [[nodiscard]] const std::vector<std::unique_ptr<BasicBlock>>& blocks()
      const {
    return blocks_;
  }
  [[nodiscard]] BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }
  BasicBlock* createBlock(std::string label);

  /// The function's CFG facts (numbering, dominators, post-dominators,
  /// control dependence), built on first use and kept for the function's
  /// lifetime. Call it only once lowering has finished the function: no
  /// later pass changes a terminator, so the facts never go stale. Not
  /// safe to call for the first time from two threads at once.
  [[nodiscard]] const CfgInfo& cfg() const;

  FunctionAnnotations annotations;
  SourceLocation location;

  /// True for the SafeFlow annotation intrinsics (safeflow.assume.core &c).
  [[nodiscard]] bool isIntrinsic() const {
    return name_.rfind("safeflow.", 0) == 0;
  }

 private:
  std::string name_;
  const cfront::FunctionType* type_;
  Module* parent_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  mutable std::unique_ptr<CfgInfo> cfg_;
};

class Module {
 public:
  explicit Module(cfront::TypeContext& types) : types_(types) {}
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] cfront::TypeContext& types() const { return types_; }

  Function* getOrCreateFunction(const std::string& name,
                                const cfront::FunctionType* type);
  [[nodiscard]] Function* findFunction(const std::string& name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Function>>& functions()
      const {
    return functions_;
  }

  GlobalVar* getOrCreateGlobal(const std::string& name,
                               const Type* value_type, SourceLocation loc);
  [[nodiscard]] GlobalVar* findGlobal(const std::string& name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<GlobalVar>>& globals()
      const {
    return globals_;
  }

  // Constant pool — constants are uniqued per (value, type).
  ConstantInt* constantInt(std::int64_t value, const Type* type);
  ConstantFloat* constantFloat(double value, const Type* type);
  ConstantString* constantString(std::string text);
  Undef* undef(const Type* type);

 private:
  cfront::TypeContext& types_;
  std::vector<std::unique_ptr<Function>> functions_;
  std::vector<std::unique_ptr<GlobalVar>> globals_;
  std::map<std::string, Function*> function_map_;
  std::map<std::string, GlobalVar*> global_map_;
  std::map<std::pair<std::int64_t, const Type*>, std::unique_ptr<ConstantInt>>
      int_constants_;
  std::vector<std::unique_ptr<ConstantFloat>> float_constants_;
  std::vector<std::unique_ptr<ConstantString>> string_constants_;
  std::map<const Type*, std::unique_ptr<Undef>> undefs_;
};

/// Names of the annotation intrinsics emitted by the lowerer.
inline constexpr std::string_view kIntrinsicAssumeCore =
    "safeflow.assume.core";
inline constexpr std::string_view kIntrinsicAssertSafe =
    "safeflow.assert.safe";
inline constexpr std::string_view kIntrinsicShmVar = "safeflow.shmvar";
inline constexpr std::string_view kIntrinsicNonCore = "safeflow.noncore";

}  // namespace safeflow::ir
