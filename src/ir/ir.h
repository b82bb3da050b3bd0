// Typed three-address IR, structurally similar to (a small subset of) the
// LLVM IR the paper's prototype analyzed: a Module of Functions, each a CFG
// of BasicBlocks holding Instructions. After the mem2reg/SSA pass, scalar
// locals are in SSA form with Phi nodes; aggregates stay in memory and are
// addressed through FieldAddr/IndexAddr (GEP-like) instructions.
//
// Types are shared with the front end (const cfront::Type*).
//
// Ownership: the Module owns an arena (a std::pmr::monotonic_buffer_resource)
// and every IR object comes from it: Arguments, Instructions, BasicBlocks,
// Functions, GlobalVars, the constants and each Function's CfgInfo. The
// lists inside them (operands, block refs, a block's instructions, a
// function's blocks and arguments, CfgInfo's arrays) are std::pmr vectors
// on the same arena. Every link is a non-owning pointer and no destructor
// of an arena object ever runs: destroying the Module frees the arena's
// chunks at once. Names and labels are views into the SourceManager the
// program was parsed from, into string literals, or into copies in the
// arena (Module::copyString); nothing in the IR points into the AST.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] std::string_view name() const { return name_; }
  /// `name` must outlive the module: a view into the SourceManager, a
  /// string literal or a Module::copyString copy.
  void setName(std::string_view name) { name_ = name; }

  [[nodiscard]] bool isInstruction() const {
    return kind_ == Kind::kInstruction;
  }

 protected:
  Value(Kind kind, const Type* type, std::string_view name = {})
      : kind_(kind), type_(type), name_(name) {}
  // Not virtual: nothing deletes a value through a base pointer.
  ~Value() = default;

 private:
  Kind kind_;
  const Type* type_;
  std::string_view name_;
};

class Argument final : public Value {
 public:
  Argument(const Type* type, std::string_view name, Function* parent,
           unsigned index)
      : Value(Kind::kArgument, type, name),
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
  ConstantString(std::string_view text, const Type* type)
      : Value(Kind::kConstantString, type), text_(text) {}
  [[nodiscard]] std::string_view text() const { return text_; }

 private:
  std::string_view text_;
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
  GlobalVar(std::string_view name, const Type* value_type,
            const Type* pointer_type, SourceLocation loc)
      : Value(Kind::kGlobalVar, pointer_type, name),
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
  /// Lists allocate from `arena`: the module's (Module::createInstruction),
  /// or the heap for an instruction outside any module.
  Instruction(Opcode op, const Type* type, SourceLocation loc,
              std::pmr::memory_resource* arena)
      : Value(Kind::kInstruction, type),
        block_refs(arena),
        opcode_(op),
        loc_(loc),
        operands_(arena) {}

  [[nodiscard]] Opcode opcode() const { return opcode_; }
  [[nodiscard]] SourceLocation location() const { return loc_; }
  [[nodiscard]] BasicBlock* parent() const { return parent_; }
  void setParent(BasicBlock* bb) { parent_ = bb; }

  [[nodiscard]] const std::pmr::vector<Value*>& operands() const {
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
  std::pmr::vector<BasicBlock*> block_refs;

  [[nodiscard]] bool isTerminator() const {
    return opcode_ == Opcode::kBr || opcode_ == Opcode::kCondBr ||
           opcode_ == Opcode::kRet;
  }

 private:
  Opcode opcode_;
  SourceLocation loc_;
  BasicBlock* parent_ = nullptr;
  std::pmr::vector<Value*> operands_;
};

// ---------------------------------------------------------------------------
// BasicBlock / Function / Module
// ---------------------------------------------------------------------------

class BasicBlock {
 public:
  /// `label` must outlive the module, as a Value name must.
  BasicBlock(std::string_view label, Function* parent, std::uint32_t index,
             std::pmr::memory_resource* arena)
      : label_(label), parent_(parent), index_(index), insts_(arena) {}

  [[nodiscard]] std::string_view label() const { return label_; }
  [[nodiscard]] Function* parent() const { return parent_; }
  /// Position in the parent's block list (layout order).
  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const std::pmr::vector<Instruction*>& instructions() const {
    return insts_;
  }

  Instruction* append(Instruction* inst);
  Instruction* prepend(Instruction* inst);
  /// Inserts `insts`, in order, ahead of the block's first instruction.
  void prepend(std::span<Instruction* const> insts);
  /// Removes the instruction; it must belong to this block. Its memory
  /// stays in the arena (poisoned under AddressSanitizer, so a dangling
  /// operand is still caught).
  void erase(Instruction* inst);
  /// Removes every instruction `pred` holds for, in one pass over the
  /// block, as erase() does.
  template <typename Pred>
  void eraseIf(Pred pred) {
    std::erase_if(insts_, [&pred](Instruction* inst) {
      if (!pred(static_cast<const Instruction*>(inst))) return false;
      poison(inst);
      return true;
    });
  }

  [[nodiscard]] Instruction* terminator() const;
  /// The terminator's targets (a view of its block refs); empty while the
  /// block has no terminator.
  [[nodiscard]] std::span<BasicBlock* const> successors() const;

 private:
  /// Marks an erased instruction's bytes unaddressable under ASan.
  static void poison([[maybe_unused]] Instruction* inst) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(inst, sizeof(Instruction));
#endif
  }

  std::string_view label_;
  Function* parent_;
  std::uint32_t index_;
  std::pmr::vector<Instruction*> insts_;
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
  /// `name` must outlive the module (Module::getOrCreateFunction copies
  /// it into the arena).
  Function(std::string_view name, const cfront::FunctionType* type,
           Module* parent);

  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] const cfront::FunctionType* functionType() const {
    return type_;
  }
  [[nodiscard]] Module* parent() const { return parent_; }
  [[nodiscard]] bool isDefined() const { return !blocks_.empty(); }

  [[nodiscard]] const std::pmr::vector<Argument*>& args() const {
    return args_;
  }
  /// `name` must outlive the module, as a Value name must.
  Argument* addArg(const Type* type, std::string_view name);

  [[nodiscard]] const std::pmr::vector<BasicBlock*>& blocks() const {
    return blocks_;
  }
  [[nodiscard]] BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front();
  }
  /// `label` must outlive the module, as a Value name must.
  BasicBlock* createBlock(std::string_view label);

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
    return name_.starts_with("safeflow.");
  }

 private:
  std::string_view name_;
  const cfront::FunctionType* type_;
  Module* parent_;
  std::pmr::vector<Argument*> args_;
  std::pmr::vector<BasicBlock*> blocks_;
  mutable const CfgInfo* cfg_ = nullptr;
};

class Module {
 public:
  explicit Module(cfront::TypeContext& types) : types_(types) {}
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] cfront::TypeContext& types() const { return types_; }

  /// The arena every IR object and list of this module allocates from.
  [[nodiscard]] std::pmr::memory_resource* arena() { return &arena_; }
  /// Constructs a T in the arena. Its destructor never runs, so T must
  /// own no memory outside the arena.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    return ::new (arena_.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }
  /// A copy of `text` in the arena, for names the program builds.
  std::string_view copyString(std::string_view text);
  /// A new instruction whose lists allocate from the arena.
  Instruction* createInstruction(Opcode op, const Type* type,
                                 SourceLocation loc) {
    return create<Instruction>(op, type, loc, arena());
  }

  Function* getOrCreateFunction(std::string_view name,
                                const cfront::FunctionType* type);
  [[nodiscard]] Function* findFunction(std::string_view name) const;
  [[nodiscard]] const std::vector<Function*>& functions() const {
    return functions_;
  }

  GlobalVar* getOrCreateGlobal(std::string_view name, const Type* value_type,
                               SourceLocation loc);
  [[nodiscard]] GlobalVar* findGlobal(std::string_view name) const;
  [[nodiscard]] const std::vector<GlobalVar*>& globals() const {
    return globals_;
  }

  // Constant pool. Integer constants are uniqued per (value, type) and
  // undef per type; each float and string constant is a new value.
  ConstantInt* constantInt(std::int64_t value, const Type* type);
  ConstantFloat* constantFloat(double value, const Type* type);
  /// Copies `text` into the arena.
  ConstantString* constantString(std::string_view text);
  Undef* undef(const Type* type);

 private:
  cfront::TypeContext& types_;
  // Declared before everything that points into it.
  std::pmr::monotonic_buffer_resource arena_;
  std::vector<Function*> functions_;
  std::vector<GlobalVar*> globals_;
  // Keys view the names of the values they map to.
  std::map<std::string_view, Function*> function_map_;
  std::map<std::string_view, GlobalVar*> global_map_;
  std::map<std::pair<std::int64_t, const Type*>, ConstantInt*> int_constants_;
  std::map<const Type*, Undef*> undefs_;
};

// Arena objects never have their destructors run. These hold no list, so
// the compiler can check that skipping the destructor leaks nothing; the
// types with arena lists (Instruction, BasicBlock, Function, CfgInfo) are
// left to LeakSanitizer, which sees any heap memory they come to own.
static_assert(std::is_trivially_destructible_v<Argument>);
static_assert(std::is_trivially_destructible_v<ConstantInt>);
static_assert(std::is_trivially_destructible_v<ConstantFloat>);
static_assert(std::is_trivially_destructible_v<ConstantString>);
static_assert(std::is_trivially_destructible_v<Undef>);
static_assert(std::is_trivially_destructible_v<GlobalVar>);

/// Names of the annotation intrinsics emitted by the lowerer.
inline constexpr std::string_view kIntrinsicAssumeCore =
    "safeflow.assume.core";
inline constexpr std::string_view kIntrinsicAssertSafe =
    "safeflow.assert.safe";
inline constexpr std::string_view kIntrinsicShmVar = "safeflow.shmvar";
inline constexpr std::string_view kIntrinsicNonCore = "safeflow.noncore";

}  // namespace safeflow::ir
