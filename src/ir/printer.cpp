#include "ir/printer.h"

#include <map>
#include <sstream>

namespace safeflow::ir {

namespace {

class Printer {
 public:
  std::string printFunction(const Function& fn) {
    std::ostringstream out;
    out << (fn.isDefined() ? "define " : "declare ")
        << fn.functionType()->returnType()->str() << " @" << fn.name()
        << "(";
    for (std::size_t i = 0; i < fn.args().size(); ++i) {
      if (i != 0) out << ", ";
      out << fn.args()[i]->type()->str() << " %" << fn.args()[i]->name();
    }
    out << ")";
    if (fn.annotations.is_shminit) out << " shminit";
    if (fn.annotations.is_monitor) out << " monitor";
    if (!fn.isDefined()) {
      out << "\n";
      return out.str();
    }
    out << " {\n";
    // Assign names to unnamed instructions.
    unsigned counter = 0;
    for (const BasicBlock* bb : fn.blocks()) {
      for (const Instruction* inst : bb->instructions()) {
        names_[inst] = inst->name().empty()
                           ? "%t" + std::to_string(counter++)
                           : "%" + std::string(inst->name());
      }
    }
    for (const BasicBlock* bb : fn.blocks()) {
      out << bb->label() << ":\n";
      for (const Instruction* inst : bb->instructions()) {
        out << "  " << printInst(*inst) << "\n";
      }
    }
    out << "}\n";
    return out.str();
  }

 private:
  std::string valueName(const Value* v) {
    switch (v->kind()) {
      case Value::Kind::kConstantInt:
        return std::to_string(static_cast<const ConstantInt*>(v)->value());
      case Value::Kind::kConstantFloat: {
        std::ostringstream ss;
        ss << static_cast<const ConstantFloat*>(v)->value();
        return ss.str();
      }
      case Value::Kind::kConstantString:
        return "\"" +
               std::string(static_cast<const ConstantString*>(v)->text()) +
               "\"";
      case Value::Kind::kGlobalVar:
      case Value::Kind::kFunction:
        return "@" + std::string(v->name());
      case Value::Kind::kArgument:
        return "%" + std::string(v->name());
      case Value::Kind::kUndef:
        return "undef";
      case Value::Kind::kInstruction: {
        auto it = names_.find(static_cast<const Instruction*>(v));
        return it == names_.end() ? "%?" : it->second;
      }
    }
    return "?";
  }

  std::string printInst(const Instruction& inst) {
    std::ostringstream out;
    const std::string self = names_[&inst];
    switch (inst.opcode()) {
      case Opcode::kAlloca:
        out << self << " = alloca " << inst.allocated_type->str();
        break;
      case Opcode::kLoad:
        out << self << " = load " << inst.type()->str() << ", "
            << valueName(inst.operand(0));
        break;
      case Opcode::kStore:
        out << "store " << valueName(inst.operand(0)) << ", "
            << valueName(inst.operand(1));
        break;
      case Opcode::kBinOp: {
        static constexpr const char* kNames[] = {
            "add", "sub", "mul", "div", "rem",
            "and", "or",  "xor", "shl", "shr"};
        out << self << " = " << kNames[static_cast<int>(inst.bin_op)] << " "
            << valueName(inst.operand(0)) << ", "
            << valueName(inst.operand(1));
        break;
      }
      case Opcode::kUnOp: {
        static constexpr const char* kNames[] = {"neg", "not", "bitnot"};
        out << self << " = " << kNames[static_cast<int>(inst.un_op)] << " "
            << valueName(inst.operand(0));
        break;
      }
      case Opcode::kCmp: {
        static constexpr const char* kNames[] = {"lt", "gt", "le",
                                                 "ge", "eq", "ne"};
        out << self << " = cmp " << kNames[static_cast<int>(inst.cmp_op)]
            << " " << valueName(inst.operand(0)) << ", "
            << valueName(inst.operand(1));
        break;
      }
      case Opcode::kCast:
        out << self << " = cast " << valueName(inst.operand(0)) << " to "
            << inst.type()->str();
        break;
      case Opcode::kFieldAddr:
        out << self << " = fieldaddr " << valueName(inst.operand(0)) << ", #"
            << inst.field_index;
        break;
      case Opcode::kIndexAddr:
        out << self << " = indexaddr " << valueName(inst.operand(0)) << ", "
            << valueName(inst.operand(1));
        break;
      case Opcode::kCall: {
        if (!inst.type()->isVoid()) out << self << " = ";
        out << "call ";
        std::size_t first_arg = 0;
        if (inst.direct_callee != nullptr) {
          out << "@" << inst.direct_callee->name();
        } else {
          out << valueName(inst.operand(0)) << " (indirect)";
          first_arg = 1;
        }
        out << "(";
        for (std::size_t i = first_arg; i < inst.numOperands(); ++i) {
          if (i != first_arg) out << ", ";
          out << valueName(inst.operand(i));
        }
        out << ")";
        break;
      }
      case Opcode::kPhi:
        out << self << " = phi";
        for (std::size_t i = 0; i < inst.numOperands(); ++i) {
          out << (i == 0 ? " " : ", ") << "["
              << valueName(inst.operand(i)) << ", "
              << (i < inst.block_refs.size() ? inst.block_refs[i]->label()
                                             : "?")
              << "]";
        }
        break;
      case Opcode::kBr:
        out << "br " << inst.block_refs[0]->label();
        break;
      case Opcode::kCondBr:
        out << "condbr " << valueName(inst.operand(0)) << ", "
            << inst.block_refs[0]->label() << ", "
            << inst.block_refs[1]->label();
        break;
      case Opcode::kRet:
        out << "ret";
        if (inst.numOperands() > 0) out << " " << valueName(inst.operand(0));
        break;
    }
    return out.str();
  }

  std::map<const Instruction*, std::string> names_;
};

}  // namespace

std::string print(const Function& fn) {
  Printer p;
  return p.printFunction(fn);
}

std::string print(const Module& module) {
  std::ostringstream out;
  for (const GlobalVar* g : module.globals()) {
    out << "@" << g->name() << " : " << g->valueType()->str() << "\n";
  }
  out << "\n";
  for (const Function* fn : module.functions()) {
    out << print(*fn) << "\n";
  }
  return out.str();
}

}  // namespace safeflow::ir
