#include "src/ir/ir.h"

#include <sstream>

namespace sgxb {

uint32_t IrTypeSize(IrType type) {
  switch (type) {
    case IrType::kI8:
      return 1;
    case IrType::kI16:
      return 2;
    case IrType::kI32:
      return 4;
    case IrType::kI64:
    case IrType::kPtr:
      return 8;
  }
  return 8;
}

const char* IrTypeName(IrType type) {
  switch (type) {
    case IrType::kI8:
      return "i8";
    case IrType::kI16:
      return "i16";
    case IrType::kI32:
      return "i32";
    case IrType::kI64:
      return "i64";
    case IrType::kPtr:
      return "ptr";
  }
  return "?";
}

const char* IrOpName(IrOp op) {
  switch (op) {
    case IrOp::kConst:
      return "const";
    case IrOp::kArg:
      return "arg";
    case IrOp::kAdd:
      return "add";
    case IrOp::kSub:
      return "sub";
    case IrOp::kMul:
      return "mul";
    case IrOp::kUDiv:
      return "udiv";
    case IrOp::kURem:
      return "urem";
    case IrOp::kAnd:
      return "and";
    case IrOp::kOr:
      return "or";
    case IrOp::kXor:
      return "xor";
    case IrOp::kShl:
      return "shl";
    case IrOp::kLShr:
      return "lshr";
    case IrOp::kICmp:
      return "icmp";
    case IrOp::kPhi:
      return "phi";
    case IrOp::kBr:
      return "br";
    case IrOp::kCondBr:
      return "condbr";
    case IrOp::kRet:
      return "ret";
    case IrOp::kAlloca:
      return "alloca";
    case IrOp::kMalloc:
      return "malloc";
    case IrOp::kFree:
      return "free";
    case IrOp::kGep:
      return "gep";
    case IrOp::kLoad:
      return "load";
    case IrOp::kStore:
      return "store";
    case IrOp::kMaskPtr:
      return "sgx.maskptr";
    case IrOp::kMpxCheck:
      return "mpx.check";
    case IrOp::kMpxLdx:
      return "mpx.bndldx";
    case IrOp::kMpxStx:
      return "mpx.bndstx";
    case IrOp::kSchemeCheck:
      return "scheme.check";
    case IrOp::kSchemeCheckRange:
      return "scheme.check.range";
  }
  return "?";
}

std::string IrFunction::ToString() const {
  std::ostringstream os;
  os << "func @" << name << "(" << num_args << " args)\n";
  for (size_t b = 0; b < blocks.size(); ++b) {
    os << "bb" << b << ":";
    if (!blocks[b].preds.empty()) {
      os << "  ; preds:";
      for (uint32_t p : blocks[b].preds) {
        os << " bb" << p;
      }
    }
    os << "\n";
    for (const auto& instr : blocks[b].instrs) {
      os << "  ";
      if (instr.id != 0) {
        os << "%" << instr.id << " = ";
      }
      os << IrOpName(instr.op) << " " << IrTypeName(instr.type);
      for (ValueId a : instr.args) {
        os << " %" << a;
      }
      if (instr.imm != 0 || instr.op == IrOp::kConst || instr.op == IrOp::kBr ||
          instr.op == IrOp::kCondBr) {
        os << " #" << instr.imm;
      }
      if (instr.imm2 != 0) {
        os << " ##" << instr.imm2;
      }
      if (!instr.symbol.empty()) {
        os << " @" << instr.symbol;
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string IrFunction::Verify() const {
  if (blocks.empty()) {
    return "function has no blocks";
  }
  for (size_t b = 0; b < blocks.size(); ++b) {
    const IrBlock& block = blocks[b];
    if (block.instrs.empty()) {
      return "empty block bb" + std::to_string(b);
    }
    const IrOp term = block.instrs.back().op;
    if (term != IrOp::kBr && term != IrOp::kCondBr && term != IrOp::kRet) {
      return "bb" + std::to_string(b) + " lacks a terminator";
    }
    bool seen_non_phi = false;
    for (const auto& instr : block.instrs) {
      if (instr.op == IrOp::kPhi) {
        if (seen_non_phi) {
          return "phi after non-phi in bb" + std::to_string(b);
        }
        if (instr.args.size() != block.preds.size()) {
          return "phi arity mismatch in bb" + std::to_string(b);
        }
      } else {
        seen_non_phi = true;
      }
      for (ValueId a : instr.args) {
        if (a == 0 || a >= num_values) {
          return "operand out of range in bb" + std::to_string(b);
        }
      }
      if (instr.op == IrOp::kBr && instr.imm >= static_cast<int64_t>(blocks.size())) {
        return "branch target out of range";
      }
      if (instr.op == IrOp::kCondBr &&
          (instr.imm >= static_cast<int64_t>(blocks.size()) ||
           instr.imm2 >= static_cast<int64_t>(blocks.size()))) {
        return "condbr target out of range";
      }
    }
  }
  return "";
}

size_t IrFunction::CountOp(IrOp op) const {
  size_t n = 0;
  for (const auto& block : blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.op == op) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace sgxb
