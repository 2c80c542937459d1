#include "src/ir/builder.h"

#include "src/common/check.h"

namespace sgxb {

IrBuilder::IrBuilder(const std::string& name, uint32_t num_args) {
  fn_.name = name;
  fn_.num_args = num_args;
  fn_.blocks.emplace_back();  // entry = bb0
  current_ = 0;
}

IrFunction IrBuilder::Finish() {
  const std::string problem = fn_.Verify();
  if (!problem.empty()) {
    FATAL("IR verification failed for " + fn_.name + ": " + problem);
  }
  return std::move(fn_);
}

IrInstr& IrBuilder::Append(IrInstr instr) {
  fn_.blocks[current_].instrs.push_back(std::move(instr));
  return fn_.blocks[current_].instrs.back();
}

ValueId IrBuilder::Const(int64_t value) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kConst;
  instr.imm = value;
  return Append(std::move(instr)).id;
}

ValueId IrBuilder::Arg(uint32_t index) {
  CHECK_LT(index, fn_.num_args);
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kArg;
  instr.imm = index;
  return Append(std::move(instr)).id;
}

ValueId IrBuilder::Bin(IrOp op, ValueId a, ValueId b) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = op;
  instr.args = {a, b};
  return Append(std::move(instr)).id;
}

ValueId IrBuilder::Cmp(IrCmp pred, ValueId a, ValueId b) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kICmp;
  instr.args = {a, b};
  instr.imm = static_cast<int64_t>(pred);
  return Append(std::move(instr)).id;
}

ValueId IrBuilder::Alloca(uint32_t bytes) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kAlloca;
  instr.type = IrType::kPtr;
  instr.imm = bytes;
  return Append(std::move(instr)).id;
}

ValueId IrBuilder::Malloc(ValueId size) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kMalloc;
  instr.type = IrType::kPtr;
  instr.args = {size};
  return Append(std::move(instr)).id;
}

void IrBuilder::Free(ValueId ptr) {
  IrInstr instr;
  instr.op = IrOp::kFree;
  instr.args = {ptr};
  Append(std::move(instr));
}

ValueId IrBuilder::Gep(ValueId base, ValueId index, uint32_t scale, uint32_t offset) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kGep;
  instr.type = IrType::kPtr;
  instr.args = {base, index};
  instr.imm = scale;
  instr.imm2 = offset;
  return Append(std::move(instr)).id;
}

ValueId IrBuilder::Load(IrType type, ValueId ptr) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kLoad;
  instr.type = type;
  instr.args = {ptr};
  return Append(std::move(instr)).id;
}

void IrBuilder::Store(IrType type, ValueId value, ValueId ptr) {
  IrInstr instr;
  instr.op = IrOp::kStore;
  instr.type = type;
  instr.args = {value, ptr};
  Append(std::move(instr));
}

uint32_t IrBuilder::NewBlock() {
  fn_.blocks.emplace_back();
  return static_cast<uint32_t>(fn_.blocks.size() - 1);
}

void IrBuilder::SetBlock(uint32_t block) {
  CHECK_LT(block, fn_.blocks.size());
  current_ = block;
}

void IrBuilder::Br(uint32_t target) {
  IrInstr instr;
  instr.op = IrOp::kBr;
  instr.imm = target;
  Append(std::move(instr));
  fn_.blocks[target].preds.push_back(current_);
}

void IrBuilder::CondBr(ValueId cond, uint32_t on_true, uint32_t on_false) {
  IrInstr instr;
  instr.op = IrOp::kCondBr;
  instr.args = {cond};
  instr.imm = on_true;
  instr.imm2 = on_false;
  Append(std::move(instr));
  fn_.blocks[on_true].preds.push_back(current_);
  fn_.blocks[on_false].preds.push_back(current_);
}

void IrBuilder::Ret(ValueId value) {
  IrInstr instr;
  instr.op = IrOp::kRet;
  if (value != 0) {
    instr.args = {value};
  }
  Append(std::move(instr));
}

ValueId IrBuilder::Phi(IrType type, std::vector<ValueId> incoming) {
  IrInstr instr;
  instr.id = NextId();
  instr.op = IrOp::kPhi;
  instr.type = type;
  instr.args = std::move(incoming);
  // Phis must precede non-phi instructions: insert at the front group.
  auto& instrs = fn_.blocks[current_].instrs;
  size_t pos = 0;
  while (pos < instrs.size() && instrs[pos].op == IrOp::kPhi) {
    ++pos;
  }
  instrs.insert(instrs.begin() + pos, instr);
  return instr.id;
}

IrBuilder::Loop IrBuilder::BeginCountedLoop(ValueId start, ValueId bound, int64_t step) {
  Loop loop;
  loop.preheader = current_;
  loop.header = NewBlock();
  loop.body = NewBlock();
  loop.exit = NewBlock();
  loop.bound = bound;
  loop.step = step;

  Br(loop.header);
  SetBlock(loop.header);
  // Incoming from preheader now; latch value patched in EndLoop.
  loop.phi_index = 0;
  loop.iv = Phi(IrType::kI64, {start});
  const ValueId cond = Cmp(IrCmp::kSLt, loop.iv, bound);
  CondBr(cond, loop.body, loop.exit);
  SetBlock(loop.body);
  return loop;
}

void IrBuilder::EndLoop(Loop& loop) {
  // Latch: iv_next = iv + step; br header.
  const ValueId step_val = Const(loop.step);
  const ValueId next = Add(loop.iv, step_val);
  Br(loop.header);
  // Patch the phi with the latch incoming value.
  IrBlock& header = fn_.blocks[loop.header];
  for (auto& instr : header.instrs) {
    if (instr.op == IrOp::kPhi && instr.id == loop.iv) {
      instr.args.push_back(next);
      break;
    }
  }
  SetBlock(loop.exit);
}

}  // namespace sgxb
