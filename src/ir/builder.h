// Convenience builder for IR functions, including the canonical loop shape
// the scalar-evolution analysis recognizes:
//
//   preheader:  br header
//   header:     iv = phi [start from preheader, next from latch]
//               c = icmp slt iv, bound ; condbr c body exit
//   body..latch: ... ; next = add iv, step ; br header
//
// IrBuilder::BeginCountedLoop/EndLoop emit exactly this shape.

#ifndef SGXBOUNDS_SRC_IR_BUILDER_H_
#define SGXBOUNDS_SRC_IR_BUILDER_H_

#include "src/ir/ir.h"

namespace sgxb {

class IrBuilder {
 public:
  explicit IrBuilder(const std::string& name, uint32_t num_args = 0);

  IrFunction Finish();

  // --- values -----------------------------------------------------------------
  ValueId Const(int64_t value);
  ValueId Arg(uint32_t index);
  ValueId Bin(IrOp op, ValueId a, ValueId b);
  ValueId Add(ValueId a, ValueId b) { return Bin(IrOp::kAdd, a, b); }
  ValueId Sub(ValueId a, ValueId b) { return Bin(IrOp::kSub, a, b); }
  ValueId Mul(ValueId a, ValueId b) { return Bin(IrOp::kMul, a, b); }
  ValueId Cmp(IrCmp pred, ValueId a, ValueId b);

  // --- memory -----------------------------------------------------------------
  ValueId Alloca(uint32_t bytes);
  ValueId Malloc(ValueId size);
  void Free(ValueId ptr);
  ValueId Gep(ValueId base, ValueId index, uint32_t scale, uint32_t offset = 0);
  ValueId Load(IrType type, ValueId ptr);
  void Store(IrType type, ValueId value, ValueId ptr);

  // --- control flow -------------------------------------------------------------
  uint32_t NewBlock();
  void SetBlock(uint32_t block);
  uint32_t current_block() const { return current_; }
  void Br(uint32_t target);
  void CondBr(ValueId cond, uint32_t on_true, uint32_t on_false);
  void Ret(ValueId value = 0);
  ValueId Phi(IrType type, std::vector<ValueId> incoming);

  // --- structured counted loop ----------------------------------------------------
  struct Loop {
    uint32_t preheader;
    uint32_t header;
    uint32_t body;
    uint32_t exit;
    ValueId iv;
    // Internal state for EndLoop.
    ValueId bound;
    int64_t step;
    size_t phi_index;
  };

  // Emits the preheader jump and loop header; leaves the builder positioned
  // in the body block with `iv` available. Iterates iv = start; iv < bound;
  // iv += step.
  Loop BeginCountedLoop(ValueId start, ValueId bound, int64_t step);
  // Emits the latch (iv increment, back-edge) and positions at the exit.
  void EndLoop(Loop& loop);

 private:
  IrInstr& Append(IrInstr instr);
  ValueId NextId() { return fn_.num_values++; }

  IrFunction fn_;
  uint32_t current_ = 0;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_BUILDER_H_
