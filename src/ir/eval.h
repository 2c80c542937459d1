// Scalar evaluation helpers shared by the two IR execution engines.
//
// The reference interpreter (interp.cc) and the decoded micro-op bodies
// (exec/ops.h) must produce bit-identical results; keeping truncation
// and comparison semantics in one header is what prevents them drifting.

#ifndef SGXBOUNDS_SRC_IR_EVAL_H_
#define SGXBOUNDS_SRC_IR_EVAL_H_

#include <cstdint>

#include "src/ir/ir.h"

namespace sgxb {

inline uint64_t TruncateToType(IrType type, uint64_t value) {
  switch (type) {
    case IrType::kI8:
      return value & 0xff;
    case IrType::kI16:
      return value & 0xffff;
    case IrType::kI32:
      return value & 0xffffffff;
    case IrType::kI64:
    case IrType::kPtr:
      return value;
  }
  return value;
}

inline bool EvalCmp(IrCmp pred, uint64_t a, uint64_t b) {
  const int64_t sa = static_cast<int64_t>(a);
  const int64_t sb = static_cast<int64_t>(b);
  switch (pred) {
    case IrCmp::kEq:
      return a == b;
    case IrCmp::kNe:
      return a != b;
    case IrCmp::kULt:
      return a < b;
    case IrCmp::kULe:
      return a <= b;
    case IrCmp::kUGt:
      return a > b;
    case IrCmp::kUGe:
      return a >= b;
    case IrCmp::kSLt:
      return sa < sb;
    case IrCmp::kSLe:
      return sa <= sb;
    case IrCmp::kSGt:
      return sa > sb;
    case IrCmp::kSGe:
      return sa >= sb;
  }
  return false;
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_EVAL_H_
