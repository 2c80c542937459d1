// Lowers an IrFunction into the flat micro-op form executed by the
// direct-threaded engine (see uop.h for the representation contract).

#ifndef SGXBOUNDS_SRC_IR_EXEC_DECODER_H_
#define SGXBOUNDS_SRC_IR_EXEC_DECODER_H_

#include "src/ir/exec/uop.h"

namespace sgxb {

// One-shot lowering: resolves operands to slots, compiles phis into edge
// copies, fuses superinstructions. FATALs on structurally invalid functions
// (missing terminator, non-leading phi) - the same programs the reference
// interpreter FATALs/CHECKs on. `track_mpx` decodes for an attached
// MpxRuntime: phi/gep/alloca/malloc then propagate bounds in the side table
// as the reference does, and the gep+maskptr access shapes do not fuse
// (their fused forms do not carry bounds through the gep). Counted in
// GlobalIrExecStats().decode_misses.
DecodedFunction DecodeFunction(const IrFunction& fn, bool track_mpx = false);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_EXEC_DECODER_H_
