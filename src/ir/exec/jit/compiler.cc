// Per-op x86-64 templates for the JIT tier. See jit_frame.h for the register
// pinning and the helper-call protocol; every inline template reproduces the
// op's shared body (ExecOp in exec/ops.h) - same step accounting, same
// pending-charge increments, same value write-back order. Loads and stores
// (tier 2) and MPX and ASan checks (tier 3) reproduce it only on the path
// their guard admits and call the body for everything else: a guard tests
// and changes nothing, so the body runs the op from the start (DESIGN §12).
// Tier 2's guard and commit are defined once, in C++, by ops.h
// (GuestAccessSet, CommitGuestAccess), which the threaded engine runs; the
// templates below mirror them.
// Run with SGXB_IR_JIT_HELPER_ONLY=1 to route every op through those bodies
// instead and cross-check the templates against them.

#include "src/ir/exec/jit/compiler.h"

#include <chrono>
#include <cstddef>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/ir_engine.h"
#include "src/common/units.h"
#include "src/ir/exec/jit/assembler.h"
#include "src/mpx/mpx_runtime.h"
#include "src/sim/perf_counters.h"

namespace sgxb {
namespace jit {

namespace {

// Pinned registers (all callee-saved; see jit_frame.h).
constexpr Reg kFrame = RBX;
constexpr Reg kSlots = R12;
constexpr Reg kSteps = R13;
constexpr Reg kPendAlu = R14;
constexpr Reg kPendBranch = RBP;
constexpr Reg kMaxSteps = R15;

#define SGXB_JIT_OFF(field) static_cast<int32_t>(offsetof(JitFrame, field))
#define SGXB_JIT_EV(field) static_cast<int32_t>(offsetof(PerfCounters, field))

// The inline bounds copy moves one MpxBounds as a single qword.
static_assert(sizeof(MpxBounds) == 8, "MpxBounds is copied as one 8-byte move");

bool FitsInt32(int64_t x) { return x >= INT32_MIN && x <= INT32_MAX; }

Cond CondFor(IrCmp pred) {
  switch (pred) {
    case IrCmp::kEq:
      return kCondE;
    case IrCmp::kNe:
      return kCondNE;
    case IrCmp::kULt:
      return kCondB;
    case IrCmp::kULe:
      return kCondBE;
    case IrCmp::kUGt:
      return kCondA;
    case IrCmp::kUGe:
      return kCondAE;
    case IrCmp::kSLt:
      return kCondL;
    case IrCmp::kSLe:
      return kCondLE;
    case IrCmp::kSGt:
      return kCondG;
    case IrCmp::kSGe:
      return kCondGE;
  }
  FATAL("invalid IrCmp predicate");
}

bool HelperOnlyMode() {
  const char* env = std::getenv("SGXB_IR_JIT_HELPER_ONLY");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

class Compiler {
 public:
  Compiler(const DecodedFunction& df, JitProgram* out)
      : df_(df), out_(out), helper_only_(HelperOnlyMode()) {}

  void Compile() {
    // Slot displacements are baked as disp32: cap the slot count well below
    // the 2^31 byte limit (never hit in practice - SSA ids per function).
    CHECK(df_.num_slots < (1u << 27));
    EmitPrologue();
    uop_pos_.resize(df_.code.size());
    for (size_t i = 0; i < df_.code.size(); ++i) {
      uop_pos_[i] = a_.size();
      EmitOp(i);
    }
    // The decoder guarantees every path ends in kRet/branch; trap loudly if
    // generated code ever falls off the stream (ud2).
    a_.U8(0x0F);
    a_.U8(0x0B);
    EmitColdPaths();
    EmitStubsAndEpilogue();
    PatchJumps();
    out_->native_bytes = a_.size();
  }

  const X64Assembler& assembler() const { return a_; }

 private:
  // --- emission helpers ----------------------------------------------------

  int32_t SlotDisp(uint32_t slot) const {
    CHECK(slot < df_.num_slots);
    return static_cast<int32_t>(slot) * 8;
  }

  void LoadSlot(Reg r, uint32_t slot) { a_.MovRegMem(r, kSlots, SlotDisp(slot)); }
  void StoreSlot(uint32_t slot, Reg r) { a_.MovMemReg(kSlots, SlotDisp(slot), r); }

  void LoadImm(Reg r, uint64_t imm) {
    if (imm <= 0xffffffffull) {
      a_.MovReg32Imm32(r, static_cast<uint32_t>(imm));
    } else {
      a_.MovRegImm64(r, imm);
    }
  }

  // ++steps; if (steps > max_steps) -> step-limit stub.
  void Step() {
    a_.IncReg(kSteps);
    a_.CmpRegReg(kSteps, kMaxSteps);
    step_fixups_.push_back(a_.JccRel32(kCondA));
  }

  void SpillHot() {
    a_.MovMemReg(kFrame, SGXB_JIT_OFF(steps), kSteps);
    a_.MovMemReg(kFrame, SGXB_JIT_OFF(pend_alu), kPendAlu);
    a_.MovMemReg(kFrame, SGXB_JIT_OFF(pend_branch), kPendBranch);
  }
  void ReloadHot() {
    a_.MovRegMem(kSteps, kFrame, SGXB_JIT_OFF(steps));
    a_.MovRegMem(kPendAlu, kFrame, SGXB_JIT_OFF(pend_alu));
    a_.MovRegMem(kPendBranch, kFrame, SGXB_JIT_OFF(pend_branch));
  }

  // rax = rax OP imm, matching 64-bit wrapping semantics exactly.
  // `ext` is the group-1 /ext; `rr` the r64,r/m64 opcode for the wide case.
  void AluImm(uint8_t ext, uint8_t rr, int64_t imm) {
    if (FitsInt32(imm)) {
      a_.AluRegImm32(ext, RAX, static_cast<int32_t>(imm));
    } else {
      LoadImm(RCX, static_cast<uint64_t>(imm));
      a_.AluRegReg(rr, RAX, RCX);
    }
  }

  void MulImm(Reg r, int64_t imm) {
    if (imm == 1) {
      return;
    }
    if (FitsInt32(imm)) {
      a_.ImulRegRegImm32(r, r, static_cast<int32_t>(imm));
    } else {
      LoadImm(RCX, static_cast<uint64_t>(imm));
      a_.ImulRegReg(r, RCX);
    }
  }

  void AddImm(Reg r, int64_t imm) {
    if (imm == 0) {
      return;
    }
    if (FitsInt32(imm)) {
      a_.AddRegImm(r, static_cast<int32_t>(imm));
    } else {
      LoadImm(RCX, static_cast<uint64_t>(imm));
      a_.AluRegReg(0x03, r, RCX);
    }
  }

  void JumpToUop(int64_t target) {
    jump_fixups_.push_back({a_.JmpRel32(), static_cast<size_t>(target)});
  }
  void JccToUop(Cond cc, int64_t target) {
    jump_fixups_.push_back({a_.JccRel32(cc), static_cast<size_t>(target)});
  }

  // An op with no inline template: its thunk is the whole op.
  void EmitSlow(size_t i) {
    EmitThunkCall(i);
    ++out_->helper_ops;
  }

  // The uniform helper call: spill hot state, call the op's specialized
  // slow-path thunk (it runs the op's shared body from exec/ops.h),
  // bail on nonzero, reload hot state (helpers may flush, stepping through
  // runtime code that charges the Cpu and zeroes the pending counters).
  void EmitThunkCall(size_t i) {
    SpillHot();
    a_.MovRegReg(RDI, kFrame);
    a_.MovReg32Imm32(RSI, static_cast<uint32_t>(i));
    a_.MovRegImm64(RAX, reinterpret_cast<uint64_t>(SgxbJitSlowFnFor(
                            static_cast<uint16_t>(df_.code[i].op))));
    a_.CallReg(RAX);
    a_.TestRegReg(RAX, RAX);
    bail_fixups_.push_back(a_.JccRel32(kCondNE));
    ReloadHot();
  }

  // --- tier 2: inline guest loads and stores -------------------------------
  //
  // Guard, then commit: ops::GuestAccessSet and ops::CommitGuestAccess
  // (exec/ops.h) in generated code, test for test. The guard reads the op's
  // address from its slots and tests, changing nothing: the frame allows
  // inline access, the access lies in one cache line (so in one page), that
  // page is addressable, and the line is on way 0 or 1 of its L1 set. The
  // commit counts the access and the L1 access, promotes a way-1 line and
  // moves the bytes. Any failed test jumps to a cold stub that runs the op's
  // thunk from the start, so nothing is done twice; the thunk's body makes
  // the same guard, fails it too, and bails to Enclave::LoadBytes/StoreBytes.
  // The commit here also replays the body's step and flush, in its order.

  // Guard on the 32-bit guest address in ECX for `bytes` bytes; each failed
  // test branches to a jcc appended to `cold`. Clobbers RAX, RDX, RSI.
  void EmitGuestGuard(uint32_t bytes, std::vector<size_t>* cold) {
    // One line: (addr ^ (addr + bytes - 1)) >> 6 == 0. A line never crosses
    // a page; an access wrapping past 4 GiB sets bit 32 and fails too.
    if (bytes > 1) {
      a_.MovRegReg(RDX, RCX);
      a_.AddRegImm(RDX, static_cast<int32_t>(bytes - 1));
      a_.AluRegReg(0x33, RDX, RCX);
      a_.ShrRegImm8(RDX, kCacheLineShift);
      cold->push_back(a_.JccRel32(kCondNE));
    }
    // Addressable page: addressable[addr >> 12] != 0.
    a_.MovRegReg(RAX, RCX);
    a_.ShrRegImm8(RAX, kPageShift);
    a_.MovRegMem(RDX, kFrame, SGXB_JIT_OFF(addressable));
    a_.MovzxReg32Mem8Index(RDX, RDX, RAX);
    a_.TestRegReg(RDX, RDX);
    cold->push_back(a_.JccRel32(kCondE));
    // Way 0 or 1 of the line's set: with RSI = l1_sets, RDX = (line &
    // l1_set_mask) * l1_ways and EAX = line, [rsi + rdx*4] is the MRU way
    // (Cache::IsMru) and [rsi + rdx*4 + 4] way 1, the two ways
    // Cache::Access probes inline. The commit re-tests way 0 and promotes a
    // way-1 line (EmitWay1Promote); RSI, RDX and EAX stay live until then.
    a_.MovRegReg(RAX, RCX);
    a_.ShrRegImm8(RAX, kCacheLineShift);
    a_.MovRegMem(RDX, kFrame, SGXB_JIT_OFF(l1_set_mask));
    a_.AluRegReg(0x23, RDX, RAX);
    a_.ImulRegMem(RDX, kFrame, SGXB_JIT_OFF(l1_ways));
    a_.MovRegMem(RSI, kFrame, SGXB_JIT_OFF(l1_sets));
    a_.CmpMem32IndexReg32(RSI, RDX, 2, 0, RAX);
    const size_t mru = a_.JccRel32(kCondE);
    a_.CmpMem32IndexReg32(RSI, RDX, 2, 4, RAX);
    cold->push_back(a_.JccRel32(kCondNE));
    a_.BindHere(mru);
  }

  // After the access's last step: a line the guard found on way 1 moves to
  // way 0 and way 0 to way 1, Cache::Access's way-1 hit. Out of line: the
  // inline path is one compare.
  void EmitWay1Promote() {
    a_.CmpMem32IndexReg32(RSI, RDX, 2, 0, RAX);
    way1_.push_back({a_.JccRel32(kCondNE), 0});
    way1_.back().resume = a_.size();
  }

  // ops::FlushPending, inline: the pending ALU/branch counts into the Cpu's
  // account, then zeroed. Leaves the account pointer in RDX.
  void EmitFlushInline() {
    a_.MovRegMem(RDX, kFrame, SGXB_JIT_OFF(events));
    a_.AddMemReg(RDX, SGXB_JIT_EV(alu_ops), kPendAlu);
    a_.AddMemReg(RDX, SGXB_JIT_EV(branches), kPendBranch);
    a_.ZeroReg(kPendAlu);
    a_.ZeroReg(kPendBranch);
  }

  // kLoad, kStore, kGepMaskLoad, kGepMaskStore. The decoder sets the width
  // to the type's size, so the width-specific move is TruncateToType as
  // well. Returns false (nothing emitted) for any other width.
  bool EmitGuestAccess(size_t i) {
    const MicroOp& u = df_.code[i];
    const uint32_t bytes = u.aux;
    if (bytes != IrTypeSize(u.type) || (bytes != 1 && bytes != 2 && bytes != 4 && bytes != 8)) {
      return false;
    }
    const bool store = u.op == UOp::kStore || u.op == UOp::kGepMaskStore;
    const bool quad = u.op == UOp::kGepMaskLoad || u.op == UOp::kGepMaskStore;
    ColdPath cold;
    cold.op = i;
    a_.CmpMemImm8(kFrame, SGXB_JIT_OFF(inline_mem), 0);
    cold.jccs.push_back(a_.JccRel32(kCondE));
    if (quad) {
      // The body's t (R8), re-tagged p (R9) and address (ECX = low half of
      // p). p takes the high half of v[a] as read after t is written to
      // v[c], so it is t's own when c aliases a.
      const uint64_t packed = static_cast<uint64_t>(u.imm);
      LoadSlot(RAX, u.b);
      MulImm(RAX, static_cast<int64_t>(packed >> 32));
      a_.AluRegMem(0x03, RAX, kSlots, SlotDisp(u.a));
      AddImm(RAX, static_cast<int64_t>(packed & 0xffffffffULL));
      a_.MovRegReg(R8, RAX);
      if (u.c == u.a) {
        a_.MovRegReg(R9, R8);
      } else {
        LoadSlot(R9, u.a);
      }
      a_.ShrRegImm8(R9, 32);
      a_.ShlRegImm8(R9, 32);
      a_.MovReg32Reg32(RCX, R8);
      a_.AluRegReg(0x0B, R9, RCX);
    } else {
      a_.MovReg32Mem(RCX, kSlots, SlotDisp(store ? u.b : u.a));
    }
    EmitGuestGuard(bytes, &cold.jccs);

    // Commit: the gep and maskptr components of a quad, each a step, two
    // pending ALU ops and a slot write; then the access's step and flush.
    if (quad) {
      Step();
      a_.AluRegImm8(0, kPendAlu, 2);
      StoreSlot(u.c, R8);
      Step();
      a_.AluRegImm8(0, kPendAlu, 2);
      StoreSlot(static_cast<uint32_t>(u.imm2), R9);
    }
    Step();
    EmitWay1Promote();
    EmitFlushInline();
    a_.IncMem(kFrame, store ? SGXB_JIT_OFF(stores) : SGXB_JIT_OFF(loads));
    a_.IncMem(RDX, store ? SGXB_JIT_EV(stores) : SGXB_JIT_EV(loads));
    a_.IncMem(RDX, SGXB_JIT_EV(l1_accesses));
    a_.MovRegMem(RSI, kFrame, SGXB_JIT_OFF(host_base));
    if (store) {
      // Read after the quad's slot writes, as the body reads it.
      LoadSlot(RAX, quad ? u.dst : u.a);
      a_.StoreIndex(bytes, RSI, RCX, RAX);
    } else {
      a_.LoadZxIndex(bytes, RAX, RSI, RCX);
      StoreSlot(u.dst, RAX);
    }
    cold.resume = a_.size();
    cold_.push_back(std::move(cold));
    return true;
  }

  // --- tier 3: inline MPX and ASan checks ----------------------------------
  //
  // The same guard-then-commit shape for the two checks that are runtime
  // calls in the shared body. The guard proves the check passes and takes
  // its fast path; the commit replays what StepFlush, ++checks and the
  // runtime's passing check count. A failing or unusual check runs the
  // thunk, which counts the violation and traps.

  // kMpxCheck: MpxRuntime::BndCheck on BoundsOrInit(a). Returns false
  // (nothing emitted) for a size the add below cannot carry.
  bool EmitMpxCheck(size_t i) {
    const MicroOp& u = df_.code[i];
    if (u.imm < 0 || u.imm > INT32_MAX) {
      return false;
    }
    ColdPath cold;
    cold.op = i;
    a_.CmpMemImm8(kFrame, SGXB_JIT_OFF(inline_mem), 0);
    cold.jccs.push_back(a_.JccRel32(kCondE));
    // Guard: ECX = addr; EAX = ub; lb <= addr tested on the valid path only,
    // because INIT's lb is 0.
    a_.MovReg32Mem(RCX, kSlots, SlotDisp(u.a));
    a_.MovRegMem(RDX, kFrame, SGXB_JIT_OFF(mpx_valid));
    a_.MovzxReg32Mem8(RAX, RDX, static_cast<int32_t>(u.a));
    a_.TestRegReg(RAX, RAX);
    const size_t init = a_.JccRel32(kCondE);
    a_.MovRegMem(RSI, kFrame, SGXB_JIT_OFF(mpx_bounds));
    a_.MovReg32Mem(RAX, RSI, SlotDisp(u.a) + static_cast<int32_t>(offsetof(MpxBounds, lb)));
    a_.CmpRegReg(RCX, RAX);
    cold.jccs.push_back(a_.JccRel32(kCondB));
    a_.MovReg32Mem(RAX, RSI, SlotDisp(u.a) + static_cast<int32_t>(offsetof(MpxBounds, ub)));
    const size_t have_ub = a_.JmpRel32();
    a_.BindHere(init);
    a_.MovReg32Imm32(RAX, MpxBounds{}.ub);
    a_.BindHere(have_ub);
    // (u64)addr + size <= (u64)ub.
    AddImm(RCX, u.imm);
    a_.CmpRegReg(RCX, RAX);
    cold.jccs.push_back(a_.JccRel32(kCondA));

    // Commit: step, then the flush with BndCheck's three ALU ops in it (the
    // account only sums them), frame checks, bndcl_bndcu, bounds_checks.
    Step();
    a_.AluRegImm8(0, kPendAlu, 3);
    EmitFlushInline();
    a_.IncMem(kFrame, SGXB_JIT_OFF(checks));
    a_.IncMem(RDX, SGXB_JIT_EV(bounds_checks));
    a_.MovRegMem(RAX, kFrame, SGXB_JIT_OFF(mpx_checks));
    a_.IncMem(RAX, 0);
    cold.resume = a_.size();
    cold_.push_back(std::move(cold));
    return true;
  }

  // kSchemeCheck under an 8-byte-granule AsanRuntime: AsanRuntime::
  // CheckAccess's fast path. Its shadow access is a metadata load of n =
  // (size >> 3) + 1 bytes at saddr = shadow_base + (addr >> 3), behind
  // PageManager::Commit. Returns false (nothing emitted) for a size outside
  // 1..8: a larger one never passes the granule test, and size 0 passes it
  // only through the 32-bit wrap of addr - 1, which the test below does in
  // 64 bits.
  bool EmitAsanCheck(size_t i) {
    const MicroOp& u = df_.code[i];
    if (u.imm < 1 || u.imm > 8) {
      return false;
    }
    const uint32_t size = static_cast<uint32_t>(u.imm);
    ColdPath cold;
    cold.op = i;
    a_.CmpMemImm8(kFrame, SGXB_JIT_OFF(inline_mem), 0);
    cold.jccs.push_back(a_.JccRel32(kCondE));
    // The scheme is an AsanRuntime the code can stand in for.
    a_.CmpMemImm8(kFrame, SGXB_JIT_OFF(asan_checks), 0);
    cold.jccs.push_back(a_.JccRel32(kCondE));
    a_.MovReg32Mem(RCX, kSlots, SlotDisp(u.a));
    // One granule: ((addr ^ (addr + size - 1)) & ~7) == 0. In 64 bits an
    // access wrapping past 4 GiB fails it, as it does in 32.
    if (size > 1) {
      a_.MovRegReg(RDX, RCX);
      a_.AddRegImm(RDX, static_cast<int32_t>(size - 1));
      a_.AluRegReg(0x33, RDX, RCX);
      a_.ShrRegImm8(RDX, 3);
      cold.jccs.push_back(a_.JccRel32(kCondNE));
    }
    // ECX = saddr. ShadowAddr's uint32_t sum never wraps, so neither does
    // this one: the shadow region, an eighth of the space, lies below the
    // space's top, so shadow_base <= 7/8 * 4 GiB, and addr >> 3 < 1/8 * 4 GiB.
    a_.ShrRegImm8(RCX, 3);
    a_.AluRegMem(0x03, RCX, kFrame, SGXB_JIT_OFF(asan_shadow_base));
    // The shadow access in one line of an addressable page, on way 0 or 1.
    // Addressable implies committed, so Commit would return at once.
    EmitGuestGuard((size >> 3) + 1, &cold.jccs);
    // The shadow byte is kShadowAddressable. RAX, RDX and RSI are the
    // guard's, live until the promotion.
    a_.MovRegMem(R8, kFrame, SGXB_JIT_OFF(host_base));
    a_.MovzxReg32Mem8Index(R8, R8, RCX);
    a_.TestRegReg(R8, R8);
    cold.jccs.push_back(a_.JccRel32(kCondNE));

    // Commit: step; the way-1 promotion; the flush with the check's three
    // ALU ops and two branches in it; frame checks, shadow_checks,
    // bounds_checks, the metadata load and its L1 access.
    Step();
    a_.AluRegImm8(0, kPendAlu, 3);
    a_.AluRegImm8(0, kPendBranch, 2);
    EmitWay1Promote();
    EmitFlushInline();
    a_.IncMem(kFrame, SGXB_JIT_OFF(checks));
    a_.IncMem(RDX, SGXB_JIT_EV(bounds_checks));
    a_.IncMem(RDX, SGXB_JIT_EV(metadata_loads));
    a_.IncMem(RDX, SGXB_JIT_EV(l1_accesses));
    a_.MovRegMem(RAX, kFrame, SGXB_JIT_OFF(asan_checks));
    a_.IncMem(RAX, 0);
    cold.resume = a_.size();
    cold_.push_back(std::move(cold));
    return true;
  }

  // ops::CopyBounds, inline: if mpx_valid[src], copy the 8-byte bounds and
  // mark dst valid.
  void EmitCopyBounds(uint32_t dst, uint32_t src) {
    CHECK(dst < df_.num_slots && src < df_.num_slots);
    a_.MovRegMem(RDX, kFrame, SGXB_JIT_OFF(mpx_valid));
    a_.MovzxReg32Mem8(RAX, RDX, static_cast<int32_t>(src));
    a_.TestRegReg(RAX, RAX);
    const size_t invalid = a_.JccRel32(kCondE);
    a_.MovRegMem(RSI, kFrame, SGXB_JIT_OFF(mpx_bounds));
    a_.MovRegMem(RAX, RSI, SlotDisp(src));
    a_.MovMemReg(RSI, SlotDisp(dst), RAX);
    a_.MovMem8Imm8(RDX, static_cast<int32_t>(dst), 1);
    a_.BindHere(invalid);
  }

  // The cold stubs of the inline accesses, after the op stream: the whole op
  // through its thunk, then back to the op's end.
  void EmitColdPaths() {
    for (const ColdPath& cold : cold_) {
      for (size_t jcc : cold.jccs) {
        a_.BindHere(jcc);
      }
      EmitThunkCall(cold.op);
      a_.PatchRel32(a_.JmpRel32(), cold.resume);
    }
    for (const Way1Promote& way1 : way1_) {
      a_.BindHere(way1.jcc);
      a_.MovReg32MemIndex(R10, RSI, RDX, 2, 0);
      a_.MovMem32IndexReg32(RSI, RDX, 2, 4, R10);
      a_.MovMem32IndexReg32(RSI, RDX, 2, 0, RAX);
      a_.PatchRel32(a_.JmpRel32(), way1.resume);
    }
  }

  // --- layout --------------------------------------------------------------

  void EmitPrologue() {
    a_.PushReg(RBP);
    a_.PushReg(RBX);
    a_.PushReg(R12);
    a_.PushReg(R13);
    a_.PushReg(R14);
    a_.PushReg(R15);
    a_.SubRspImm8(8);  // 16-byte call alignment for helper calls
    a_.MovRegReg(kFrame, RDI);
    a_.MovRegMem(kSlots, kFrame, SGXB_JIT_OFF(v));
    a_.MovRegMem(kSteps, kFrame, SGXB_JIT_OFF(steps));
    a_.MovRegMem(kPendAlu, kFrame, SGXB_JIT_OFF(pend_alu));
    a_.MovRegMem(kPendBranch, kFrame, SGXB_JIT_OFF(pend_branch));
    a_.MovRegMem(kMaxSteps, kFrame, SGXB_JIT_OFF(max_steps));
    jump_fixups_.push_back({a_.JmpRel32(), df_.entry});
  }

  void EmitStubsAndEpilogue() {
    // Step-limit stub: steps already incremented past the limit, exactly the
    // state the threaded engine's throw site observes.
    steplimit_pos_ = a_.size();
    SpillHot();
    a_.MovMemImm32(kFrame, SGXB_JIT_OFF(status), kJitStatusStepLimit);
    const size_t to_epi = a_.JmpRel32();
    // Bail stub: the helper already spilled-and-mutated frame state; only the
    // status needs recording.
    bail_pos_ = a_.size();
    a_.MovMemImm32(kFrame, SGXB_JIT_OFF(status), kJitStatusBail);
    // Epilogue (fallthrough from bail).
    const size_t epilogue = a_.size();
    a_.PatchRel32(to_epi, epilogue);
    a_.AddRspImm8(8);
    a_.PopReg(R15);
    a_.PopReg(R14);
    a_.PopReg(R13);
    a_.PopReg(R12);
    a_.PopReg(RBX);
    a_.PopReg(RBP);
    a_.Ret();
    epilogue_pos_ = epilogue;
  }

  void PatchJumps() {
    for (const auto& [pos, target] : jump_fixups_) {
      CHECK(target < uop_pos_.size());
      a_.PatchRel32(pos, uop_pos_[target]);
    }
    for (size_t pos : step_fixups_) {
      a_.PatchRel32(pos, steplimit_pos_);
    }
    for (size_t pos : bail_fixups_) {
      a_.PatchRel32(pos, bail_pos_);
    }
    for (size_t pos : ret_fixups_) {
      a_.PatchRel32(pos, epilogue_pos_);
    }
  }

  // --- per-op templates ----------------------------------------------------

  void EmitOp(size_t i) {
    const MicroOp& u = df_.code[i];
    switch (u.op) {
      // Control flow is always inlined (the helper protocol has no way to
      // redirect the native pc), as are the free phi-edge value moves.
      case UOp::kBr:
        Step();
        a_.IncReg(kPendBranch);
        JumpToUop(u.imm);
        ++out_->inline_ops;
        return;
      case UOp::kCondBr:
        Step();
        a_.IncReg(kPendBranch);
        LoadSlot(RAX, u.a);
        a_.TestRegReg(RAX, RAX);
        JccToUop(kCondNE, u.imm);
        JumpToUop(u.imm2);
        ++out_->inline_ops;
        return;
      case UOp::kCmpBr:
        // icmp component: step, Alu charge, result write-back...
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        a_.AluRegMem(0x3B, RAX, kSlots, SlotDisp(u.b));
        a_.SetccAl(CondFor(static_cast<IrCmp>(u.aux)));
        a_.MovzxEaxAl();
        StoreSlot(u.dst, RAX);
        // ...then the condbr component. Step() clobbered the flags, so the
        // branch re-tests the materialized result - the step-limit check
        // fires between the components exactly as in the interpreters.
        Step();
        a_.IncReg(kPendBranch);
        a_.TestRegReg(RAX, RAX);
        JccToUop(kCondNE, u.imm);
        JumpToUop(u.imm2);
        ++out_->inline_ops;
        return;
      case UOp::kRet:
        Step();
        if (u.flag != 0) {
          LoadSlot(RAX, u.a);
        } else {
          a_.ZeroReg(RAX);
        }
        a_.MovMemReg(kFrame, SGXB_JIT_OFF(ret), RAX);
        SpillHot();
        a_.MovMemImm32(kFrame, SGXB_JIT_OFF(status), kJitStatusOk);
        ret_fixups_.push_back(a_.JmpRel32());
        ++out_->inline_ops;
        return;
      case UOp::kJump:
        JumpToUop(u.imm);
        ++out_->inline_ops;
        return;
      default:
        break;
    }

    if (helper_only_) {
      EmitSlow(i);
      return;
    }

    switch (u.op) {
      case UOp::kConst:
        Step();
        LoadImm(RAX, static_cast<uint64_t>(u.imm));
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kArg:
        Step();
        a_.ZeroReg(RAX);
        if (u.imm >= 0) {
          LoadImm(RCX, static_cast<uint64_t>(u.imm));
          a_.MovRegMem(RDX, kFrame, SGXB_JIT_OFF(nargs));
          a_.CmpRegReg(RCX, RDX);
          const size_t oob = a_.JccRel32(kCondAE);
          a_.MovRegMem(RDX, kFrame, SGXB_JIT_OFF(args));
          a_.MovRegMemIndex8(RAX, RDX, RCX);
          a_.BindHere(oob);
        }
        StoreSlot(u.dst, RAX);
        break;

      case UOp::kAdd:
      case UOp::kSub:
      case UOp::kAnd:
      case UOp::kOr:
      case UOp::kXor: {
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        const uint8_t opcode = u.op == UOp::kAdd   ? 0x03
                               : u.op == UOp::kSub ? 0x2B
                               : u.op == UOp::kAnd ? 0x23
                               : u.op == UOp::kOr  ? 0x0B
                                                   : 0x33;
        a_.AluRegMem(opcode, RAX, kSlots, SlotDisp(u.b));
        StoreSlot(u.dst, RAX);
        break;
      }
      case UOp::kMul:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        a_.ImulRegMem(RAX, kSlots, SlotDisp(u.b));
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kUDiv:
      case UOp::kURem: {
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        LoadSlot(RCX, u.b);
        a_.TestRegReg(RCX, RCX);
        const size_t zero = a_.JccRel32(kCondE);
        a_.ZeroReg(RDX);
        a_.DivReg(RCX);
        if (u.op == UOp::kURem) {
          a_.MovRegReg(RAX, RDX);
        }
        const size_t done = a_.JmpRel32();
        a_.BindHere(zero);
        a_.ZeroReg(RAX);  // divide by zero yields 0, as in the interpreters
        a_.BindHere(done);
        StoreSlot(u.dst, RAX);
        break;
      }
      case UOp::kShl:
      case UOp::kLShr:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        LoadSlot(RCX, u.b);
        // Hardware masks the count to 6 bits - the interpreters' `& 63`.
        if (u.op == UOp::kShl) {
          a_.ShlRegCl(RAX);
        } else {
          a_.ShrRegCl(RAX);
        }
        StoreSlot(u.dst, RAX);
        break;

      case UOp::kAddImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        AluImm(0, 0x03, u.imm);
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kSubImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        AluImm(5, 0x2B, u.imm);
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kMulImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        MulImm(RAX, u.imm);
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kAndImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        AluImm(4, 0x23, u.imm);
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kOrImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        AluImm(1, 0x0B, u.imm);
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kXorImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        AluImm(6, 0x33, u.imm);
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kShlImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        a_.ShlRegImm8(RAX, static_cast<uint8_t>(u.imm));  // pre-masked &63
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kLShrImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        a_.ShrRegImm8(RAX, static_cast<uint8_t>(u.imm));
        StoreSlot(u.dst, RAX);
        break;

      case UOp::kXorShlImm:
      case UOp::kXorLShrImm:
        // Fused shift+xor pair: two steps, two Alu charges, intermediate t
        // written to slot c before the second component. The template keeps
        // v[a] cached in RAX across the StoreSlot(c) write, so the decoder
        // must never alias c with a (the interpreters re-read v[a] after it).
        CHECK(u.c != u.a);
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        a_.MovRegReg(RCX, RAX);
        if (u.op == UOp::kXorShlImm) {
          a_.ShlRegImm8(RCX, static_cast<uint8_t>(u.imm));
        } else {
          a_.ShrRegImm8(RCX, static_cast<uint8_t>(u.imm));
        }
        StoreSlot(u.c, RCX);
        Step();
        a_.IncReg(kPendAlu);
        a_.AluRegReg(0x33, RAX, RCX);
        StoreSlot(u.dst, RAX);
        break;

      case UOp::kICmp:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        a_.AluRegMem(0x3B, RAX, kSlots, SlotDisp(u.b));
        a_.SetccAl(CondFor(static_cast<IrCmp>(u.aux)));
        a_.MovzxEaxAl();
        StoreSlot(u.dst, RAX);
        break;
      case UOp::kICmpImm:
        Step();
        a_.IncReg(kPendAlu);
        LoadSlot(RAX, u.a);
        if (FitsInt32(u.imm)) {
          a_.AluRegImm32(7, RAX, static_cast<int32_t>(u.imm));
        } else {
          LoadImm(RCX, static_cast<uint64_t>(u.imm));
          a_.AluRegReg(0x3B, RAX, RCX);
        }
        a_.SetccAl(CondFor(static_cast<IrCmp>(u.aux)));
        a_.MovzxEaxAl();
        StoreSlot(u.dst, RAX);
        break;

      case UOp::kCopy:
        LoadSlot(RAX, u.a);
        StoreSlot(u.dst, RAX);
        break;

      case UOp::kBoundsCopy:
        EmitCopyBounds(u.dst, u.a);
        break;

      case UOp::kGep:
      case UOp::kGepMpx:
        Step();
        a_.AluRegImm8(0, kPendAlu, 2);
        LoadSlot(RAX, u.b);
        MulImm(RAX, u.imm);
        a_.AluRegMem(0x03, RAX, kSlots, SlotDisp(u.a));
        AddImm(RAX, u.imm2);
        StoreSlot(u.dst, RAX);
        if (u.op == UOp::kGepMpx) {
          EmitCopyBounds(u.dst, u.a);
        }
        break;
      case UOp::kMaskPtr:
        Step();
        a_.AluRegImm8(0, kPendAlu, 2);
        LoadSlot(RAX, u.b);
        a_.MovRegImm64(RCX, 0xffffffff00000000ull);
        a_.AluRegReg(0x23, RAX, RCX);
        // 32-bit load zero-extends: exactly v[a] & 0xffffffff.
        a_.MovReg32Mem(RDX, kSlots, SlotDisp(u.a));
        a_.AluRegReg(0x0B, RAX, RDX);
        StoreSlot(u.dst, RAX);
        break;

      case UOp::kLoad:
      case UOp::kStore:
      case UOp::kGepMaskLoad:
      case UOp::kGepMaskStore:
        if (!EmitGuestAccess(i)) {
          EmitSlow(i);
          return;
        }
        break;
      case UOp::kMpxCheck:
        if (!EmitMpxCheck(i)) {
          EmitSlow(i);
          return;
        }
        break;
      case UOp::kSchemeCheck:
        // Inline for ASan only; under any other runtime the guard's
        // asan_checks test sends it to the thunk.
        if (!EmitAsanCheck(i)) {
          EmitSlow(i);
          return;
        }
        break;

      default:
        // The other observable ops (the other checks, allocation, MPX table
        // walks, scheme hooks, checked access quads) share the interpreter's
        // C++ bodies through the slow-path thunk.
        EmitSlow(i);
        return;
    }
    ++out_->inline_ops;
  }

  const DecodedFunction& df_;
  JitProgram* out_;
  const bool helper_only_;
  X64Assembler a_;
  std::vector<size_t> uop_pos_;
  std::vector<std::pair<size_t, size_t>> jump_fixups_;  // (rel32 pos, uop index)
  std::vector<size_t> step_fixups_;
  std::vector<size_t> bail_fixups_;
  std::vector<size_t> ret_fixups_;
  // An inline access's way out: the guard's jccs, the op, and where its
  // inline code ends.
  struct ColdPath {
    std::vector<size_t> jccs;
    size_t op = 0;
    size_t resume = 0;
  };
  std::vector<ColdPath> cold_;
  struct Way1Promote {
    size_t jcc;
    size_t resume;
  };
  std::vector<Way1Promote> way1_;
  size_t steplimit_pos_ = 0;
  size_t bail_pos_ = 0;
  size_t epilogue_pos_ = 0;
};

#undef SGXB_JIT_OFF
#undef SGXB_JIT_EV

}  // namespace

JitProgram CompileDecodedFunction(const DecodedFunction& df) {
  const auto start = std::chrono::steady_clock::now();
  JitProgram program;

  Compiler compiler(df, &program);
  compiler.Compile();

  if (program.buffer.Install(compiler.assembler().data(),
                             compiler.assembler().size())) {
    program.entry =
        reinterpret_cast<JitProgram::EntryFn>(const_cast<void*>(program.buffer.entry()));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    IrExecStats& stats = GlobalIrExecStats();
    stats.jit_compiles.fetch_add(1, std::memory_order_relaxed);
    stats.jit_compiled_bytes.fetch_add(program.native_bytes, std::memory_order_relaxed);
    stats.jit_compile_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        std::memory_order_relaxed);
  }
  return program;
}

}  // namespace jit
}  // namespace sgxb
