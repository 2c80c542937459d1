// Minimal x86-64 byte emitter for the template JIT.
//
// Only the encodings the op templates need: 64-bit mov/ALU in reg-reg,
// reg-mem ([base+disp32]) and reg-imm forms, the 1/2/4/8-byte [base+index]
// moves and compares of the inline guest access, shifts, setcc, div, call,
// and rel32 jumps with two-pass fixups. No scheduling, no register allocation -
// the compiler (compiler.cc) pins its registers statically and uses
// rax/rcx/rdx as scratch.

#ifndef SGXBOUNDS_SRC_IR_EXEC_JIT_ASSEMBLER_H_
#define SGXBOUNDS_SRC_IR_EXEC_JIT_ASSEMBLER_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/check.h"

namespace sgxb {
namespace jit {

enum Reg : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// The x86 condition-code nibble (used in 0F 8x jcc and 0F 9x setcc).
enum Cond : uint8_t {
  kCondB = 0x2,   // unsigned <
  kCondAE = 0x3,  // unsigned >=
  kCondE = 0x4,
  kCondNE = 0x5,
  kCondBE = 0x6,  // unsigned <=
  kCondA = 0x7,   // unsigned >
  kCondL = 0xC,   // signed <
  kCondGE = 0xD,
  kCondLE = 0xE,
  kCondG = 0xF,
};

class X64Assembler {
 public:
  size_t size() const { return buf_.size(); }
  const uint8_t* data() const { return buf_.data(); }

  void U8(uint8_t b) { buf_.push_back(b); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }

  // --- moves ---------------------------------------------------------------

  // mov dst, [base+disp]
  void MovRegMem(Reg dst, Reg base, int32_t disp) {
    RexW(dst, base);
    U8(0x8B);
    Mem(dst, base, disp);
  }
  // mov [base+disp], src
  void MovMemReg(Reg base, int32_t disp, Reg src) {
    RexW(src, base);
    U8(0x89);
    Mem(src, base, disp);
  }
  // mov dst32, [base+disp] - 32-bit load, zero-extends into the full register
  void MovReg32Mem(Reg dst, Reg base, int32_t disp) {
    Rex(dst, base);
    U8(0x8B);
    Mem(dst, base, disp);
  }
  // movabs dst, imm64
  void MovRegImm64(Reg dst, uint64_t imm) {
    U8(0x48 | (dst >> 3));
    U8(0xB8 + (dst & 7));
    U64(imm);
  }
  // mov dst32, imm32 (zero-extends; 5-7 bytes vs movabs' 10)
  void MovReg32Imm32(Reg dst, uint32_t imm) {
    if (dst >> 3) U8(0x41);
    U8(0xB8 + (dst & 7));
    U32(imm);
  }
  // mov dst, src (64-bit)
  void MovRegReg(Reg dst, Reg src) {
    RexW(dst, src);
    U8(0x8B);
    ModRM(3, dst, src);
  }
  // mov qword [base+disp], imm32 (sign-extended)
  void MovMemImm32(Reg base, int32_t disp, int32_t imm) {
    RexW(0, base);
    U8(0xC7);
    Mem(0, base, disp);
    U32(static_cast<uint32_t>(imm));
  }
  // mov dst, [base + index*8] - caller must not pass RBP/R13 as base
  void MovRegMemIndex8(Reg dst, Reg base, Reg index) {
    CHECK((base & 7) != 5);
    U8(0x48 | ((dst >> 3) << 2) | ((index >> 3) << 1) | (base >> 3));
    U8(0x8B);
    ModRM(0, dst, 4);
    U8((3 << 6) | ((index & 7) << 3) | (base & 7));
  }

  // mov dst32, src32 (zero-extends into the full register)
  void MovReg32Reg32(Reg dst, Reg src) {
    Rex(dst, src);
    U8(0x8B);
    ModRM(3, dst, src);
  }
  // movzx dst32, byte [base+disp]
  void MovzxReg32Mem8(Reg dst, Reg base, int32_t disp) {
    Rex(dst, base);
    U8(0x0F);
    U8(0xB6);
    Mem(dst, base, disp);
  }
  // mov byte [base+disp], imm8
  void MovMem8Imm8(Reg base, int32_t disp, uint8_t imm) {
    Rex(0, base);
    U8(0xC6);
    Mem(0, base, disp);
    U8(imm);
  }

  // --- indexed memory: [base + index << scale_log2 (+ disp8)] ------------
  // `base` must not be RBP/R13 (their mod=0 form means disp32) and `index`
  // not RSP.

  // movzx dst32, byte [base+index]
  void MovzxReg32Mem8Index(Reg dst, Reg base, Reg index) {
    RexIndex(false, dst, base, index);
    U8(0x0F);
    U8(0xB6);
    MemIndex(dst, base, index, 0);
  }
  // cmp dword [base+index<<scale_log2+disp], src32
  void CmpMem32IndexReg32(Reg base, Reg index, uint8_t scale_log2, int8_t disp, Reg src) {
    RexIndex(false, src, base, index);
    U8(0x39);
    MemIndex(src, base, index, scale_log2, disp);
  }
  // mov dst32, dword [base+index<<scale_log2+disp]
  void MovReg32MemIndex(Reg dst, Reg base, Reg index, uint8_t scale_log2, int8_t disp) {
    RexIndex(false, dst, base, index);
    U8(0x8B);
    MemIndex(dst, base, index, scale_log2, disp);
  }
  // mov dword [base+index<<scale_log2+disp], src32
  void MovMem32IndexReg32(Reg base, Reg index, uint8_t scale_log2, int8_t disp, Reg src) {
    RexIndex(false, src, base, index);
    U8(0x89);
    MemIndex(src, base, index, scale_log2, disp);
  }
  // dst = zero-extended `bytes` (1, 2, 4 or 8) at [base+index]
  void LoadZxIndex(uint32_t bytes, Reg dst, Reg base, Reg index) {
    RexIndex(bytes == 8, dst, base, index);
    switch (bytes) {
      case 1:
        U8(0x0F);
        U8(0xB6);
        break;
      case 2:
        U8(0x0F);
        U8(0xB7);
        break;
      case 4:
      case 8:
        U8(0x8B);
        break;
      default:
        FATAL("guest access width must be 1, 2, 4 or 8");
    }
    MemIndex(dst, base, index, 0);
  }
  // the low `bytes` (1, 2, 4 or 8) of src to [base+index]; src is one of
  // rax..rbx, whose low byte needs no REX
  void StoreIndex(uint32_t bytes, Reg base, Reg index, Reg src) {
    CHECK(src <= RBX);
    if (bytes == 2) {
      U8(0x66);
    }
    RexIndex(bytes == 8, src, base, index);
    switch (bytes) {
      case 1:
        U8(0x88);
        break;
      case 2:
      case 4:
      case 8:
        U8(0x89);
        break;
      default:
        FATAL("guest access width must be 1, 2, 4 or 8");
    }
    MemIndex(src, base, index, 0);
  }

  // --- ALU -----------------------------------------------------------------

  // Two-operand ALU, dst = dst OP src. Opcode is the r64,r/m64 form:
  // add 0x03, sub 0x2B, and 0x23, or 0x0B, xor 0x33, cmp 0x3B.
  void AluRegReg(uint8_t opcode, Reg dst, Reg src) {
    RexW(dst, src);
    U8(opcode);
    ModRM(3, dst, src);
  }
  void AluRegMem(uint8_t opcode, Reg dst, Reg base, int32_t disp) {
    RexW(dst, base);
    U8(opcode);
    Mem(dst, base, disp);
  }
  // Group-1 ALU with sign-extended imm32; ext: add /0, or /1, and /4,
  // sub /5, xor /6, cmp /7.
  void AluRegImm32(uint8_t ext, Reg reg, int32_t imm) {
    RexW(0, reg);
    U8(0x81);
    ModRM(3, ext, reg);
    U32(static_cast<uint32_t>(imm));
  }
  void AluRegImm8(uint8_t ext, Reg reg, int8_t imm) {
    RexW(0, reg);
    U8(0x83);
    ModRM(3, ext, reg);
    U8(static_cast<uint8_t>(imm));
  }
  void ImulRegReg(Reg dst, Reg src) {
    RexW(dst, src);
    U8(0x0F);
    U8(0xAF);
    ModRM(3, dst, src);
  }
  void ImulRegMem(Reg dst, Reg base, int32_t disp) {
    RexW(dst, base);
    U8(0x0F);
    U8(0xAF);
    Mem(dst, base, disp);
  }
  void ImulRegRegImm32(Reg dst, Reg src, int32_t imm) {
    RexW(dst, src);
    U8(0x69);
    ModRM(3, dst, src);
    U32(static_cast<uint32_t>(imm));
  }
  // xor dst32, dst32 - canonical zero idiom
  void ZeroReg(Reg reg) {
    Rex(reg, reg);
    U8(0x31);
    ModRM(3, reg, reg);
  }
  void ShlRegImm8(Reg reg, uint8_t n) { ShiftImm(4, reg, n); }
  void ShrRegImm8(Reg reg, uint8_t n) { ShiftImm(5, reg, n); }
  void ShlRegCl(Reg reg) { ShiftCl(4, reg); }
  void ShrRegCl(Reg reg) { ShiftCl(5, reg); }
  // test a, b (sets flags from a & b)
  void TestRegReg(Reg a, Reg b) {
    RexW(b, a);
    U8(0x85);
    ModRM(3, b, a);
  }
  // cmp a, b (flags from a - b)
  void CmpRegReg(Reg a, Reg b) {
    RexW(b, a);
    U8(0x39);
    ModRM(3, b, a);
  }
  void IncReg(Reg reg) {
    RexW(0, reg);
    U8(0xFF);
    ModRM(3, 0, reg);
  }
  void AddRegImm(Reg reg, int32_t imm) {
    if (imm >= -128 && imm <= 127) {
      AluRegImm8(0, reg, static_cast<int8_t>(imm));
    } else {
      AluRegImm32(0, reg, imm);
    }
  }
  // add qword [base+disp], src
  void AddMemReg(Reg base, int32_t disp, Reg src) {
    RexW(src, base);
    U8(0x01);
    Mem(src, base, disp);
  }
  // cmp qword [base+disp], imm8 (sign-extended)
  void CmpMemImm8(Reg base, int32_t disp, int8_t imm) {
    RexW(0, base);
    U8(0x83);
    Mem(7, base, disp);
    U8(static_cast<uint8_t>(imm));
  }
  // inc qword [base+disp]
  void IncMem(Reg base, int32_t disp) {
    RexW(0, base);
    U8(0xFF);
    Mem(0, base, disp);
  }
  // div rcx-class: unsigned rdx:rax / reg -> quotient rax, remainder rdx
  void DivReg(Reg reg) {
    RexW(0, reg);
    U8(0xF7);
    ModRM(3, 6, reg);
  }
  // setcc al (no REX: al is encodable unprefixed)
  void SetccAl(Cond cc) {
    U8(0x0F);
    U8(0x90 | cc);
    ModRM(3, 0, RAX);
  }
  // movzx eax, al
  void MovzxEaxAl() {
    U8(0x0F);
    U8(0xB6);
    ModRM(3, RAX, RAX);
  }

  // --- control -------------------------------------------------------------

  void PushReg(Reg r) {
    if (r >> 3) U8(0x41);
    U8(0x50 + (r & 7));
  }
  void PopReg(Reg r) {
    if (r >> 3) U8(0x41);
    U8(0x58 + (r & 7));
  }
  void SubRspImm8(int8_t n) { U8(0x48); U8(0x83); ModRM(3, 5, RSP); U8(n); }
  void AddRspImm8(int8_t n) { U8(0x48); U8(0x83); ModRM(3, 0, RSP); U8(n); }
  void CallReg(Reg reg) {
    if (reg >> 3) U8(0x41);
    U8(0xFF);
    ModRM(3, 2, reg);
  }
  void Ret() { U8(0xC3); }

  // Emits a jmp/jcc with a rel32 placeholder; returns the placeholder offset
  // for PatchRel32.
  size_t JmpRel32() {
    U8(0xE9);
    const size_t pos = buf_.size();
    U32(0);
    return pos;
  }
  size_t JccRel32(Cond cc) {
    U8(0x0F);
    U8(0x80 | cc);
    const size_t pos = buf_.size();
    U32(0);
    return pos;
  }
  void PatchRel32(size_t pos, size_t target) {
    const int64_t rel = static_cast<int64_t>(target) - (static_cast<int64_t>(pos) + 4);
    CHECK(rel >= INT32_MIN && rel <= INT32_MAX);
    const uint32_t enc = static_cast<uint32_t>(static_cast<int32_t>(rel));
    std::memcpy(&buf_[pos], &enc, 4);
  }
  // Binds a pending placeholder to the current position.
  void BindHere(size_t pos) { PatchRel32(pos, buf_.size()); }

 private:
  // REX.W prefix: reg extends modrm.reg, rm extends modrm.rm / SIB base.
  void RexW(uint8_t reg, uint8_t rm) {
    U8(0x48 | ((reg >> 3) << 2) | (rm >> 3));
  }
  // Optional REX (no W) for 32-bit forms touching r8-r15.
  void Rex(uint8_t reg, uint8_t rm) {
    const uint8_t bits = static_cast<uint8_t>(((reg >> 3) << 2) | (rm >> 3));
    if (bits) U8(0x40 | bits);
  }
  // REX for [base+index] forms: W, then reg/index/base extension bits.
  void RexIndex(bool w, uint8_t reg, Reg base, Reg index) {
    const uint8_t bits = static_cast<uint8_t>((w ? 8 : 0) | ((reg >> 3) << 2) |
                                              ((index >> 3) << 1) | (base >> 3));
    if (bits) U8(0x40 | bits);
  }
  // [base + index << scale_log2 + disp8] with a SIB byte (mod=0 when disp
  // is 0, mod=1 otherwise).
  void MemIndex(uint8_t reg, Reg base, Reg index, uint8_t scale_log2, int8_t disp = 0) {
    CHECK((base & 7) != 5);
    CHECK(index != RSP);
    ModRM(disp == 0 ? 0 : 1, reg, 4);
    U8(static_cast<uint8_t>((scale_log2 << 6) | ((index & 7) << 3) | (base & 7)));
    if (disp != 0) U8(static_cast<uint8_t>(disp));
  }
  void ModRM(uint8_t mod, uint8_t reg, uint8_t rm) {
    U8(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  // [base+disp32] with the rsp/r12 SIB escape (mod=2 keeps rbp/r13 regular).
  void Mem(uint8_t reg, Reg base, int32_t disp) {
    ModRM(2, reg, base);
    if ((base & 7) == 4) U8(0x24);
    U32(static_cast<uint32_t>(disp));
  }
  void ShiftImm(uint8_t ext, Reg reg, uint8_t n) {
    RexW(0, reg);
    U8(0xC1);
    ModRM(3, ext, reg);
    U8(n);
  }
  void ShiftCl(uint8_t ext, Reg reg) {
    RexW(0, reg);
    U8(0xD3);
    ModRM(3, ext, reg);
  }

  std::vector<uint8_t> buf_;
};

}  // namespace jit
}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_EXEC_JIT_ASSEMBLER_H_
