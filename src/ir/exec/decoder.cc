#include "src/ir/exec/decoder.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/check.h"
#include "src/common/digest.h"

namespace sgxb {

namespace {

bool IsTerminator(IrOp op) {
  return op == IrOp::kBr || op == IrOp::kCondBr || op == IrOp::kRet;
}

// A branch-target field awaiting edge resolution.
struct Fixup {
  size_t uop_index;
  bool second_field;  // patch imm2 instead of imm
  uint32_t pred;
  uint32_t succ;
};

struct Move {
  uint32_t dst;
  uint32_t src;
};

class Decoder {
 public:
  Decoder(const IrFunction& fn, const DecodeOptions& options) : fn_(fn), options_(options) {}

  DecodedFunction Run() {
    CHECK(!fn_.blocks.empty());
    ScanConstants();
    block_entry_.resize(fn_.blocks.size());
    for (uint32_t b = 0; b < fn_.blocks.size(); ++b) {
      LowerBlock(b);
    }
    ResolveEdges();
    df_.num_slots = fn_.num_values + max_stub_temps_;
    df_.entry = block_entry_[0];
    df_.track_mpx = options_.track_mpx;
    return std::move(df_);
  }

 private:
  MicroOp& Emit(UOp op) {
    df_.code.emplace_back();
    df_.code.back().op = op;
    return df_.code.back();
  }

  void ScanConstants() {
    is_const_.assign(fn_.num_values, 0);
    const_val_.assign(fn_.num_values, 0);
    for (const IrBlock& bb : fn_.blocks) {
      for (const IrInstr& in : bb.instrs) {
        if (in.op == IrOp::kConst) {
          is_const_[in.id] = 1;
          const_val_[in.id] = static_cast<uint64_t>(in.imm);
        }
      }
    }
  }

  // --- straight-line lowering ---------------------------------------------------

  // Maps a slot-slot ALU op to its const-rhs superinstruction, or kCount if
  // the op has no folded form (div/rem keep their runtime zero check).
  static UOp ImmForm(IrOp op) {
    switch (op) {
      case IrOp::kAdd:
        return UOp::kAddImm;
      case IrOp::kSub:
        return UOp::kSubImm;
      case IrOp::kMul:
        return UOp::kMulImm;
      case IrOp::kAnd:
        return UOp::kAndImm;
      case IrOp::kOr:
        return UOp::kOrImm;
      case IrOp::kXor:
        return UOp::kXorImm;
      case IrOp::kShl:
        return UOp::kShlImm;
      case IrOp::kLShr:
        return UOp::kLShrImm;
      default:
        return UOp::kCount;
    }
  }

  static UOp SlotForm(IrOp op) {
    switch (op) {
      case IrOp::kAdd:
        return UOp::kAdd;
      case IrOp::kSub:
        return UOp::kSub;
      case IrOp::kMul:
        return UOp::kMul;
      case IrOp::kUDiv:
        return UOp::kUDiv;
      case IrOp::kURem:
        return UOp::kURem;
      case IrOp::kAnd:
        return UOp::kAnd;
      case IrOp::kOr:
        return UOp::kOr;
      case IrOp::kXor:
        return UOp::kXor;
      case IrOp::kShl:
        return UOp::kShl;
      case IrOp::kLShr:
        return UOp::kLShr;
      default:
        return UOp::kCount;
    }
  }

  // True if `in[i..]` starts the xorshift mixing pair
  //   t = shl/lshr x, const ; d = xor {x, t} (either operand order)
  // which fuses into one dispatch. The intermediate t is still written, so
  // later uses of it stay valid without liveness analysis, and ALU results
  // carry no MPX bounds, so the fusion is safe under bounds tracking.
  bool MatchXorShiftImm(const std::vector<IrInstr>& instrs, size_t i, size_t end,
                        UOp* fused) const {
    if (!options_.fuse || i + 1 >= end) {
      return false;
    }
    const IrInstr& s = instrs[i];
    if ((s.op != IrOp::kShl && s.op != IrOp::kLShr) || s.args.size() < 2 ||
        !is_const_[s.args[1]]) {
      return false;
    }
    const IrInstr& x = instrs[i + 1];
    if (x.op != IrOp::kXor || x.args.size() < 2) {
      return false;
    }
    const bool forward = x.args[0] == s.args[0] && x.args[1] == s.id;
    const bool swapped = x.args[0] == s.id && x.args[1] == s.args[0];
    if (!forward && !swapped) {
      return false;
    }
    *fused = s.op == IrOp::kShl ? UOp::kXorShlImm : UOp::kXorLShrImm;
    return true;
  }

  // True if `in[i..]` starts the instrumented access shape the SGXBounds and
  // registry-scheme passes emit (they mask every gep):
  //   t = gep base, idx ; p = maskptr t, base ; [check p] ; load/store p
  // Fills the fused opcode and the number of IR instructions consumed (3
  // without a check, 4 with). Scale and offset must both fit 32 bits so one
  // imm field can carry them packed.
  bool MatchGepMaskAccess(const std::vector<IrInstr>& instrs, size_t i, size_t end,
                          UOp* fused, size_t* consumed) const {
    if (!options_.fuse || options_.track_mpx || i + 2 >= end) {
      return false;
    }
    const IrInstr& gep = instrs[i];
    if (gep.op != IrOp::kGep || gep.imm < 0 || gep.imm > 0xffffffff ||
        gep.imm2 < 0 || gep.imm2 > 0xffffffff) {
      return false;
    }
    const IrInstr& mask = instrs[i + 1];
    if (mask.op != IrOp::kMaskPtr || mask.args.size() < 2 ||
        mask.args[0] != gep.id || mask.args[1] != gep.args[0]) {
      return false;
    }
    size_t a = i + 2;
    bool has_check = false;
    bool scheme = false;
    const IrInstr& chk = instrs[a];
    if (chk.op == IrOp::kSgxCheck || chk.op == IrOp::kSchemeCheck) {
      if (a + 1 >= end || chk.args.empty() || chk.args[0] != mask.id) {
        return false;
      }
      has_check = true;
      scheme = chk.op == IrOp::kSchemeCheck;
      ++a;
    }
    const IrInstr& acc = instrs[a];
    const uint32_t access_size = IrTypeSize(acc.type);
    if (access_size > 0xff ||
        (has_check && chk.imm != static_cast<int64_t>(access_size))) {
      return false;
    }
    if (acc.op == IrOp::kLoad && !acc.args.empty() && acc.args[0] == mask.id) {
      *fused = !has_check ? UOp::kGepMaskLoad
               : scheme   ? UOp::kGepMaskSchemeCheckLoad
                          : UOp::kGepMaskSgxCheckLoad;
    } else if (acc.op == IrOp::kStore && acc.args.size() >= 2 &&
               acc.args[1] == mask.id) {
      *fused = !has_check ? UOp::kGepMaskStore
               : scheme   ? UOp::kGepMaskSchemeCheckStore
                          : UOp::kGepMaskSgxCheckStore;
    } else {
      return false;
    }
    *consumed = a - i + 1;
    return true;
  }

  void LowerBlock(uint32_t block) {
    const IrBlock& bb = fn_.blocks[block];
    // Skip leading phis (compiled into edge stubs); reference FATALs on a
    // phi in the straight-line phase, so a non-leading phi is a decode error.
    size_t i = 0;
    while (i < bb.instrs.size() && bb.instrs[i].op == IrOp::kPhi) {
      ++i;
    }
    block_entry_[block] = static_cast<uint32_t>(df_.code.size());

    // Execution stops at the first terminator; anything after is dead.
    size_t end = i;
    while (end < bb.instrs.size() && !IsTerminator(bb.instrs[end].op)) {
      CHECK(bb.instrs[end].op != IrOp::kPhi);
      ++end;
    }
    CHECK(end < bb.instrs.size());  // reference CHECK(jumped): terminator required

    for (; i < end; ++i) {
      const IrInstr& in = bb.instrs[i];
      UOp fused = UOp::kCount;
      size_t consumed = 0;
      if (MatchGepMaskAccess(bb.instrs, i, end, &fused, &consumed)) {
        const IrInstr& gep = bb.instrs[i];
        const IrInstr& mask = bb.instrs[i + 1];
        const IrInstr& acc = bb.instrs[i + consumed - 1];
        MicroOp& u = Emit(fused);
        u.a = gep.args[0];
        u.b = gep.args[1];
        u.c = gep.id;
        u.imm2 = static_cast<int64_t>(mask.id);
        u.imm = static_cast<int64_t>((static_cast<uint64_t>(gep.imm) << 32) |
                                     static_cast<uint64_t>(gep.imm2));
        u.aux = static_cast<uint8_t>(IrTypeSize(acc.type));
        u.type = acc.type;
        u.dst = acc.op == IrOp::kLoad ? acc.id : acc.args[0];
        if (consumed == 4) {
          u.flag = bb.instrs[i + 2].imm2 != 0 ? 1 : 0;
        }
        ++df_.fused_superinstructions;
        i += consumed - 1;
        continue;
      }
      if (MatchXorShiftImm(bb.instrs, i, end, &fused)) {
        const IrInstr& s = bb.instrs[i];
        const IrInstr& x = bb.instrs[i + 1];
        MicroOp& u = Emit(fused);
        u.dst = x.id;
        u.a = s.args[0];
        u.c = s.id;
        u.imm = static_cast<int64_t>(const_val_[s.args[1]] & 63);
        ++df_.fused_superinstructions;
        i += 1;
        continue;
      }
      LowerInstr(in);
    }

    LowerTerminator(block, bb.instrs[end]);
  }

  // Lowers the terminator; fuses icmp+condbr when the preceding lowered uop
  // was exactly that icmp (checked against the last emitted micro-op).
  void LowerTerminator(uint32_t block, const IrInstr& term) {
    switch (term.op) {
      case IrOp::kRet: {
        MicroOp& u = Emit(UOp::kRet);
        u.a = term.args.empty() ? 0 : term.args[0];
        u.flag = term.args.empty() ? 0 : 1;
        break;
      }
      case IrOp::kBr: {
        MicroOp& u = Emit(UOp::kBr);
        (void)u;
        fixups_.push_back({df_.code.size() - 1, false, block,
                           static_cast<uint32_t>(term.imm)});
        break;
      }
      case IrOp::kCondBr: {
        // icmp+condbr fusion: the last emitted uop must be the icmp
        // producing the branch condition. kCmpBr reads slot operands; a
        // folded kICmpImm keeps its rhs const slot in `b` (the const's slot
        // is always materialized), so the conversion is uniform.
        if (options_.fuse && !df_.code.empty() && !term.args.empty()) {
          MicroOp& last = df_.code.back();
          if ((last.op == UOp::kICmp || last.op == UOp::kICmpImm) &&
              last.dst == term.args[0]) {
            last.op = UOp::kCmpBr;
            last.imm = 0;
            last.imm2 = 0;
            ++df_.fused_superinstructions;
            fixups_.push_back({df_.code.size() - 1, false, block,
                               static_cast<uint32_t>(term.imm)});
            fixups_.push_back({df_.code.size() - 1, true, block,
                               static_cast<uint32_t>(term.imm2)});
            break;
          }
        }
        MicroOp& u = Emit(UOp::kCondBr);
        u.a = term.args[0];
        fixups_.push_back({df_.code.size() - 1, false, block,
                           static_cast<uint32_t>(term.imm)});
        fixups_.push_back({df_.code.size() - 1, true, block,
                           static_cast<uint32_t>(term.imm2)});
        break;
      }
      default:
        FATAL("non-terminator at block end");
    }
  }

  void LowerInstr(const IrInstr& in) {
    switch (in.op) {
      case IrOp::kConst: {
        MicroOp& u = Emit(UOp::kConst);
        u.dst = in.id;
        u.imm = in.imm;
        break;
      }
      case IrOp::kArg: {
        MicroOp& u = Emit(UOp::kArg);
        u.dst = in.id;
        u.imm = in.imm;
        break;
      }
      case IrOp::kAdd:
      case IrOp::kSub:
      case IrOp::kMul:
      case IrOp::kUDiv:
      case IrOp::kURem:
      case IrOp::kAnd:
      case IrOp::kOr:
      case IrOp::kXor:
      case IrOp::kShl:
      case IrOp::kLShr: {
        const UOp imm_form = ImmForm(in.op);
        if (options_.fuse && imm_form != UOp::kCount && is_const_[in.args[1]]) {
          MicroOp& u = Emit(imm_form);
          u.dst = in.id;
          u.a = in.args[0];
          uint64_t rhs = const_val_[in.args[1]];
          if (in.op == IrOp::kShl || in.op == IrOp::kLShr) {
            rhs &= 63;  // reference masks the shift amount at runtime
          }
          u.imm = static_cast<int64_t>(rhs);
          break;
        }
        MicroOp& u = Emit(SlotForm(in.op));
        u.dst = in.id;
        u.a = in.args[0];
        u.b = in.args[1];
        break;
      }
      case IrOp::kICmp: {
        if (options_.fuse && is_const_[in.args[1]]) {
          MicroOp& u = Emit(UOp::kICmpImm);
          u.dst = in.id;
          u.a = in.args[0];
          u.aux = static_cast<uint8_t>(in.imm);
          u.imm = static_cast<int64_t>(const_val_[in.args[1]]);
          // Keep the slot too so CmpBr fusion can fall back to slot reads.
          u.b = in.args[1];
          break;
        }
        MicroOp& u = Emit(UOp::kICmp);
        u.dst = in.id;
        u.a = in.args[0];
        u.b = in.args[1];
        u.aux = static_cast<uint8_t>(in.imm);
        break;
      }
      case IrOp::kAlloca: {
        UOp op = UOp::kAllocaNative;
        if (in.symbol == "sgx") {
          op = UOp::kAllocaSgx;
        } else if (in.symbol == "asan") {
          op = UOp::kAllocaAsan;
        } else if (in.symbol == "scheme") {
          op = UOp::kAllocaScheme;
        } else if (options_.track_mpx) {
          op = UOp::kAllocaNativeMpx;
        }
        MicroOp& u = Emit(op);
        u.dst = in.id;
        u.imm = in.imm;
        break;
      }
      case IrOp::kMalloc: {
        UOp op = UOp::kMallocNative;
        if (in.symbol == "sgx") {
          op = UOp::kMallocSgx;
        } else if (in.symbol == "asan") {
          op = UOp::kMallocAsan;
        } else if (in.symbol == "scheme") {
          op = UOp::kMallocScheme;
        } else if (options_.track_mpx) {
          op = UOp::kMallocNativeMpx;
        }
        MicroOp& u = Emit(op);
        u.dst = in.id;
        u.a = in.args[0];
        break;
      }
      case IrOp::kFree: {
        UOp op = UOp::kFreeNative;
        if (in.symbol == "sgx") {
          op = UOp::kFreeSgx;
        } else if (in.symbol == "asan") {
          op = UOp::kFreeAsan;
        } else if (in.symbol == "scheme") {
          op = UOp::kFreeScheme;
        }
        MicroOp& u = Emit(op);
        u.a = in.args[0];
        break;
      }
      case IrOp::kGep: {
        MicroOp& u = Emit(options_.track_mpx ? UOp::kGepMpx : UOp::kGep);
        u.dst = in.id;
        u.a = in.args[0];
        u.b = in.args[1];
        u.imm = in.imm;
        u.imm2 = in.imm2;
        break;
      }
      case IrOp::kMaskPtr: {
        MicroOp& u = Emit(UOp::kMaskPtr);
        u.dst = in.id;
        u.a = in.args[0];
        u.b = in.args[1];
        break;
      }
      case IrOp::kLoad: {
        MicroOp& u = Emit(UOp::kLoad);
        u.dst = in.id;
        u.a = in.args[0];
        u.type = in.type;
        u.aux = static_cast<uint8_t>(IrTypeSize(in.type));
        break;
      }
      case IrOp::kStore: {
        MicroOp& u = Emit(UOp::kStore);
        u.a = in.args[0];
        u.b = in.args[1];
        u.type = in.type;
        u.aux = static_cast<uint8_t>(IrTypeSize(in.type));
        break;
      }
      case IrOp::kSgxCheck: {
        MicroOp& u = Emit(UOp::kSgxCheck);
        u.a = in.args[0];
        u.imm = in.imm;
        u.flag = in.imm2 != 0 ? 1 : 0;
        break;
      }
      case IrOp::kSgxCheckRange: {
        MicroOp& u = Emit(UOp::kSgxCheckRange);
        u.a = in.args[0];
        u.b = in.args[1];
        break;
      }
      case IrOp::kSchemeCheck: {
        MicroOp& u = Emit(UOp::kSchemeCheck);
        u.a = in.args[0];
        u.imm = in.imm;
        u.flag = in.imm2 != 0 ? 1 : 0;
        break;
      }
      case IrOp::kSchemeCheckRange: {
        MicroOp& u = Emit(UOp::kSchemeCheckRange);
        u.a = in.args[0];
        u.b = in.args[1];
        break;
      }
      case IrOp::kAsanCheck: {
        MicroOp& u = Emit(UOp::kAsanCheck);
        u.a = in.args[0];
        u.imm = in.imm;
        u.flag = in.imm2 != 0 ? 1 : 0;
        break;
      }
      case IrOp::kMpxCheck: {
        MicroOp& u = Emit(UOp::kMpxCheck);
        u.a = in.args[0];
        u.imm = in.imm;
        break;
      }
      case IrOp::kMpxLdx: {
        MicroOp& u = Emit(UOp::kMpxLdx);
        u.a = in.args[0];
        u.b = in.args[1];
        break;
      }
      case IrOp::kMpxStx: {
        MicroOp& u = Emit(UOp::kMpxStx);
        u.a = in.args[0];
        u.b = in.args[1];
        break;
      }
      case IrOp::kCall: {
        if (in.symbol == "abs64" && !in.args.empty()) {
          MicroOp& u = Emit(UOp::kCallAbs64);
          u.dst = in.id;
          u.a = in.args[0];
        } else {
          MicroOp& u = Emit(UOp::kCallNop);
          u.dst = in.id;
        }
        break;
      }
      case IrOp::kPhi:
      case IrOp::kBr:
      case IrOp::kCondBr:
      case IrOp::kRet:
        FATAL("terminator/phi in straight-line lowering");
    }
  }

  // --- phi edges ------------------------------------------------------------------

  // Reference semantics: on entering `succ` from `pred`, each leading phi
  // takes the incoming value aligned with the position of `pred` in
  // succ.preds (first match; position 0 if absent). Values are read in
  // parallel (scratch buffer); MPX bounds are copied sequentially in phi
  // order. The stub reproduces both orders exactly.
  uint32_t EdgeTarget(uint32_t pred, uint32_t succ) {
    const IrBlock& bb = fn_.blocks[succ];
    size_t n_phis = 0;
    while (n_phis < bb.instrs.size() && bb.instrs[n_phis].op == IrOp::kPhi) {
      ++n_phis;
    }
    // Reference phi phase only runs when the successor has predecessors
    // recorded; an empty pred list skips phi evaluation entirely.
    if (n_phis == 0 || bb.preds.empty()) {
      return block_entry_[succ];
    }
    const auto key = std::make_pair(pred, succ);
    const auto it = stub_cache_.find(key);
    if (it != stub_cache_.end()) {
      return it->second;
    }

    size_t pred_index = 0;
    for (size_t p = 0; p < bb.preds.size(); ++p) {
      if (bb.preds[p] == pred) {
        pred_index = p;
        break;
      }
    }

    std::vector<Move> moves;
    const uint32_t stub_start = static_cast<uint32_t>(df_.code.size());
    for (size_t i = 0; i < n_phis; ++i) {
      const IrInstr& phi = bb.instrs[i];
      const uint32_t src = phi.args[pred_index];
      if (options_.track_mpx) {
        MicroOp& u = Emit(UOp::kBoundsCopy);
        u.dst = phi.id;
        u.a = src;
      }
      if (src != phi.id) {
        moves.push_back({phi.id, src});
      }
    }
    EmitParallelCopies(moves);
    // The IR terminator already charged the branch; the stub exit is free.
    MicroOp& br = Emit(UOp::kJump);
    br.imm = block_entry_[succ];

    ++df_.edge_stubs;
    stub_cache_[key] = stub_start;
    return stub_start;
  }

  // Sequentializes a parallel copy: emit moves whose destination no other
  // pending move still reads; break cycles by parking a destination in a
  // fresh temporary slot and redirecting its readers.
  void EmitParallelCopies(std::vector<Move> pending) {
    uint32_t temps = 0;
    while (!pending.empty()) {
      bool progress = false;
      for (size_t i = 0; i < pending.size(); ++i) {
        const uint32_t d = pending[i].dst;
        bool read_later = false;
        for (size_t j = 0; j < pending.size(); ++j) {
          if (j != i && pending[j].src == d) {
            read_later = true;
            break;
          }
        }
        if (!read_later) {
          MicroOp& u = Emit(UOp::kCopy);
          u.dst = pending[i].dst;
          u.a = pending[i].src;
          pending.erase(pending.begin() + i);
          progress = true;
          break;
        }
      }
      if (!progress) {
        const uint32_t d = pending[0].dst;
        const uint32_t t = fn_.num_values + temps;
        ++temps;
        MicroOp& u = Emit(UOp::kCopy);
        u.dst = t;
        u.a = d;
        for (Move& m : pending) {
          if (m.src == d) {
            m.src = t;
          }
        }
      }
    }
    max_stub_temps_ = std::max(max_stub_temps_, temps);
    df_.phi_cycle_temps = std::max(df_.phi_cycle_temps, temps);
  }

  void ResolveEdges() {
    for (const Fixup& fx : fixups_) {
      const uint32_t target = EdgeTarget(fx.pred, fx.succ);
      MicroOp& u = df_.code[fx.uop_index];
      if (fx.second_field) {
        u.imm2 = target;
      } else {
        u.imm = target;
      }
    }
  }

  const IrFunction& fn_;
  const DecodeOptions options_;
  DecodedFunction df_;
  std::vector<uint32_t> block_entry_;
  std::vector<Fixup> fixups_;
  std::vector<uint8_t> is_const_;
  std::vector<uint64_t> const_val_;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> stub_cache_;
  uint32_t max_stub_temps_ = 0;
};

}  // namespace

DecodedFunction DecodeFunction(const IrFunction& fn, const DecodeOptions& options) {
  return Decoder(fn, options).Run();
}

uint64_t HashIrFunction(const IrFunction& fn) {
  uint64_t h = kFnvOffset;
  const auto mix = [&h](uint64_t v) { h = FnvMix(h, v); };
  mix(fn.num_args);
  mix(fn.num_values);
  mix(fn.blocks.size());
  for (const IrBlock& bb : fn.blocks) {
    mix(bb.preds.size());
    for (const uint32_t p : bb.preds) {
      mix(p);
    }
    mix(bb.instrs.size());
    for (const IrInstr& in : bb.instrs) {
      mix(in.id);
      mix(static_cast<uint64_t>(in.op));
      mix(static_cast<uint64_t>(in.type));
      mix(in.args.size());
      for (const ValueId a : in.args) {
        mix(a);
      }
      mix(static_cast<uint64_t>(in.imm));
      mix(static_cast<uint64_t>(in.imm2));
      mix(in.symbol.size());
      for (const char c : in.symbol) {
        mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
      }
    }
  }
  return h;
}

const char* UOpName(UOp op) {
  switch (op) {
#define SGXB_UOP_NAME(name, text) \
  case UOp::name:                 \
    return text;
    SGXB_UOP_LIST(SGXB_UOP_NAME, SGXB_UOP_NAME)
#undef SGXB_UOP_NAME
    case UOp::kCount:
      break;
  }
  return "?";
}

}  // namespace sgxb
