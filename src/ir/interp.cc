#include "src/ir/interp.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/ir/eval.h"
#include "src/ir/exec/jit/code_buffer.h"

namespace sgxb {

namespace {

// True if `fn` holds an op only an attached IrSchemeRuntime can execute.
bool NeedsSchemeRuntime(const IrFunction& fn) {
  for (const IrBlock& bb : fn.blocks) {
    for (const IrInstr& in : bb.instrs) {
      const bool alloc =
          in.op == IrOp::kAlloca || in.op == IrOp::kMalloc || in.op == IrOp::kFree;
      if (in.op == IrOp::kSchemeCheck || in.op == IrOp::kSchemeCheckRange ||
          (alloc && in.symbol == kSchemeAllocSymbol)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Interpreter::Interpreter(Enclave* enclave, Heap* heap, StackAllocator* stack)
    : enclave_(enclave), heap_(heap), stack_(stack) {}

void Interpreter::Attach(IrSchemeRuntime* rt, IrSchemeKind kind) {
  if (scheme_ != nullptr && scheme_ != rt) {
    FATAL("Interpreter::AttachScheme: a different scheme runtime is already attached");
  }
  scheme_ = rt;
  scheme_kind_ = kind;
}

void Interpreter::AttachScheme(AsanRuntime* rt) {
  Attach(rt, IrSchemeKind::kAsan);
  asan_checks_ = rt->InlineCheckCounter(enclave_);
  asan_shadow_base_ = rt->shadow_base();
}

void Interpreter::AttachMpx(MpxRuntime* rt) {
  mpx_ = rt;
  mpx_checks_ = rt != nullptr ? rt->InlineCheckCounter() : nullptr;
}

uint64_t Interpreter::Run(const IrFunction& fn, Cpu& cpu, const std::vector<uint64_t>& args,
                          uint64_t max_steps) {
  if (scheme_ == nullptr && NeedsSchemeRuntime(fn)) {
    FATAL("Interpreter::Run: the function holds scheme ops but no scheme runtime is "
          "attached");
  }
  const IrEngine engine = ResolveIrEngine(engine_);
  if (engine == IrEngine::kReference) {
    return RunReference(fn, cpu, args, max_steps);
  }
  const DecodedFunction df = DecodeFunction(fn, /*track_mpx=*/mpx_ != nullptr);
  if (engine == IrEngine::kJit) {
    if (jit::JitExecutableAvailable()) {
      const jit::JitProgram jp = jit::CompileDecodedFunction(df);
      if (jp.ok()) {
        return RunJit(df, jp, cpu, args, max_steps);
      }
    }
    // JIT unavailable (non-x86-64 host, sandbox denying PROT_EXEC,
    // SGXB_IR_FORCE_NOEXEC, mmap failure): degrade to the threaded engine -
    // identical simulated results, slower host execution. Warn once per
    // process, not per call.
    GlobalIrExecStats().jit_noexec_fallbacks.fetch_add(1, std::memory_order_relaxed);
    static const bool warned = [] {
      std::fprintf(stderr,
                   "[ir_engine] warning: jit requested but unavailable on this "
                   "host (non-x86-64 or executable memory denied); falling "
                   "back to the threaded engine\n");
      return true;
    }();
    (void)warned;
  }
  return RunDecoded(df, cpu, args, max_steps);
}

uint64_t Interpreter::RunReference(const IrFunction& fn, Cpu& cpu,
                                   const std::vector<uint64_t>& args, uint64_t max_steps) {
  values_.assign(fn.num_values, 0);
  auto& values = values_;
  if (mpx_ != nullptr) {
    mpx_bounds_.assign(fn.num_values, MpxBounds{});
    mpx_valid_.assign(fn.num_values, 0);
  }

  const uint32_t frame = stack_->PushFrame();
  uint32_t block = 0;
  uint32_t prev_block = ~0u;
  uint64_t ret = 0;

  auto addr_of = [](uint64_t v) { return static_cast<uint32_t>(v); };
  auto set_bounds = [this](ValueId id, const MpxBounds& b) {
    mpx_bounds_[id] = b;
    mpx_valid_[id] = 1;
  };
  // Propagates bounds from src to dst iff src is tracked (untracked pointers
  // stay untracked, matching the erased-map semantics).
  auto copy_bounds = [this](ValueId dst, ValueId src) {
    if (mpx_valid_[src]) {
      mpx_bounds_[dst] = mpx_bounds_[src];
      mpx_valid_[dst] = 1;
    }
  };
  auto bounds_or_init = [this](ValueId id) {
    return mpx_valid_[id] ? mpx_bounds_[id] : MpxBounds{};
  };

  try {
    for (;;) {
      const IrBlock& bb = fn.blocks[block];
      // Phase 1: evaluate phis against predecessor values.
      size_t i = 0;
      if (prev_block != ~0u && !bb.preds.empty()) {
        size_t pred_index = 0;
        for (size_t p = 0; p < bb.preds.size(); ++p) {
          if (bb.preds[p] == prev_block) {
            pred_index = p;
            break;
          }
        }
        phi_scratch_.clear();
        for (; i < bb.instrs.size() && bb.instrs[i].op == IrOp::kPhi; ++i) {
          const IrInstr& phi = bb.instrs[i];
          phi_scratch_.emplace_back(phi.id, values[phi.args[pred_index]]);
          if (mpx_ != nullptr) {
            copy_bounds(phi.id, phi.args[pred_index]);
          }
        }
        for (const auto& [id, v] : phi_scratch_) {
          values[id] = v;
        }
      } else {
        while (i < bb.instrs.size() && bb.instrs[i].op == IrOp::kPhi) {
          ++i;
        }
      }

      // Phase 2: straight-line execution.
      bool jumped = false;
      for (; i < bb.instrs.size(); ++i) {
        const IrInstr& in = bb.instrs[i];
        if (++stats_.steps > max_steps) {
          throw SimTrap(TrapKind::kIllegalInstruction, 0, "interpreter step limit exceeded");
        }
        switch (in.op) {
          case IrOp::kConst:
            values[in.id] = static_cast<uint64_t>(in.imm);
            break;
          case IrOp::kArg:
            values[in.id] = in.imm >= 0 && in.imm < static_cast<int64_t>(args.size())
                                ? args[static_cast<size_t>(in.imm)]
                                : 0;
            break;
          case IrOp::kAdd:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] + values[in.args[1]];
            break;
          case IrOp::kSub:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] - values[in.args[1]];
            break;
          case IrOp::kMul:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] * values[in.args[1]];
            break;
          case IrOp::kUDiv:
            cpu.Alu(1);
            values[in.id] =
                values[in.args[1]] == 0 ? 0 : values[in.args[0]] / values[in.args[1]];
            break;
          case IrOp::kURem:
            cpu.Alu(1);
            values[in.id] =
                values[in.args[1]] == 0 ? 0 : values[in.args[0]] % values[in.args[1]];
            break;
          case IrOp::kAnd:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] & values[in.args[1]];
            break;
          case IrOp::kOr:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] | values[in.args[1]];
            break;
          case IrOp::kXor:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] ^ values[in.args[1]];
            break;
          case IrOp::kShl:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] << (values[in.args[1]] & 63);
            break;
          case IrOp::kLShr:
            cpu.Alu(1);
            values[in.id] = values[in.args[0]] >> (values[in.args[1]] & 63);
            break;
          case IrOp::kICmp:
            cpu.Alu(1);
            values[in.id] =
                EvalCmp(static_cast<IrCmp>(in.imm), values[in.args[0]], values[in.args[1]])
                    ? 1
                    : 0;
            break;
          case IrOp::kBr:
            cpu.Branch();
            prev_block = block;
            block = static_cast<uint32_t>(in.imm);
            jumped = true;
            break;
          case IrOp::kCondBr:
            cpu.Branch();
            prev_block = block;
            block = values[in.args[0]] != 0 ? static_cast<uint32_t>(in.imm)
                                            : static_cast<uint32_t>(in.imm2);
            jumped = true;
            break;
          case IrOp::kRet:
            if (!in.args.empty()) {
              ret = values[in.args[0]];
            }
            stack_->PopFrame(frame);
            return ret;
          case IrOp::kAlloca: {
            const uint32_t size = static_cast<uint32_t>(in.imm);
            if (in.symbol == kSchemeAllocSymbol) {
              values[in.id] = scheme_->IrAlloca(cpu, *stack_, size);
            } else {
              values[in.id] = stack_->Alloca(cpu, size);
              if (mpx_ != nullptr) {
                set_bounds(in.id, mpx_->BndMk(cpu, addr_of(values[in.id]), size));
              }
            }
            break;
          }
          case IrOp::kMalloc: {
            const uint32_t size = static_cast<uint32_t>(values[in.args[0]]);
            if (in.symbol == kSchemeAllocSymbol) {
              values[in.id] = scheme_->IrMalloc(cpu, size);
            } else {
              values[in.id] = heap_->Alloc(cpu, size);
              if (mpx_ != nullptr) {
                set_bounds(in.id, mpx_->BndMk(cpu, addr_of(values[in.id]), size));
              }
            }
            break;
          }
          case IrOp::kFree:
            if (in.symbol == kSchemeAllocSymbol) {
              scheme_->IrFree(cpu, values[in.args[0]]);
            } else {
              heap_->Free(cpu, addr_of(values[in.args[0]]));
            }
            break;
          case IrOp::kGep: {
            cpu.Alu(2);
            values[in.id] = values[in.args[0]] +
                            values[in.args[1]] * static_cast<uint64_t>(in.imm) +
                            static_cast<uint64_t>(in.imm2);
            if (mpx_ != nullptr) {
              copy_bounds(in.id, in.args[0]);
            }
            break;
          }
          case IrOp::kMaskPtr: {
            // tagged = (UB of original) | (low 32 of arithmetic result).
            cpu.Alu(2);
            values[in.id] = (values[in.args[1]] & 0xffffffff00000000ULL) |
                            (values[in.args[0]] & 0xffffffffULL);
            break;
          }
          case IrOp::kLoad: {
            ++stats_.loads;
            const uint32_t addr = addr_of(values[in.args[0]]);
            const uint32_t size = IrTypeSize(in.type);
            uint64_t raw = 0;
            enclave_->LoadBytes(cpu, addr, &raw, size);
            values[in.id] = TruncateToType(in.type, raw);
            break;
          }
          case IrOp::kStore: {
            ++stats_.stores;
            const uint32_t addr = addr_of(values[in.args[1]]);
            const uint32_t size = IrTypeSize(in.type);
            const uint64_t raw = TruncateToType(in.type, values[in.args[0]]);
            enclave_->StoreBytes(cpu, addr, &raw, size);
            break;
          }
          case IrOp::kMpxCheck: {
            ++stats_.checks;
            mpx_->BndCheck(cpu, bounds_or_init(in.args[0]), addr_of(values[in.args[0]]),
                           static_cast<uint32_t>(in.imm));
            break;
          }
          case IrOp::kSchemeCheck: {
            ++stats_.checks;
            scheme_->IrCheck(cpu, values[in.args[0]], static_cast<uint32_t>(in.imm),
                             in.imm2 != 0 ? AccessType::kWrite : AccessType::kRead);
            break;
          }
          case IrOp::kSchemeCheckRange: {
            ++stats_.checks;
            scheme_->IrCheckRange(cpu, values[in.args[0]], values[in.args[1]]);
            break;
          }
          case IrOp::kMpxLdx: {
            set_bounds(in.args[0], mpx_->BndLdx(cpu, addr_of(values[in.args[1]]),
                                                addr_of(values[in.args[0]])));
            break;
          }
          case IrOp::kMpxStx: {
            mpx_->BndStx(cpu, addr_of(values[in.args[1]]), addr_of(values[in.args[0]]),
                         bounds_or_init(in.args[0]));
            break;
          }
          case IrOp::kPhi:
            FATAL("phi reached in straight-line phase");
        }
        if (jumped) {
          break;
        }
      }
      CHECK(jumped);
    }
  } catch (...) {
    stack_->PopFrame(frame);
    throw;
  }
}

}  // namespace sgxb
