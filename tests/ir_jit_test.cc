// Directed tests for the template JIT tier (src/ir/exec/jit/): the pieces
// the engine-differential fuzzer cannot reach - the PROT_EXEC fallback path
// (forced via SGXB_IR_FORCE_NOEXEC), the helper-only cross-check mode
// (SGXB_IR_JIT_HELPER_ONLY), the W^X discipline of the installed code
// mappings, and the guards of the inline (tier-2) loads and stores and
// (tier-3) MPX and ASan checks against the reference and threaded engines.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/enclave/fault_hooks.h"
#include "src/enclave/trap.h"
#include "src/ir/builder.h"
#include "src/ir/exec/decoder.h"
#include "src/ir/exec/jit/code_buffer.h"
#include "src/ir/exec/jit/compiler.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"
#include "src/trace/trace_recorder.h"

namespace sgxb {
namespace {

// Sets an environment variable for one scope; restores the prior state on
// destruction so test order cannot leak knobs.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// The runtime a Rig's interpreter runs instrumentation on.
enum class RigScheme { kSgxBounds, kMpx, kAsan };

struct Rig {
  explicit Rig(RigScheme scheme = RigScheme::kSgxBounds) {
    EnclaveConfig cfg;
    cfg.space_bytes = 64 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 16 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 1 * kMiB);
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    switch (scheme) {
      case RigScheme::kSgxBounds:
        sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
        interp->AttachScheme(sgx.get());
        break;
      case RigScheme::kMpx:
        mpx = std::make_unique<MpxRuntime>(enclave.get());
        interp->AttachMpx(mpx.get());
        break;
      case RigScheme::kAsan:
        asan = std::make_unique<AsanRuntime>(enclave.get(), heap.get());
        interp->AttachScheme(asan.get());
        break;
    }
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<SgxBoundsRuntime> sgx;
  std::unique_ptr<MpxRuntime> mpx;
  std::unique_ptr<AsanRuntime> asan;
  std::unique_ptr<Interpreter> interp;
};

// Store-load kernel with enough shape to exercise fused superinstructions
// and (instrumented) gep+check+access quads through the JIT.
IrFunction BuildKernel(uint32_t n, bool instrument) {
  IrBuilder b("jitk");
  const ValueId buf = b.Malloc(b.Const(static_cast<int64_t>(n) * 8));
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  ValueId x = b.Mul(loop.iv, b.Const(0x9e3779b9));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kShl, x, b.Const(13)));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kLShr, x, b.Const(7)));
  b.Store(IrType::kI64, x, b.Gep(buf, loop.iv, 8));
  b.EndLoop(loop);
  const ValueId r = b.Load(IrType::kI64, b.Gep(buf, b.Const(n / 2), 8));
  b.Free(buf);
  b.Ret(r);
  IrFunction fn = b.Finish();
  if (instrument) {
    RunCheckPipeline(fn, TaggedSchemeCheckLowering(0), {});
  }
  return fn;
}

struct Outcome {
  bool trapped = false;
  uint64_t result = 0;
  uint64_t steps = 0;
  PerfCounters counters;
};

Outcome RunOn(IrEngine engine, const IrFunction& fn) {
  Rig rig;
  rig.interp->set_engine(engine);
  Outcome out;
  try {
    out.result = rig.interp->Run(fn, rig.enclave->main_cpu());
  } catch (const SimTrap&) {
    out.trapped = true;
  }
  out.steps = rig.interp->stats().steps;
  out.counters = rig.enclave->main_cpu().counters();
  return out;
}

TEST(IrJit, NoexecKnobDisablesExecutableMemory) {
  ScopedEnv guard("SGXB_IR_FORCE_NOEXEC", "1");
  EXPECT_FALSE(jit::JitExecutableAvailable());
}

TEST(IrJit, FallsBackToThreadedWhenExecUnavailable) {
  const IrFunction fn = BuildKernel(32, /*instrument=*/true);
  const Outcome ref = RunOn(IrEngine::kReference, fn);
  ASSERT_FALSE(ref.trapped);

  ScopedEnv guard("SGXB_IR_FORCE_NOEXEC", "1");
  const IrExecStatsSnapshot before = SnapshotIrExecStats();
  Rig rig;
  rig.interp->set_engine(IrEngine::kJit);
  const uint64_t result = rig.interp->Run(fn, rig.enclave->main_cpu());
  EXPECT_EQ(result, ref.result);
  EXPECT_EQ(rig.interp->stats().steps, ref.steps);
  EXPECT_TRUE(rig.enclave->main_cpu().counters() == ref.counters);
  // The fallback ran the threaded engine: nothing was compiled.
  const IrExecStatsSnapshot after = SnapshotIrExecStats();
  EXPECT_EQ(after.jit_compiles, before.jit_compiles);
  EXPECT_GT(after.jit_noexec_fallbacks, before.jit_noexec_fallbacks);
}

TEST(IrJit, HelperOnlyModeIsBitIdentical) {
  // Thunk-vs-template cross-check: every non-control op routed through the
  // slow-path helpers must reproduce the reference run exactly.
  for (const bool instrument : {false, true}) {
    const IrFunction fn = BuildKernel(48, instrument);
    const Outcome ref = RunOn(IrEngine::kReference, fn);
    ScopedEnv guard("SGXB_IR_JIT_HELPER_ONLY", "1");
    const Outcome jit = RunOn(IrEngine::kJit, fn);
    EXPECT_EQ(jit.trapped, ref.trapped) << "instrument " << instrument;
    EXPECT_EQ(jit.result, ref.result) << "instrument " << instrument;
    EXPECT_EQ(jit.steps, ref.steps) << "instrument " << instrument;
    EXPECT_TRUE(jit.counters == ref.counters) << "instrument " << instrument;
  }
}

// --- tier 2: inline guest loads and stores --------------------------------
//
// The jit makes a load or store inline when its address is addressable, in
// one cache line and on its L1 set's MRU way, and runs the op's thunk
// otherwise. These programs put accesses on each side of every one of those
// tests and require the three engines to agree on everything observable.

// A straight-line program over one pointer argument (the probe region's
// base). Each access is either plain (`load/store base + off`) or the fused
// quad the tagged lowering leaves once its check is hoisted or elided
// (`t = gep base, 0, off ; p = maskptr t, base ; load/store p`). Loaded
// values are folded into the return value.
class AccessProgram {
 public:
  AccessProgram() {
    fn_.name = "tier2";
    fn_.num_args = 1;
    base_ = Emit(IrOp::kArg, IrType::kPtr, {}, 0);
    acc_ = Const(0);
    mul_ = Const(31);
  }

  void Load(IrType type, int64_t off, bool quad) {
    Branch();
    const ValueId v = Emit(IrOp::kLoad, type, {Address(off, quad)});
    acc_ = Emit(IrOp::kAdd, IrType::kI64, {Emit(IrOp::kMul, IrType::kI64, {acc_, mul_}), v});
  }
  void Store(IrType type, int64_t off, int64_t value, bool quad) {
    Branch();
    const ValueId v = Const(value);
    const ValueId p = Address(off, quad);
    Emit(IrOp::kStore, type, {v, p}, 0, 0, /*has_value=*/false);
  }

  // For tier 3: an MPX-bounded object, `bytes` of stack, whose bounds
  // (BndMk) the MPX decode keeps in the side table.
  ValueId Alloca(int64_t bytes) { return Emit(IrOp::kAlloca, IrType::kPtr, {}, bytes); }
  // An MPX check of `size` bytes at `obj + off`; the gep carries obj's
  // bounds. With obj == 0 the pointer is the constant `off`, whose bounds
  // are INIT.
  void MpxCheck(ValueId obj, int64_t off, int64_t size) {
    Branch();
    const ValueId p = obj == 0 ? Const(off)
                               : Emit(IrOp::kGep, IrType::kPtr, {obj, Const(0)}, 1, off);
    Emit(IrOp::kMpxCheck, IrType::kPtr, {p}, size, 0, /*has_value=*/false);
  }
  // A scheme check of `size` bytes at `base + off`.
  void SchemeCheck(int64_t off, int64_t size) {
    Branch();
    Emit(IrOp::kSchemeCheck, IrType::kPtr, {Address(off, false)}, size, 0,
         /*has_value=*/false);
  }

  IrFunction Finish() {
    Emit(IrOp::kRet, IrType::kI64, {acc_}, 0, 0, /*has_value=*/false);
    IrFunction fn = fn_;
    fn.blocks = blocks_;
    fn.blocks.push_back(block_);
    return fn;
  }

 private:
  // Ends the block with a branch to the next one: every access flushes a
  // pending branch count along with its pending ALU count.
  void Branch() {
    const int64_t next = static_cast<int64_t>(blocks_.size()) + 1;
    Emit(IrOp::kBr, IrType::kI64, {}, next, 0, /*has_value=*/false);
    blocks_.push_back(std::move(block_));
    block_ = IrBlock{};
    block_.preds = {static_cast<uint32_t>(next - 1)};
  }
  ValueId Const(int64_t value) { return Emit(IrOp::kConst, IrType::kI64, {}, value); }
  ValueId Address(int64_t off, bool quad) {
    if (!quad) {
      return Emit(IrOp::kAdd, IrType::kPtr, {base_, Const(off)});
    }
    const ValueId zero = Const(0);
    const ValueId t = Emit(IrOp::kGep, IrType::kPtr, {base_, zero}, 1, off);
    return Emit(IrOp::kMaskPtr, IrType::kPtr, {t, base_});
  }
  ValueId Emit(IrOp op, IrType type, std::vector<ValueId> args, int64_t imm = 0,
               int64_t imm2 = 0, bool has_value = true) {
    IrInstr in{};
    in.id = has_value ? fn_.num_values++ : 0;
    in.op = op;
    in.type = type;
    in.args = std::move(args);
    in.imm = imm;
    in.imm2 = imm2;
    block_.instrs.push_back(std::move(in));
    return block_.instrs.back().id;
  }

  IrFunction fn_;
  std::vector<IrBlock> blocks_;
  IrBlock block_;
  ValueId base_ = 0;
  ValueId acc_ = 0;
  ValueId mul_ = 0;
};

constexpr IrType kWidths[] = {IrType::kI8, IrType::kI16, IrType::kI32, IrType::kI64};

// The probe region: pages 0 and 1 committed, page 2 a guard page, page 3
// never committed.
constexpr uint32_t kProbePages = 4;
constexpr int64_t kPage = kPageSize;
constexpr int64_t kGuardOff = 2 * kPage;
constexpr int64_t kUncommittedOff = 3 * kPage;

// Records every access the enclave reports to fault hooks.
class AccessLog : public FaultHooks {
 public:
  void OnAccess(Cpu&, uint32_t addr, uint32_t size) override {
    accesses.push_back((static_cast<uint64_t>(addr) << 8) | size);
  }
  bool OnAlloc(Cpu&) override { return false; }
  std::vector<uint64_t> accesses;
};

std::array<uint64_t, 8> Fields(const MpxStats& s) {
  return {s.bndmk, s.bndcl_bndcu, s.bndldx,           s.bndstx,
          s.bt_allocs, s.value_mismatches, s.violations, s.reg_hits};
}
std::array<uint64_t, 6> Fields(const AsanStats& s) {
  return {s.mallocs,      s.frees,        s.quarantine_bytes_held, s.quarantine_evictions,
          s.shadow_checks, s.reports};
}

struct Observed {
  bool trapped = false;
  TrapKind kind = TrapKind::kSegFault;
  std::string message;
  uint64_t result = 0;
  InterpStats stats;
  PerfCounters counters;
  std::vector<uint8_t> memory;  // the probe region's committed pages
  std::vector<uint32_t> l1;      // every L1 set's lines, most recent first
  std::vector<uint64_t> hooked;  // accesses seen by fault hooks, if attached
  std::vector<uint8_t> trace;    // the recorded event stream, if recorded
  std::array<uint64_t, 8> mpx{};   // MpxStats, under RigScheme::kMpx
  std::array<uint64_t, 6> asan{};  // AsanStats, under RigScheme::kAsan
};

struct ObserveOptions {
  uint64_t max_steps = 1000000;
  bool hooks = false;   // attach fault hooks
  bool record = false;  // record a trace
  // Run once, make page 1 a guard page, and observe a second run: lines of
  // page 1 the first run left on their set's MRU way are no longer
  // addressable.
  bool guard_page1_then_rerun = false;
  RigScheme scheme = RigScheme::kSgxBounds;
};

// An object of kAsanObjectBytes at kAsanObjectOff of the probe region,
// registered with ASan's heap redzones around it: its last granule is
// partial (shadow byte 5) and the bytes either side are poisoned.
constexpr int64_t kAsanObjectOff = 1024;
constexpr uint32_t kAsanObjectBytes = 13;

// Reserves the probe region in `rig` and returns its base; under ASan, also
// registers the probe object.
uint32_t SetUpProbe(Rig& rig) {
  Enclave& enclave = *rig.enclave;
  const uint32_t base = enclave.pages().ReserveLow(kProbePages * kPageSize, "probe");
  enclave.pages().Commit(nullptr, base, 3 * kPageSize);
  enclave.pages().SetGuardPage(PageOf(base) + 2);
  if (rig.asan != nullptr) {
    rig.asan->RegisterObject(enclave.main_cpu(), base + kAsanObjectOff, kAsanObjectBytes,
                             AsanRuntime::kShadowHeapRedzone);
  }
  return base;
}

Observed Observe(IrEngine engine, const IrFunction& fn, const ObserveOptions& opts = {}) {
  Rig rig(opts.scheme);
  Enclave& enclave = *rig.enclave;
  TraceRecorder recorder("tier2");
  if (opts.record) {
    recorder.BeginRun(TraceHeader{});
    enclave.AttachTrace(&recorder);
  }
  AccessLog log;
  if (opts.hooks) {
    enclave.AttachFaults(&log);
  }
  const uint32_t base = SetUpProbe(rig);

  rig.interp->set_engine(engine);
  Observed out;
  try {
    if (opts.guard_page1_then_rerun) {
      rig.interp->Run(fn, enclave.main_cpu(), {base}, opts.max_steps);
      enclave.pages().SetGuardPage(PageOf(base) + 1);
    }
    out.result = rig.interp->Run(fn, enclave.main_cpu(), {base}, opts.max_steps);
  } catch (const SimTrap& t) {
    out.trapped = true;
    out.kind = t.kind();
    out.message = t.what();
  }
  out.stats = rig.interp->stats();
  out.counters = enclave.main_cpu().counters();
  for (uint32_t i = 0; i < 2 * kPageSize; ++i) {
    out.memory.push_back(enclave.Peek<uint8_t>(base + i));
  }
  Cache& l1 = enclave.main_cpu().l1();
  for (uint32_t set = 0; set < l1.sets(); ++set) {
    const std::vector<uint32_t> order = l1.SetOrder(set);
    out.l1.insert(out.l1.end(), order.begin(), order.end());
  }
  out.hooked = log.accesses;
  if (opts.record) {
    recorder.Finalize(TraceRecorder::Outcome{});
    out.trace = recorder.TakeTrace().events;
  }
  if (rig.mpx != nullptr) {
    out.mpx = Fields(rig.mpx->stats());
  }
  if (rig.asan != nullptr) {
    out.asan = Fields(rig.asan->stats());
  }
  return out;
}

void ExpectSame(const Observed& ref, const Observed& got, const std::string& label) {
  EXPECT_EQ(got.trapped, ref.trapped) << label;
  EXPECT_EQ(got.kind, ref.kind) << label;
  EXPECT_EQ(got.message, ref.message) << label;
  EXPECT_EQ(got.result, ref.result) << label;
  EXPECT_EQ(got.stats.steps, ref.stats.steps) << label;
  EXPECT_EQ(got.stats.loads, ref.stats.loads) << label;
  EXPECT_EQ(got.stats.stores, ref.stats.stores) << label;
  EXPECT_EQ(got.stats.checks, ref.stats.checks) << label;
  EXPECT_TRUE(got.counters == ref.counters) << label;
  EXPECT_TRUE(got.memory == ref.memory) << label;
  EXPECT_TRUE(got.l1 == ref.l1) << label;
  EXPECT_TRUE(got.hooked == ref.hooked) << label;
  EXPECT_TRUE(got.trace == ref.trace) << label;
  EXPECT_TRUE(got.mpx == ref.mpx) << label;
  EXPECT_TRUE(got.asan == ref.asan) << label;
}

// Runs `fn` under all three engines and compares threaded and jit against
// the reference.
void ExpectEnginesAgree(const IrFunction& fn, const std::string& label,
                        const ObserveOptions& opts = {}) {
  const Observed ref = Observe(IrEngine::kReference, fn, opts);
  ExpectSame(ref, Observe(IrEngine::kThreaded, fn, opts), label + " threaded");
  ExpectSame(ref, Observe(IrEngine::kJit, fn, opts), label + " jit");
}

// Every width, plain and fused, in a line, across a line and across a page;
// stores of wide values through narrow types (truncation); a line reached
// cold, then again after a set conflict moved it to way 1, then as MRU.
IrFunction BuildAccessShapes() {
  AccessProgram p;
  int64_t value = 0x1122334455667788;
  for (const bool quad : {false, true}) {
    const int64_t page = quad ? 0 : kPage;  // plain in page 1, quads in page 0
    for (size_t w = 0; w < 4; ++w) {
      const IrType type = kWidths[w];
      const int64_t in_line = page + 128 + 16 * static_cast<int64_t>(w);
      const int64_t across_line = page + 64 * (4 + static_cast<int64_t>(w)) - 1;
      for (const int64_t off : {in_line, across_line}) {
        p.Store(type, off, value += 0x0101010101010101, quad);
        p.Load(type, off, quad);
        p.Load(type, off, quad);
      }
    }
    for (const int64_t off : {int64_t{1024}, 1024 + kPage, int64_t{1024}, int64_t{1024},
                              int64_t{2048}}) {
      p.Load(IrType::kI64, off, quad);
    }
  }
  // Across the page 0 / page 1 boundary, both committed.
  for (const bool quad : {false, true}) {
    p.Store(IrType::kI64, kPage - 3, value, quad);
    p.Load(IrType::kI32, kPage - 2, quad);
    p.Load(IrType::kI64, kPage - 5, quad);
  }
  return p.Finish();
}

TEST(IrJitTier2, AccessShapesMatchEveryEngine) {
  const IrFunction fn = BuildAccessShapes();
  const Observed ref = Observe(IrEngine::kReference, fn);
  ASSERT_FALSE(ref.trapped) << ref.message;
  EXPECT_GT(ref.counters.l1_misses, 0u);
  ExpectEnginesAgree(fn, "shapes");
}

// Every plain load, store and no-check quad has an inline template; the
// helper-only knob still routes all of them through their thunks.
TEST(IrJitTier2, AccessesCompileInline) {
  const DecodedFunction df = DecodeFunction(BuildAccessShapes());
  ASSERT_GT(df.CountUOp(UOp::kGepMaskLoad), 0u);
  ASSERT_GT(df.CountUOp(UOp::kGepMaskStore), 0u);
  ASSERT_GT(df.CountUOp(UOp::kLoad), 0u);
  ASSERT_GT(df.CountUOp(UOp::kStore), 0u);
  {
    ScopedEnv inline_templates("SGXB_IR_JIT_HELPER_ONLY", "0");
    EXPECT_EQ(jit::CompileDecodedFunction(df).helper_ops, 0u);
  }
  ScopedEnv helpers_only("SGXB_IR_JIT_HELPER_ONLY", "1");
  const jit::JitProgram helpers = jit::CompileDecodedFunction(df);
  const size_t control = df.CountUOp(UOp::kRet) + df.CountUOp(UOp::kBr);
  EXPECT_EQ(helpers.inline_ops, control);
  EXPECT_EQ(helpers.helper_ops, df.code.size() - control);
}

// Accesses into the guard page, across into it, and into a page never
// committed trap with the same kind, message and state on every engine,
// after a committed store and some pending compute.
TEST(IrJitTier2, GuardPageTrapsMatchEveryEngine) {
  struct Case {
    IrType type;
    int64_t off;
    bool store;
  };
  const Case cases[] = {
      {IrType::kI64, kGuardOff - 4, false}, {IrType::kI32, kGuardOff - 2, true},
      {IrType::kI8, kGuardOff + 8, false},  {IrType::kI16, kGuardOff + 64, true},
      {IrType::kI64, kUncommittedOff, false},
  };
  for (const bool quad : {false, true}) {
    for (const Case& c : cases) {
      AccessProgram p;
      p.Store(IrType::kI64, 256, 77, quad);
      p.Load(IrType::kI64, 256, quad);
      if (c.store) {
        p.Store(c.type, c.off, -1, quad);
      } else {
        p.Load(c.type, c.off, quad);
      }
      const IrFunction fn = p.Finish();
      const Observed ref = Observe(IrEngine::kReference, fn);
      ASSERT_TRUE(ref.trapped);
      EXPECT_EQ(ref.kind, TrapKind::kSegFault);
      ExpectEnginesAgree(fn, "trap at " + std::to_string(c.off) + (quad ? " quad" : ""));
    }
  }
}

// A load or store far past the 64 MiB space traps as a segfault on every
// engine: the inline guard and the shared body read the page's addressable
// byte in bounds, because the page tables span the whole 32-bit range.
constexpr uint32_t kPastSpace = 0xF0000000;

TEST(IrJitTier2, AccessPastTheSpaceTrapsOnEveryEngine) {
  Rig probe;
  const int64_t off = int64_t{kPastSpace} - SetUpProbe(probe);
  for (const bool quad : {false, true}) {
    for (const bool store : {false, true}) {
      AccessProgram p;
      p.Load(IrType::kI64, 256, quad);
      if (store) {
        p.Store(IrType::kI8, off, 1, quad);
      } else {
        p.Load(IrType::kI8, off, quad);
      }
      const IrFunction fn = p.Finish();
      const Observed ref = Observe(IrEngine::kReference, fn);
      const std::string label =
          std::string(store ? "store" : "load") + " past the space" + (quad ? " quad" : "");
      ASSERT_TRUE(ref.trapped) << label;
      EXPECT_EQ(ref.kind, TrapKind::kSegFault) << label;
      ExpectEnginesAgree(fn, label);
    }
  }
}

// A line stays on its set's MRU way when its page stops being addressable,
// so only the guard's addressable test sends this access to its trap.
TEST(IrJitTier2, PageGuardedAfterUseTrapsOnEveryEngine) {
  for (const bool quad : {false, true}) {
    AccessProgram p;
    p.Store(IrType::kI32, kPage + 300, 9, quad);
    const IrFunction fn = p.Finish();
    ObserveOptions opts;
    opts.guard_page1_then_rerun = true;
    const Observed ref = Observe(IrEngine::kReference, fn, opts);
    ASSERT_TRUE(ref.trapped);
    ExpectEnginesAgree(fn, quad ? "guarded quad" : "guarded", opts);
  }
}

// The step limit trips at every step of the program in turn: each of the
// three steps of a quad load and a quad store, and a plain load and store.
TEST(IrJitTier2, StepLimitOnEveryStepMatchesEveryEngine) {
  AccessProgram p;
  p.Store(IrType::kI64, 512, 5, /*quad=*/true);
  p.Load(IrType::kI64, 512, /*quad=*/true);
  p.Store(IrType::kI32, 520, 6, /*quad=*/false);
  p.Load(IrType::kI32, 520, /*quad=*/false);
  const IrFunction fn = p.Finish();
  const Observed full = Observe(IrEngine::kReference, fn);
  ASSERT_FALSE(full.trapped);
  for (uint64_t limit = 0; limit <= full.stats.steps; ++limit) {
    ObserveOptions opts;
    opts.max_steps = limit;
    const Observed ref = Observe(IrEngine::kReference, fn, opts);
    EXPECT_EQ(ref.trapped, limit < full.stats.steps) << limit;
    ExpectEnginesAgree(fn, "limit " + std::to_string(limit), opts);
  }
}

// A trace recorder or fault hooks must see every access, so either one sends
// every access through the thunk: the recorded stream and the hooked
// accesses equal the other engines'.
TEST(IrJitTier2, TraceAndFaultHooksSeeEveryAccess) {
  const IrFunction fn = BuildAccessShapes();
  ObserveOptions hooks;
  hooks.hooks = true;
  const Observed hooked = Observe(IrEngine::kReference, fn, hooks);
  EXPECT_EQ(hooked.hooked.size(), hooked.stats.loads + hooked.stats.stores);
  ExpectEnginesAgree(fn, "fault hooks", hooks);
  ObserveOptions record;
  record.record = true;
  EXPECT_FALSE(Observe(IrEngine::kReference, fn, record).trace.empty());
  ExpectEnginesAgree(fn, "trace", record);
}

// --- tier 3: inline MPX and ASan checks -----------------------------------
//
// kMpxCheck and, under ASan, kSchemeCheck are inline when the check passes
// on its fast path and run their thunk otherwise. These programs put checks
// on each side of every guard test; the engines must agree on everything,
// the runtimes' own statistics included.

ObserveOptions Under(RigScheme scheme) {
  ObserveOptions opts;
  opts.scheme = scheme;
  return opts;
}

// Passing MPX checks: valid bounds (inside, an exact fit at ub, the last
// byte) and INIT bounds (anywhere, an exact fit at 2^32).
IrFunction BuildMpxChecks() {
  AccessProgram p;
  const ValueId obj = p.Alloca(64);
  p.MpxCheck(obj, 0, 8);
  p.MpxCheck(obj, 56, 8);
  p.MpxCheck(obj, 63, 1);
  p.MpxCheck(obj, 20, 4);
  p.MpxCheck(0, 0x1000, 4);
  p.MpxCheck(0, 0xfffffff7, 8);
  p.MpxCheck(obj, 0, 64);
  return p.Finish();
}

TEST(IrJitTier3, MpxChecksMatchEveryEngine) {
  const IrFunction fn = BuildMpxChecks();
  const ObserveOptions opts = Under(RigScheme::kMpx);
  const Observed ref = Observe(IrEngine::kReference, fn, opts);
  ASSERT_FALSE(ref.trapped) << ref.message;
  EXPECT_EQ(ref.stats.checks, 7u);
  EXPECT_EQ(ref.mpx[1], 7u);  // bndcl_bndcu
  ExpectEnginesAgree(fn, "mpx", opts);
}

// Each failing check traps #BR after passing ones: the byte below lb, a
// byte past ub, and INIT bounds whose addr + size passes 2^32 (which a
// 32-bit sum would wrap to 0 and pass).
TEST(IrJitTier3, MpxViolationsTrapOnEveryEngine) {
  struct Case {
    bool init;
    int64_t off;
    int64_t size;
  };
  const Case cases[] = {{false, -1, 1}, {false, 57, 8}, {false, 64, 1},
                        {true, 0xfffffff8, 8}, {true, 0xffffffff, 1}};
  for (const Case& c : cases) {
    AccessProgram p;
    const ValueId obj = p.Alloca(64);
    p.MpxCheck(obj, 8, 8);
    p.MpxCheck(c.init ? 0 : obj, c.off, c.size);
    const IrFunction fn = p.Finish();
    const ObserveOptions opts = Under(RigScheme::kMpx);
    const Observed ref = Observe(IrEngine::kReference, fn, opts);
    const std::string label = "mpx trap at " + std::to_string(c.off);
    ASSERT_TRUE(ref.trapped) << label;
    EXPECT_EQ(ref.kind, TrapKind::kMpxBoundRange) << label;
    EXPECT_EQ(ref.mpx[6], 1u) << label;  // violations
    ExpectEnginesAgree(fn, label, opts);
  }
}

// Passing ASan checks around the probe object (kAsanObjectOff, 13 bytes,
// shadow bytes 0 and 5 with poisoned redzones either side). `way2_at` and
// `cold_at` are checks whose shadow line is on way 2 of its set and never
// touched, `first_touch_at` one whose shadow page is not yet committed.
constexpr int64_t kWay2Off = 0x208;
constexpr int64_t kColdOff = 1536;
constexpr int64_t kFirstTouchOff = 64 * 1024 + 16;
constexpr int64_t kWay1Stride = 8 * 4096;
IrFunction BuildAsanChecks() {
  AccessProgram p;
  for (const int64_t size : {1, 2, 4, 8}) {
    p.SchemeCheck(0x100, size);  // in one granule, shadow 0: inline
  }
  p.SchemeCheck(0x101, 1);
  p.SchemeCheck(0x104, 4);
  p.SchemeCheck(0x104, 8);                 // across two granules
  p.SchemeCheck(kAsanObjectOff + 4, 8);    // across into the partial granule
  p.SchemeCheck(kAsanObjectOff + 8, 4);    // the partial granule, in bounds
  p.SchemeCheck(kAsanObjectOff + 8, 5);    // its last addressable byte
  p.SchemeCheck(kAsanObjectOff, 8);        // the full granule
  p.SchemeCheck(504, 8);                   // a 2-byte shadow read across a line
  // 0x1300's shadow line, then one 4 KiB further in the shadow, on the same
  // L1 set: the first is on way 1 when checked again, and moves to way 0.
  // No later op touches either line, so the end state shows the swap.
  for (const int64_t off : {int64_t{0x1300}, 0x1300 + kWay1Stride, int64_t{0x1300}}) {
    p.SchemeCheck(off, 4);
  }
  p.SchemeCheck(0x200, 4);
  // Two more lines in every L1 set push 0x200's shadow line to way 2.
  for (int64_t line = 0; line < 2 * kPage / 64; ++line) {
    p.Load(IrType::kI8, 64 * line, /*quad=*/false);
  }
  p.SchemeCheck(kWay2Off, 4);
  p.SchemeCheck(kWay2Off + 8, 4);  // now MRU again
  p.SchemeCheck(kColdOff, 2);
  p.SchemeCheck(kFirstTouchOff, 4);
  p.SchemeCheck(kFirstTouchOff + 8, 4);
  p.SchemeCheck(16, 9);  // sizes past 8 and 0 have no inline template
  p.SchemeCheck(16, 0);
  return p.Finish();
}

TEST(IrJitTier3, AsanChecksMatchEveryEngine) {
  // The shapes the program names are there: the cold and first-touch
  // shadow lines are untouched after set-up.
  {
    Rig rig(RigScheme::kAsan);
    const uint32_t base = SetUpProbe(rig);
    const uint32_t shadow = rig.asan->shadow_base();
    EXPECT_EQ(rig.asan->ShadowByte(base + kAsanObjectOff + 8), kAsanObjectBytes - 8);
    EXPECT_FALSE(rig.enclave->pages().Committed(shadow + ((base + kFirstTouchOff) >> 3)));
    EXPECT_NE((shadow + ((base + kColdOff) >> 3)) >> kCacheLineShift,
              (shadow + ((base + kAsanObjectOff + 16) >> 3)) >> kCacheLineShift);
  }
  const IrFunction fn = BuildAsanChecks();
  const ObserveOptions opts = Under(RigScheme::kAsan);
  const Observed ref = Observe(IrEngine::kReference, fn, opts);
  ASSERT_FALSE(ref.trapped) << ref.message;
  EXPECT_EQ(ref.stats.checks, 23u);
  EXPECT_EQ(ref.asan[4], 23u);  // shadow_checks
  ExpectEnginesAgree(fn, "asan", opts);
}

// Under any other runtime a scheme check is that runtime's, even where the
// ASan guard's other tests would pass: here addr >> 3 (the shadow address
// at shadow base 0) is a probe line on L1 way 0.
TEST(IrJitTier3, SchemeCheckUnderOtherRuntimesTakesItsThunk) {
  Rig rig;
  const int64_t base = SetUpProbe(rig);
  AccessProgram p;
  p.Load(IrType::kI64, 0x100, /*quad=*/false);
  p.SchemeCheck(8 * (base + 0x100) - base, 4);
  ExpectEnginesAgree(p.Finish(), "sgxbounds");
}

// Each poisoned access traps after passing checks: the left and right
// redzones, the partial granule read past its 5 addressable bytes, and an
// access from the full granule into the partial one, whose first shadow
// byte is 0.
TEST(IrJitTier3, AsanReportsTrapOnEveryEngine) {
  struct Case {
    int64_t off;
    int64_t size;
  };
  const Case cases[] = {{kAsanObjectOff - 8, 4}, {kAsanObjectOff - 1, 1},
                        {kAsanObjectOff + 16, 1}, {kAsanObjectOff + 8, 8},
                        {kAsanObjectOff + 12, 2}, {kAsanObjectOff + 6, 8}};
  for (const Case& c : cases) {
    AccessProgram p;
    p.SchemeCheck(0x100, 8);
    p.SchemeCheck(0x100, 4);
    p.SchemeCheck(c.off, c.size);
    const IrFunction fn = p.Finish();
    const ObserveOptions opts = Under(RigScheme::kAsan);
    const Observed ref = Observe(IrEngine::kReference, fn, opts);
    const std::string label = "asan trap at " + std::to_string(c.off);
    ASSERT_TRUE(ref.trapped) << label;
    EXPECT_EQ(ref.kind, TrapKind::kAsanReport) << label;
    EXPECT_EQ(ref.asan[5], 1u) << label;  // reports
    ExpectEnginesAgree(fn, label, opts);
  }
}

// An ASan check at an address whose shadow byte lies past the 64 MiB space
// traps as a segfault on every engine, in the shadow commit.
TEST(IrJitTier3, AsanCheckPastTheSpaceTrapsOnEveryEngine) {
  Rig probe(RigScheme::kAsan);
  const int64_t off = int64_t{kPastSpace} - SetUpProbe(probe);
  AccessProgram p;
  p.SchemeCheck(0x100, 8);
  p.SchemeCheck(off, 1);
  const IrFunction fn = p.Finish();
  const ObserveOptions opts = Under(RigScheme::kAsan);
  const Observed ref = Observe(IrEngine::kReference, fn, opts);
  ASSERT_TRUE(ref.trapped);
  EXPECT_EQ(ref.kind, TrapKind::kSegFault);
  EXPECT_EQ(ref.asan[5], 0u);  // reports
  ExpectEnginesAgree(fn, "asan check past the space", opts);
}

// The step limit trips at every step, on inline checks included.
TEST(IrJitTier3, StepLimitOnEveryCheckMatchesEveryEngine) {
  AccessProgram mpx;
  const ValueId obj = mpx.Alloca(32);
  mpx.MpxCheck(obj, 0, 8);
  mpx.MpxCheck(obj, 8, 8);
  AccessProgram asan;
  asan.SchemeCheck(0x100, 8);
  asan.SchemeCheck(0x100, 4);
  const std::pair<IrFunction, RigScheme> programs[] = {{mpx.Finish(), RigScheme::kMpx},
                                                       {asan.Finish(), RigScheme::kAsan}};
  for (const auto& [fn, scheme] : programs) {
    const Observed full = Observe(IrEngine::kReference, fn, Under(scheme));
    ASSERT_FALSE(full.trapped);
    for (uint64_t limit = 0; limit <= full.stats.steps; ++limit) {
      ObserveOptions opts = Under(scheme);
      opts.max_steps = limit;
      ExpectEnginesAgree(fn, "limit " + std::to_string(limit), opts);
    }
  }
}

// A trace recorder or fault hooks send every check through its thunk too.
TEST(IrJitTier3, TraceAndFaultHooksSeeEveryCheck) {
  const IrFunction fn = BuildAsanChecks();
  ObserveOptions hooks = Under(RigScheme::kAsan);
  hooks.hooks = true;
  ExpectEnginesAgree(fn, "asan fault hooks", hooks);
  ObserveOptions record = Under(RigScheme::kAsan);
  record.record = true;
  EXPECT_FALSE(Observe(IrEngine::kReference, fn, record).trace.empty());
  ExpectEnginesAgree(fn, "asan trace", record);
  const IrFunction mpx = BuildMpxChecks();
  record.scheme = RigScheme::kMpx;
  ExpectEnginesAgree(mpx, "mpx trace", record);
}

// Both checks have inline templates; everything else in these programs
// does too, except MPX's alloca.
TEST(IrJitTier3, ChecksCompileInline) {
  const DecodedFunction mpx = DecodeFunction(BuildMpxChecks(), /*track_mpx=*/true);
  ASSERT_EQ(mpx.CountUOp(UOp::kMpxCheck), 7u);
  const DecodedFunction asan = DecodeFunction(BuildAsanChecks());
  ASSERT_EQ(asan.CountUOp(UOp::kSchemeCheck), 23u);
  ScopedEnv inline_templates("SGXB_IR_JIT_HELPER_ONLY", "0");
  EXPECT_EQ(jit::CompileDecodedFunction(mpx).helper_ops,
            mpx.CountUOp(UOp::kAllocaNativeMpx));
  // The two sizes without a template.
  EXPECT_EQ(jit::CompileDecodedFunction(asan).helper_ops, 2u);
}

#if defined(__linux__)
TEST(IrJit, InstalledCodeIsWriteXorExecute) {
  if (!jit::JitExecutableAvailable()) {
    GTEST_SKIP() << "no executable memory in this sandbox";
  }
  const IrFunction fn = BuildKernel(8, /*instrument=*/false);
  const DecodedFunction df = DecodeFunction(fn);
  jit::JitProgram jp = jit::CompileDecodedFunction(df);
  ASSERT_TRUE(jp.ok());
  const uintptr_t entry = reinterpret_cast<uintptr_t>(jp.entry);

  // The mapping holding the entry point must be r-x (never writable).
  std::ifstream maps("/proc/self/maps");
  ASSERT_TRUE(maps.is_open());
  std::string line;
  bool found = false;
  while (std::getline(maps, line)) {
    uintptr_t lo = 0, hi = 0;
    char perms[8] = {0};
    if (std::sscanf(line.c_str(), "%lx-%lx %7s", &lo, &hi, perms) != 3) {
      continue;
    }
    if (entry >= lo && entry < hi) {
      found = true;
      EXPECT_EQ(perms[0], 'r') << line;
      EXPECT_EQ(perms[1], '-') << "JIT code mapped writable: " << line;
      EXPECT_EQ(perms[2], 'x') << line;
      break;
    }
  }
  EXPECT_TRUE(found) << "JIT entry point not found in /proc/self/maps";
}
#endif  // __linux__

}  // namespace
}  // namespace sgxb
