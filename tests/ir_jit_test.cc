// Directed tests for the template JIT tier (src/ir/exec/jit/): the pieces
// the engine-differential fuzzer cannot reach - the PROT_EXEC fallback path
// (forced via SGXB_IR_FORCE_NOEXEC), the helper-only cross-check mode
// (SGXB_IR_JIT_HELPER_ONLY), the per-function code cache, and the W^X
// discipline of the installed code mappings.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/enclave/trap.h"
#include "src/ir/builder.h"
#include "src/ir/exec/decoder.h"
#include "src/ir/exec/jit/code_buffer.h"
#include "src/ir/exec/jit/compiler.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"

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

struct Rig {
  Rig() {
    EnclaveConfig cfg;
    cfg.space_bytes = 64 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 16 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 1 * kMiB);
    sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    interp->AttachScheme(sgx.get());
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<SgxBoundsRuntime> sgx;
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
  // The fallback ran the threaded engine: nothing was compiled or cached.
  EXPECT_EQ(rig.interp->jit_cache().size(), 0u);
  const IrExecStatsSnapshot after = SnapshotIrExecStats();
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

TEST(IrJit, CodeCacheReusesCompiledPrograms) {
  if (!jit::JitExecutableAvailable()) {
    GTEST_SKIP() << "no executable memory in this sandbox";
  }
  Rig rig;
  rig.interp->set_engine(IrEngine::kJit);
  const IrFunction fn = BuildKernel(8, /*instrument=*/false);
  const uint64_t first = rig.interp->Run(fn, rig.enclave->main_cpu());
  const uint64_t second = rig.interp->Run(fn, rig.enclave->main_cpu());
  const uint64_t third = rig.interp->Run(fn, rig.enclave->main_cpu());
  EXPECT_EQ(first, second);
  EXPECT_EQ(second, third);
  EXPECT_EQ(rig.interp->jit_cache().misses(), 1u);
  EXPECT_EQ(rig.interp->jit_cache().hits(), 2u);
  EXPECT_EQ(rig.interp->jit_cache().size(), 1u);
  EXPECT_GT(rig.interp->jit_cache().compiled_bytes(), 0u);
  // Instrumenting changes the function hash: a separate cache entry.
  const IrFunction hardened = BuildKernel(8, /*instrument=*/true);
  rig.interp->Run(hardened, rig.enclave->main_cpu());
  EXPECT_EQ(rig.interp->jit_cache().size(), 2u);
}

#if defined(__linux__)
TEST(IrJit, InstalledCodeIsWriteXorExecute) {
  if (!jit::JitExecutableAvailable()) {
    GTEST_SKIP() << "no executable memory in this sandbox";
  }
  const IrFunction fn = BuildKernel(8, /*instrument=*/false);
  const DecodedFunction df = DecodeFunction(fn, DecodeOptions{});
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
