// Microbenchmarks (google-benchmark) of the hot instrumentation primitives:
// host-side throughput of the tagged-pointer codec and the per-access check
// paths of each scheme. These are the operations executed billions of times
// by the figure reproductions; keeping them cheap keeps the simulator fast.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/asan/asan_runtime.h"
#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/mpx/mpx_runtime.h"
#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {
namespace {

void BM_TaggedCodec(benchmark::State& state) {
  uint64_t x = 0x12345;
  for (auto _ : state) {
    TaggedPtr t = MakeTagged(static_cast<uint32_t>(x), static_cast<uint32_t>(x) + 64);
    benchmark::DoNotOptimize(ExtractPtr(t));
    benchmark::DoNotOptimize(ExtractUb(t));
    t = TaggedAdd(t, 8);
    benchmark::DoNotOptimize(t);
    ++x;
  }
}
BENCHMARK(BM_TaggedCodec);

struct SimFixtures {
  SimFixtures() {
    EnclaveConfig cfg;
    cfg.space_bytes = 64 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 16 * kMiB);
    sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
    asan = std::make_unique<AsanRuntime>(enclave.get(), heap.get());
    mpx = std::make_unique<MpxRuntime>(enclave.get());
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<SgxBoundsRuntime> sgx;
  std::unique_ptr<AsanRuntime> asan;
  std::unique_ptr<MpxRuntime> mpx;
};

void BM_SgxBoundsCheckedLoad(benchmark::State& state) {
  SimFixtures f;
  Cpu& cpu = f.enclave->main_cpu();
  const TaggedPtr p = f.sgx->Malloc(cpu, 256);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sgx->Load<uint32_t>(cpu, TaggedAdd(p, (i++ * 4) % 252)));
  }
}
BENCHMARK(BM_SgxBoundsCheckedLoad);

void BM_AsanCheckedAccess(benchmark::State& state) {
  SimFixtures f;
  Cpu& cpu = f.enclave->main_cpu();
  const uint32_t p = f.asan->Malloc(cpu, 256);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.asan->CheckAccess(cpu, p + (i++ * 4) % 252, 4, false));
  }
}
BENCHMARK(BM_AsanCheckedAccess);

void BM_MpxTableWalk(benchmark::State& state) {
  SimFixtures f;
  Cpu& cpu = f.enclave->main_cpu();
  const uint32_t slot = f.heap->Alloc(cpu, 8);
  const MpxBounds b = f.mpx->BndMk(cpu, 0x1000, 64);
  f.mpx->BndStx(cpu, slot, 0x1000, b);
  for (auto _ : state) {
    f.mpx->RegInvalidate(slot);
    benchmark::DoNotOptimize(f.mpx->BndLdx(cpu, slot, 0x1000));
  }
}
BENCHMARK(BM_MpxTableWalk);

void BM_CacheSimAccess(benchmark::State& state) {
  SimFixtures f;
  Cpu& cpu = f.enclave->main_cpu();
  const uint32_t base = f.heap->Alloc(cpu, 1 * kMiB);
  uint64_t i = 0;
  for (auto _ : state) {
    cpu.MemAccess(base + (i * 64) % (1 * kMiB), 4, AccessClass::kAppLoad);
    ++i;
  }
}
BENCHMARK(BM_CacheSimAccess);

void BM_HeapAllocFree(benchmark::State& state) {
  SimFixtures f;
  Cpu& cpu = f.enclave->main_cpu();
  for (auto _ : state) {
    const uint32_t p = f.heap->Alloc(cpu, 128);
    f.heap->Free(cpu, p);
  }
}
BENCHMARK(BM_HeapAllocFree);

// The farm records one histogram Add per served request (src/farm), so the
// sketch insert is a fleet-simulation hot path alongside the check paths.
void BM_LatencyHistogramAdd(benchmark::State& state) {
  LatencyHistogram h;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.Add(x & 0xffffffu);
  }
  benchmark::DoNotOptimize(h.Digest());
}
BENCHMARK(BM_LatencyHistogramAdd);

void BM_LatencyHistogramQuantile(benchmark::State& state) {
  LatencyHistogram h;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.Add(x & 0xffffffu);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.P999());
  }
}
BENCHMARK(BM_LatencyHistogramQuantile);

// --- interpreter dispatch ---------------------------------------------------------
//
// Pure-ALU counted loop (no memory traffic): isolates per-instruction
// dispatch, the cost the threaded engine attacks. Same kernel, same
// simulated cycles - only host time differs between the two rows. Every
// Run decodes the kernel afresh; 64 Ki iterations (~0.9 M simulated
// instructions) make that decode noise in the per-Run time.

IrFunction BuildDispatchKernel() {
  IrBuilder b("dispatch");
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(65536), 1);
  ValueId x = b.Mul(loop.iv, b.Const(0x9e3779b9));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kLShr, x, b.Const(13)));
  x = b.Add(x, loop.iv);
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kShl, x, b.Const(7)));
  b.EndLoop(loop);
  b.Ret();
  return b.Finish();
}

void RunIrDispatch(benchmark::State& state, IrEngine engine) {
  SimFixtures f;
  StackAllocator stack(f.enclave.get(), 1 * kMiB, "bench-stack");
  Interpreter interp(f.enclave.get(), f.heap.get(), &stack);
  interp.set_engine(engine);
  const IrFunction fn = BuildDispatchKernel();
  Cpu& cpu = f.enclave->main_cpu();
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.Run(fn, cpu, {}, /*max_steps=*/UINT64_MAX));
  }
  state.SetItemsProcessed(static_cast<int64_t>(interp.stats().steps));
}

void BM_IrDispatchReference(benchmark::State& state) {
  RunIrDispatch(state, IrEngine::kReference);
}
BENCHMARK(BM_IrDispatchReference);

void BM_IrDispatchThreaded(benchmark::State& state) {
  RunIrDispatch(state, IrEngine::kThreaded);
}
BENCHMARK(BM_IrDispatchThreaded);

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) {
  sgxb::PrintReproHeader("micro_primitives", sgxb::MachineSpec{});
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
