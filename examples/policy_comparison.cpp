// Policy comparison: "compile" one program four ways and compare cost and
// protection - the experiment design behind every figure in the paper, in
// fifty lines of user code.
//
// Build & run:  ./build/examples/policy_comparison

#include <cstdio>

#include "src/common/stats.h"
#include "src/policy/registry.h"
#include "src/policy/run.h"

using namespace sgxb;

namespace {

// One program: build a linked list, then walk it (pointer-chasing, the
// access pattern that separates the four schemes most sharply).
template <typename P>
void LinkedListProgram(Env<P>& env) {
  using Ptr = typename P::Ptr;
  auto& cpu = env.cpu;
  constexpr uint32_t kNodes = 20000;
  constexpr uint32_t kNodeBytes = 32;  // [0]=next ptr slot, [8]=value

  Ptr head = env.policy.Malloc(cpu, kNodeBytes);
  env.policy.template StoreField<uint64_t>(cpu, head, 8, 0);
  Ptr tail = head;
  for (uint32_t i = 1; i < kNodes; ++i) {
    Ptr node = env.policy.Malloc(cpu, kNodeBytes);
    env.policy.template StoreField<uint64_t>(cpu, node, 8, i);
    env.policy.StorePtr(cpu, tail, node);  // tail->next = node
    tail = node;
  }
  // Walk and sum.
  uint64_t sum = 0;
  Ptr cursor = head;
  while (env.policy.AddrOf(cursor) != 0) {
    sum += env.policy.template LoadField<uint64_t>(cpu, cursor, 8);
    cursor = env.policy.LoadPtr(cpu, cursor);
    cpu.Branch();
  }
  volatile uint64_t sink = sum;
  (void)sink;
}

}  // namespace

int main() {
  std::printf("One program, four hardening schemes (simulated SGX enclave)\n\n");
  MachineSpec spec;
  spec.space_bytes = 1 * kGiB;
  spec.heap_reserve = 256 * kMiB;

  RunResult native;
  std::printf("%-11s %14s %12s %10s %12s %8s\n", "scheme", "cycles", "vs native",
              "checks", "peak mem", "BTs");
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    const RunResult r = RunPolicyKind(kind, spec, PolicyOptions{},
                                      [](auto& env) { LinkedListProgram(env); });
    if (kind == PolicyKind::kNative) {
      native = r;
    }
    std::printf("%-11s %14llu %12s %10llu %12s %8u\n", PolicyName(kind),
                (unsigned long long)r.cycles,
                FormatRatio(r.CyclesRatioOver(native)).c_str(),
                (unsigned long long)r.counters.bounds_checks,
                FormatBytes(r.peak_vm_bytes).c_str(), r.mpx_bt_count);
  }

  std::printf("\nexpected ordering (paper SS6.2 on pointer-chasing code):\n");
  std::printf("  native < SGXBounds < ASan < MPX in cycles;\n");
  std::printf("  SGXBounds ~ native in memory; ASan dominated by its 512 MB shadow.\n");
  return 0;
}
