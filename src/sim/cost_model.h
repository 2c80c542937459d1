// Cycle cost table for the simulated machine.
//
// The evaluation in the SGXBounds paper is driven entirely by memory-system
// effects: cache locality of bounds metadata, EPC paging, and the MEE
// encryption overhead of Intel SGX (paper Fig. 2). This cost model assigns a
// cycle price to each event class; the simulator charges these prices while
// executing real workloads over a simulated 32-bit enclave address space.
//
// Absolute numbers are calibrated to commodity Skylake-class latencies; the
// reproduction targets relative shape (ratios between hardened and native
// runs), which is insensitive to modest changes in these constants.

#ifndef SGXBOUNDS_SRC_SIM_COST_MODEL_H_
#define SGXBOUNDS_SRC_SIM_COST_MODEL_H_

#include <cstdint>

namespace sgxb {

struct CostModel {
  // Scalar compute.
  uint32_t alu = 1;        // integer/logic op
  uint32_t branch = 1;     // taken/untaken branch
  uint32_t fp = 2;         // floating-point op
  uint32_t call = 4;       // function-call overhead (libc wrapper, hook)

  // Memory hierarchy hit latencies (per cache-line access).
  uint32_t l1_hit = 4;
  uint32_t l2_hit = 12;
  uint32_t l3_hit = 40;
  uint32_t dram = 150;

  // Intel SGX specifics.
  // Extra cost on an LLC miss served from EPC: the Memory Encryption Engine
  // decrypts the line and verifies integrity (paper SS2.1: "5.5-10x slower"
  // than an L3 hit for a random read).
  uint32_t mee_line = 180;
  // EPC page fault: evict an LRU page (re-encrypt) and load + decrypt the
  // requested one. Paper SS2.1: paging costs 2x for sequential accesses and up
  // to 2000x for random ones; at 64 lines/page this constant lands in that
  // envelope (sequential sweep ~2.5x DRAM cost, random thrash ~200x+).
  uint32_t epc_fault = 30000;
  // Regular (non-enclave) soft page fault for first-touch commits.
  uint32_t minor_fault = 2500;

  // Syscall boundary crossing under shielded execution (SCONE-style
  // asynchronous syscalls; copies are charged separately as memory traffic).
  uint32_t syscall_exit = 3000;
  uint32_t syscall_native = 800;

  // Enclave transition costs (EENTER/EEXIT world switches, after Open
  // Enclave's calls.c/hostcalls.c split). All-zero by default: the axis is
  // off and every existing trace, counter and cost-table id is unchanged.
  // When enabled (EnableTransitions), an ECALL charges `ecall` cycles and
  // every enclave-mode syscall additionally pays an OCALL: `ocall` cycles in
  // synchronous mode, or `switchless_ocall` when `switchless` is set (the
  // request is handed to a spinning host worker without leaving the enclave).
  uint32_t ecall = 0;
  uint32_t ocall = 0;
  uint32_t switchless_ocall = 0;
  uint32_t switchless = 0;  // 0 = synchronous OCALLs, 1 = switchless

  bool TransitionsEnabled() const {
    return (ecall | ocall | switchless_ocall) != 0;
  }
  uint64_t OcallCost() const { return switchless != 0 ? switchless_ocall : ocall; }

  // Turns the transition axis on with calibrated defaults: ~7600 cycles per
  // ECALL and ~8400 per synchronous OCALL (SDK-measured EENTER/EEXIT round
  // trips incl. register scrubbing and stack switch), ~620 cycles for a
  // switchless OCALL (HotCalls-style shared-memory handoff).
  CostModel& EnableTransitions(bool use_switchless = false) {
    ecall = 7600;
    ocall = 8400;
    switchless_ocall = 620;
    switchless = use_switchless ? 1 : 0;
    return *this;
  }
};

// Field-wise equality, used by the sweep engine's duplicate fold
// (src/trace/sweep.h). Keep in sync with the field list above.
inline bool operator==(const CostModel& a, const CostModel& b) {
  return a.alu == b.alu && a.branch == b.branch && a.fp == b.fp && a.call == b.call &&
         a.l1_hit == b.l1_hit && a.l2_hit == b.l2_hit && a.l3_hit == b.l3_hit &&
         a.dram == b.dram && a.mee_line == b.mee_line && a.epc_fault == b.epc_fault &&
         a.minor_fault == b.minor_fault && a.syscall_exit == b.syscall_exit &&
         a.syscall_native == b.syscall_native && a.ecall == b.ecall && a.ocall == b.ocall &&
         a.switchless_ocall == b.switchless_ocall && a.switchless == b.switchless;
}
inline bool operator!=(const CostModel& a, const CostModel& b) { return !(a == b); }

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_COST_MODEL_H_
