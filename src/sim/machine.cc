#include "src/sim/machine.h"

#include "src/common/check.h"

namespace sgxb {

uint64_t PriceCycles(const PerfCounters& e, const SimConfig& config) {
  const CostModel& c = config.costs;
  uint64_t cycles = e.alu_ops * c.alu + e.branches * c.branch + e.fp_ops * c.fp +
                    e.calls * c.call +
                    e.syscalls * (config.enclave_mode ? c.syscall_exit : c.syscall_native) +
                    (e.l1_accesses - e.l1_misses) * c.l1_hit +
                    (e.l1_misses - e.l2_misses) * c.l2_hit +
                    (e.llc_accesses - e.llc_misses) * c.l3_hit + e.llc_misses * c.dram +
                    e.minor_faults * c.minor_fault;
  if (config.enclave_mode) {
    cycles += e.llc_misses * c.mee_line + e.epc_faults * c.epc_fault +
              TransitionCycles(e, config);
  }
  return cycles;
}

uint64_t TransitionCycles(const PerfCounters& e, const SimConfig& config) {
  if (!config.enclave_mode) {
    return 0;
  }
  return e.ecalls * config.costs.ecall + e.ocalls * config.costs.OcallCost();
}

MemorySystem::MemorySystem(const SimConfig& config)
    : config_(config),
      l3_(config.l3_bytes, config.l3_ways),
      epc_(config.epc_bytes) {}

void MemorySystem::FlushCaches() { l3_.Flush(); }

Cpu::Cpu(MemorySystem* memory)
    : memory_(memory),
      config_(&memory->config()),
      l1_(memory->config().l1_bytes, memory->config().l1_ways),
      l2_(memory->config().l2_bytes, memory->config().l2_ways) {}

PerfCounters Cpu::counters() const {
  PerfCounters priced = events_;
  priced.cycles += PriceCycles(events_, *config_);
  priced.transition_cycles = TransitionCycles(events_, *config_);
  return priced;
}

void Cpu::MissLine(uint32_t line) {
  ++events_.l1_misses;
  if (!l2_.Access(line)) {
    ++events_.l2_misses;
    memory_->ServiceL2Miss(line, events_);
  }
}

void Cpu::MemAccessRun(uint32_t addr, uint32_t size, int64_t stride, uint64_t count,
                       AccessClass klass) {
  if (size == 0 || trace_ != nullptr) {
    // Zero-size accesses need MemAccess's early-out, and re-recording a
    // replay must drive the per-access tap. Both are cold paths.
    int64_t a = addr;
    for (uint64_t i = 0; i < count; ++i, a += stride) {
      MemAccess(static_cast<uint32_t>(a), size, klass);
    }
    return;
  }
  int64_t a = addr;
  uint64_t i = 0;
  while (i < count) {
    const uint32_t cur = static_cast<uint32_t>(a);
    const uint32_t first_line = LineOf(cur);
    if (LineOf(cur + size - 1) != first_line) {
      BumpClassCounter(klass);
      MemAccessSpan(first_line, LineOf(cur + size - 1));
      ++i;
      a += stride;
      continue;
    }
    // Extend over the consecutive accesses that stay fully inside this line.
    uint64_t k = 1;
    for (int64_t next = a + stride; i + k < count; next += stride) {
      const uint32_t naddr = static_cast<uint32_t>(next);
      if (LineOf(naddr) != first_line || LineOf(naddr + size - 1) != first_line) {
        break;
      }
      ++k;
    }
    // First access of the group takes the real single-line path...
    BumpClassCounter(klass);
    ++events_.l1_accesses;
    if (first_line == last_l1_line_) {
      l1_.CountMruHit();
    } else {
      AccessLine(first_line);
    }
    // ...after which last_l1_line_ == first_line, so the remaining k-1 are
    // exactly the MRU-hit fast path of MemAccess, batched.
    if (k > 1) {
      BumpClassCounterN(klass, k - 1);
      events_.l1_accesses += k - 1;
      l1_.CountMruHits(k - 1);
    }
    i += k;
    a += static_cast<int64_t>(k) * stride;
  }
}

void Cpu::MemAccessSpan(uint32_t first_line, uint32_t last_line) {
  // An access that wraps past 4 GiB would walk every line of the address
  // space. Live runs trap on the top guard page first and the trace reader
  // rejects wrapping accesses and loop phases; this is the backstop for the
  // elements of a corrupt access run.
  CHECK(first_line <= last_line);
  for (uint32_t line = first_line;; ++line) {
    ++events_.l1_accesses;
    if (line == last_l1_line_) {
      l1_.CountMruHit();
    } else {
      AccessLine(line);
    }
    if (line == last_line) {
      break;
    }
  }
}

}  // namespace sgxb
