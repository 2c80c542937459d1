#include "src/sim/machine.h"

#include "src/common/check.h"
#include "src/sim/cache_walk.h"

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

namespace {

bool Invalid(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// The Cache constructor's rules for one level (see src/sim/cache.cc).
bool ValidateCacheLevel(const char* name, uint64_t bytes, uint32_t ways, std::string* error) {
  const std::string level(name);
  if (ways == 0) {
    return Invalid(error, level + "_ways is 0");
  }
  if (ways > kMaxCacheWays) {
    return Invalid(error, level + "_ways " + std::to_string(ways) + " exceeds " +
                              std::to_string(kMaxCacheWays));
  }
  if (bytes > 4 * kGiB) {
    return Invalid(error, level + "_bytes " + std::to_string(bytes) + " exceeds 4 GiB");
  }
  const uint64_t lines = bytes / kCacheLineSize;
  if (lines % ways != 0) {
    return Invalid(error, level + "_bytes " + std::to_string(bytes) + " is not a whole number of " +
                              std::to_string(ways) + "-way sets");
  }
  const uint64_t sets = lines / ways;
  if (sets == 0 || (sets & (sets - 1)) != 0) {
    return Invalid(error, level + ": " + std::to_string(sets) +
                              " sets is not a non-zero power of two");
  }
  return true;
}

}  // namespace

bool ValidateSimConfig(const SimConfig& config, std::string* error) {
  if (!ValidateCacheLevel("l1", config.l1_bytes, config.l1_ways, error) ||
      !ValidateCacheLevel("l2", config.l2_bytes, config.l2_ways, error) ||
      !ValidateCacheLevel("l3", config.l3_bytes, config.l3_ways, error)) {
    return false;
  }
  if (config.epc_bytes < kPageSize) {
    return Invalid(error, "epc_bytes " + std::to_string(config.epc_bytes) +
                              " holds no 4 KiB page");
  }
  if (config.epc_bytes > 4 * kGiB) {
    return Invalid(error, "epc_bytes " + std::to_string(config.epc_bytes) + " exceeds 4 GiB");
  }
  return true;
}

uint64_t CpuFootprintBytes(const SimConfig& config) {
  const uint64_t slots =
      (config.l1_bytes / kCacheLineSize + 1) + (config.l2_bytes / kCacheLineSize + 1);
  return sizeof(Cpu) + slots * sizeof(uint32_t);
}

MemorySystem::MemorySystem(const SimConfig& config)
    : config_(config),
      l3_(config.l3_bytes, config.l3_ways),
      epc_(config.epc_bytes) {}

Cpu::Cpu(MemorySystem* memory)
    : memory_(memory),
      config_(&memory->config()),
      l1_(memory->config().l1_bytes, memory->config().l1_ways),
      l2_(memory->config().l2_bytes, memory->config().l2_ways) {}

const Cache& Cpu::l2() const { return l2_; }

void Cpu::TapAccess(uint32_t addr, uint32_t size, AccessClass klass) {
  trace_->OnAccess(trace_id_, addr, size, static_cast<uint8_t>(klass));
}

PerfCounters Cpu::counters() const {
  PerfCounters priced = events_;
  priced.cycles += PriceCycles(events_, *config_);
  priced.transition_cycles = TransitionCycles(events_, *config_);
  return priced;
}

void Cpu::AccessLine(uint32_t line) {
  if (l1_.AccessFront(line)) {
    return;
  }
  // Past ways 0 and 1 most lines miss L1, and an L1 miss nearly always
  // walks every level, so the L2 and LLC rows are fetched before the L1
  // walk rather than behind it. Prefetches model nothing.
  Cache& l3 = memory_->l3();
  uint32_t* const l2_row = l2_.SetBase(line);
  uint32_t* const l3_row = l3.SetBase(line);
  __builtin_prefetch(l2_row, 1);
  __builtin_prefetch(l3_row, 1);
  if (l1_.Walk(line, l1_.SetBase(line))) {
    return;
  }
  ++events_.l1_misses;
  if (l2_.Walk(line, l2_row)) {
    return;
  }
  ++events_.l2_misses;
  ++events_.llc_accesses;
  if (l3.Walk(line, l3_row)) {
    return;
  }
  memory_->LlcMiss(line, events_);
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
    if (!l1_.IsMru(first_line)) {
      AccessLine(first_line);
    }
    // ...after which first_line is its set's MRU way, so the remaining k-1
    // are exactly the MRU-hit fast path of MemAccess, batched.
    if (k > 1) {
      BumpClassCounterN(klass, k - 1);
      events_.l1_accesses += k - 1;
    }
    i += k;
    a += static_cast<int64_t>(k) * stride;
  }
}

void Cpu::MemAccessSpan(uint32_t first_line, uint32_t last_line) {
  // An access that wraps past 4 GiB would walk every line of the address
  // space. Live runs trap on the top guard page first, and the trace reader
  // rejects every wrapping access, access-run element and loop iteration;
  // this is a last-resort backstop.
  CHECK(first_line <= last_line);
  for (uint32_t line = first_line;; ++line) {
    ++events_.l1_accesses;
    if (!l1_.IsMru(line)) {
      AccessLine(line);
    }
    if (line == last_line) {
      break;
    }
  }
}

}  // namespace sgxb
