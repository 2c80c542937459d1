#include "src/enclave/enclave.h"

namespace sgxb {

Enclave::Enclave(const EnclaveConfig& config)
    : config_(config),
      memsys_(config.sim),
      space_(config.space_bytes),
      pages_(config.space_bytes, &memsys_),
      main_cpu_(&memsys_) {
  pages_.AttachZeroHook(space_.HostPtr(0));
}

void Enclave::CheckAddressableSlow(uint32_t first_page, uint32_t last_page) {
  for (uint32_t page = first_page;; ++page) {
    if (!pages_.Addressable(page << kPageShift)) {
      throw SimTrap(TrapKind::kSegFault, page << kPageShift,
                    "access to unmapped or guard page");
    }
    if (page == last_page) {
      break;
    }
  }
}

Cpu* Enclave::NewCpu() {
  extra_cpus_.push_back(std::make_unique<Cpu>(&memsys_));
  Cpu* cpu = extra_cpus_.back().get();
  if (TraceRecorder* trace = memsys_.trace()) {
    cpu->AttachTrace(trace, trace->RegisterCpu(&cpu->events()));
  }
  return cpu;
}

void Enclave::AttachTrace(TraceRecorder* trace) {
  memsys_.set_trace(trace);
  if (trace != nullptr) {
    main_cpu_.AttachTrace(trace, trace->RegisterCpu(&main_cpu_.events()));
    for (auto& cpu : extra_cpus_) {
      cpu->AttachTrace(trace, trace->RegisterCpu(&cpu->events()));
    }
  } else {
    main_cpu_.AttachTrace(nullptr, 0);
    for (auto& cpu : extra_cpus_) {
      cpu->AttachTrace(nullptr, 0);
    }
  }
}

void Enclave::LoadBytes(Cpu& cpu, uint32_t addr, void* dst, uint32_t n, AccessClass klass) {
  if (n == 0) {
    return;
  }
  CheckAddressable(addr, n);
  cpu.MemAccess(addr, n, klass);
  std::memcpy(dst, space_.HostPtr(addr), n);
  if (faults_ != nullptr) {
    faults_->OnAccess(cpu, addr, n);
  }
}

void Enclave::StoreBytes(Cpu& cpu, uint32_t addr, const void* src, uint32_t n,
                         AccessClass klass) {
  if (n == 0) {
    return;
  }
  CheckAddressable(addr, n);
  cpu.MemAccess(addr, n, klass);
  std::memcpy(space_.HostPtr(addr), src, n);
  if (faults_ != nullptr) {
    faults_->OnAccess(cpu, addr, n);
  }
}

PerfCounters Enclave::TotalCounters() const {
  PerfCounters total = main_cpu_.counters();
  for (const auto& cpu : extra_cpus_) {
    total += cpu->counters();
  }
  return total;
}

}  // namespace sgxb
