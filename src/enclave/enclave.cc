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

Enclave::InlineAccess Enclave::InlineAccessFor(Cpu& cpu) {
  InlineAccess view;
  view.enabled = cpu.trace() == nullptr && faults_ == nullptr;
  view.addressable = pages_.addressable_table();
  view.host_base = space_.HostPtr(0);
  view.l1_sets = cpu.l1().slot_array();
  view.l1_set_mask = cpu.l1().set_mask();
  view.l1_ways = cpu.l1().ways();
  view.events = cpu.mutable_events();
  return view;
}

PerfCounters Enclave::TotalCounters() const {
  PerfCounters total = main_cpu_.counters();
  for (const auto& cpu : extra_cpus_) {
    total += cpu->counters();
  }
  return total;
}

}  // namespace sgxb
