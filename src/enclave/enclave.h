// The simulated enclave: 32-bit address space + memory-system simulation.
//
// An Enclave composes the AddressSpace (backing bytes), the PageManager
// (commit/guard/accounting) and the MemorySystem (caches + EPC + MEE). All
// guest memory accesses go through Load/Store here: they perform the real
// host-side data movement AND charge simulated cycles, so workload results
// carry both correct values and a faithful cost account. Every access path
// is inline: the typed Load<T>/Store<T> of the workload bodies and the
// runtime-size LoadBytes/StoreBytes of the IR engines both compile to one
// addressable test and one L1-MRU test before the move. The exception is
// decoded IR (the threaded engine and JIT-compiled code), which makes the
// same tests from the raw pointers of InlineAccessFor (taking L1 way 1 as
// well as the MRU way; src/ir/exec/ops.h) and calls LoadBytes/StoreBytes
// whenever one fails.
//
// Typical wiring:
//
//   EnclaveConfig cfg;                 // enclave_mode defaults to true
//   Enclave enclave(cfg);
//   Cpu& cpu = enclave.main_cpu();
//   uint32_t a = enclave.pages().ReserveLow(1 * kMiB, "heap");
//   enclave.pages().Commit(&cpu, a, 1 * kMiB);
//   enclave.Store<uint64_t>(cpu, a, 42);
//   uint64_t v = enclave.Load<uint64_t>(cpu, a);

#ifndef SGXBOUNDS_SRC_ENCLAVE_ENCLAVE_H_
#define SGXBOUNDS_SRC_ENCLAVE_ENCLAVE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/enclave/address_space.h"
#include "src/enclave/fault_hooks.h"
#include "src/enclave/page_manager.h"
#include "src/enclave/trap.h"
#include "src/sim/machine.h"

namespace sgxb {

struct EnclaveConfig {
  SimConfig sim;
  // Size of the enclave virtual address space. SGX1 hardware allows 36 bits;
  // SGXBounds assumes <= 32 bits (SS3.1). 4 GiB reserves the full tagged-
  // pointer space.
  uint64_t space_bytes = 4 * kGiB;
};

class Enclave {
 public:
  explicit Enclave(const EnclaveConfig& config = EnclaveConfig());

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  MemorySystem& memsys() { return memsys_; }
  PageManager& pages() { return pages_; }
  AddressSpace& space() { return space_; }
  Cpu& main_cpu() { return main_cpu_; }
  const EnclaveConfig& config() const { return config_; }

  // Creates an additional hardware-thread context sharing this enclave's
  // LLC/EPC. Lifetime is owned by the enclave.
  Cpu* NewCpu();

  // Attaches (or, with null, detaches) a trace recorder: the main cpu
  // registers as trace cpu 0, and every Cpu created afterwards registers
  // itself. Attach before any charged work for a complete recording.
  void AttachTrace(TraceRecorder* trace);

  // Attaches (or, with null, detaches) fault-injection hooks. Every charged
  // Load/Store reports to the hooks after it completes; the heap consults
  // them at allocator entry via faults().
  void AttachFaults(FaultHooks* faults) { faults_ = faults; }
  FaultHooks* faults() const { return faults_; }

  // --- Guest memory access (charged + checked) ---

  template <typename T>
  T Load(Cpu& cpu, uint32_t addr, AccessClass klass = AccessClass::kAppLoad) {
    CheckAddressable(addr, sizeof(T));
    cpu.MemAccess(addr, sizeof(T), klass);
    T value;
    std::memcpy(&value, space_.HostPtr(addr), sizeof(T));
    if (faults_ != nullptr) {
      faults_->OnAccess(cpu, addr, sizeof(T));
    }
    return value;
  }

  template <typename T>
  void Store(Cpu& cpu, uint32_t addr, T value, AccessClass klass = AccessClass::kAppStore) {
    CheckAddressable(addr, sizeof(T));
    cpu.MemAccess(addr, sizeof(T), klass);
    std::memcpy(space_.HostPtr(addr), &value, sizeof(T));
    if (faults_ != nullptr) {
      faults_->OnAccess(cpu, addr, sizeof(T));
    }
  }

  // Runtime-size forms, for IR loads/stores and copies. Forced inline so an
  // IR access (the reference interpreter's, and the decoded engines' bail
  // path) compiles to the same addressable + L1-MRU test as Load<T>; the
  // size is almost always 1, 2, 4 or 8 (CopyGuestBytes).
  [[gnu::always_inline]] void LoadBytes(Cpu& cpu, uint32_t addr, void* dst, uint32_t n,
                                        AccessClass klass = AccessClass::kAppLoad) {
    if (n == 0) {
      return;
    }
    CheckAddressable(addr, n);
    cpu.MemAccess(addr, n, klass);
    CopyGuestBytes(dst, space_.HostPtr(addr), n);
    if (faults_ != nullptr) {
      faults_->OnAccess(cpu, addr, n);
    }
  }
  [[gnu::always_inline]] void StoreBytes(Cpu& cpu, uint32_t addr, const void* src,
                                         uint32_t n,
                                         AccessClass klass = AccessClass::kAppStore) {
    if (n == 0) {
      return;
    }
    CheckAddressable(addr, n);
    cpu.MemAccess(addr, n, klass);
    CopyGuestBytes(space_.HostPtr(addr), src, n);
    if (faults_ != nullptr) {
      faults_->OnAccess(cpu, addr, n);
    }
  }

  // What an access needs to be made without a call: decoded IR loads and
  // stores (ops::GuestAccessSet in src/ir/exec/ops.h, and JIT tier 2, which
  // mirrors it) test the addressable table and ways 0 and 1 of `cpu`'s L1
  // set, copy through host_base, count in `cpu`'s account, and take
  // LoadBytes/StoreBytes whenever a test fails. `enabled` is false when
  // every access must take that path: `cpu` records a trace, or this
  // enclave has fault hooks.
  struct InlineAccess {
    bool enabled = false;
    const uint8_t* addressable = nullptr;  // PageManager, one byte per page
    uint8_t* host_base = nullptr;          // host address of enclave byte 0
    uint32_t* l1_sets = nullptr;           // Cache::slot_array of cpu's L1
    uint32_t l1_set_mask = 0;
    uint32_t l1_ways = 0;
    PerfCounters* events = nullptr;  // cpu's live account
  };
  InlineAccess InlineAccessFor(Cpu& cpu);

  // Direct (uncharged) views for test assertions and machine setup. Guest
  // code must never use these on a measured path.
  template <typename T>
  T Peek(uint32_t addr) const {
    T value;
    std::memcpy(&value, space_.HostPtr(addr), sizeof(T));
    return value;
  }
  template <typename T>
  void Poke(uint32_t addr, T value) {
    std::memcpy(space_.HostPtr(addr), &value, sizeof(T));
  }

  // Peak virtual memory, the metric plotted in the paper's memory figures.
  uint64_t PeakVirtualBytes() const { return pages_.peak_vm_bytes(); }

  // Aggregated counters over all Cpus created on this enclave.
  PerfCounters TotalCounters() const;

 private:
  // Fast path inline: almost every access is single-page and addressable.
  // Multi-page spans and the SIGSEGV throw stay out of line so the check
  // compiles to one load + compare at each Load/Store site.
  void CheckAddressable(uint32_t addr, uint32_t size) {
    const uint32_t first = PageOf(addr);
    const uint32_t last = size == 0 ? first : PageOf(addr + size - 1);
    if (first == last && pages_.Addressable(addr)) {
      return;
    }
    CheckAddressableSlow(first, last);
  }
  void CheckAddressableSlow(uint32_t first_page, uint32_t last_page);

  // Guest copies are almost all one scalar: every IR load and store comes
  // through LoadBytes/StoreBytes with n of 1, 2, 4 or 8. A constant-size
  // memcpy compiles to one move; only other sizes call libc.
  [[gnu::always_inline]] static void CopyGuestBytes(void* dst, const void* src, uint32_t n) {
    switch (n) {
      case 1:
        std::memcpy(dst, src, 1);
        break;
      case 2:
        std::memcpy(dst, src, 2);
        break;
      case 4:
        std::memcpy(dst, src, 4);
        break;
      case 8:
        std::memcpy(dst, src, 8);
        break;
      default:
        std::memcpy(dst, src, n);
        break;
    }
  }

  EnclaveConfig config_;
  MemorySystem memsys_;
  AddressSpace space_;
  PageManager pages_;
  Cpu main_cpu_;
  std::vector<std::unique_ptr<Cpu>> extra_cpus_;
  FaultHooks* faults_ = nullptr;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_ENCLAVE_ENCLAVE_H_
