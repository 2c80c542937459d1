// AddressSanitizer-style runtime (paper SS2.2, SS5.2), rebuilt inside the
// simulated enclave as the software baseline.
//
// Faithful mechanisms:
//   * shadow memory at 1/8 scale over the whole 32-bit enclave space: a
//     512 MiB region reserved at startup (the paper forces ASan's 32-bit
//     mode for SGX, which carves exactly 512 MiB);
//   * size-scaled redzones around every object, poisoned in shadow;
//   * a byte-granular shadow encoding (0 = addressable, 1..7 = partially
//     addressable, >=0x80 = poisoned) checked before every access;
//   * a FIFO quarantine that delays reuse of freed blocks (the reason
//     swaptions blows up to 413 MB in the paper).
//
// Every shadow read/write is charged as metadata traffic into the simulated
// cache/EPC hierarchy - that traffic, landing far from the data it shadows,
// is what breaks cache locality and causes ASan's EPC thrashing in Figs. 8
// and 11.

#ifndef SGXBOUNDS_SRC_ASAN_ASAN_RUNTIME_H_
#define SGXBOUNDS_SRC_ASAN_ASAN_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/ir/scheme_rt.h"
#include "src/runtime/heap.h"

namespace sgxb {

struct AsanConfig {
  // Shadow scale: 1 shadow byte covers 2^scale app bytes (ASan default 3).
  uint32_t shadow_scale = 3;
  // Quarantine capacity; freed blocks are only recycled after eviction.
  // (Real ASan defaults to 256 MiB; inside a 94 MiB-EPC enclave the paper's
  // blow-ups appear long before that.)
  uint64_t quarantine_bytes = 64 * kMiB;
  // Left redzone minimum; right redzone computed per allocation size.
  uint32_t min_redzone = 16;
};

struct AsanStats {
  uint64_t mallocs = 0;
  uint64_t frees = 0;
  uint64_t quarantine_bytes_held = 0;
  uint64_t quarantine_evictions = 0;
  uint64_t shadow_checks = 0;
  uint64_t reports = 0;
};

class AsanRuntime final : public IrSchemeRuntime {
 public:
  static constexpr uint8_t kShadowAddressable = 0x00;
  static constexpr uint8_t kShadowHeapRedzone = 0xfa;
  static constexpr uint8_t kShadowFreed = 0xfd;
  static constexpr uint8_t kShadowGlobalRedzone = 0xf9;
  static constexpr uint8_t kShadowStackRedzone = 0xf1;

  AsanRuntime(Enclave* enclave, Heap* heap, const AsanConfig& config = AsanConfig());

  // --- allocator interceptors -------------------------------------------------

  // Returns the user address (redzones hidden on both sides).
  uint32_t Malloc(Cpu& cpu, uint32_t size);
  void Free(Cpu& cpu, uint32_t addr);

  // Registers a non-heap object (global or stack) with surrounding redzones.
  // The caller provides storage that already includes the redzones:
  // [base, base+left_rz) and [base+left_rz+size, ...) get poisoned.
  void RegisterObject(Cpu& cpu, uint32_t user_addr, uint32_t size, uint8_t redzone_magic);

  // --- the instrumented check --------------------------------------------------

  // Shadow lookup before an access; throws SimTrap(kAsanReport) on poisoned
  // shadow. `fatal=false` turns the report into a return value (used by the
  // RIPE harness to count detections without unwinding). Forced inline so
  // the common shape — a word access inside one fully-addressable granule —
  // resolves without a call (GCC otherwise outlines it as an .isra clone);
  // anything else drops to the granule-walk slow path.
  [[gnu::always_inline]] bool CheckAccess(Cpu& cpu, uint32_t addr, uint32_t size,
                                          bool is_write, bool fatal = true) {
    (void)is_write;
    ++stats_.shadow_checks;
    cpu.CountBoundsCheck();
    // The instrumentation sequence: shadow = *(base + (addr >> 3)); test the
    // granule byte; branch to the slow path for partial granules; branch on
    // the verdict (ASan emits two conditional branches per check).
    cpu.Alu(3);
    const uint32_t saddr = ShadowAddr(addr);
    enclave_->pages().Commit(&cpu, saddr, (size >> config_.shadow_scale) + 1);
    cpu.MemAccess(saddr, (size >> config_.shadow_scale) + 1, AccessClass::kMetadataLoad);
    cpu.Branch(2);
    const uint32_t granule_mask = (1u << config_.shadow_scale) - 1;
    const uint8_t* shadow_ptr = enclave_->space().HostPtr(saddr);
    if (*shadow_ptr == kShadowAddressable && ((addr ^ (addr + size - 1)) & ~granule_mask) == 0) {
      return true;
    }
    return CheckAccessSlow(cpu, addr, size, fatal, shadow_ptr);
  }

  // --- IrSchemeRuntime (the IR lowering: interposed allocation + checks) ---

  // Stack objects get the same size-scaled redzones as heap objects.
  uint64_t IrAlloca(Cpu& cpu, StackAllocator& stack, uint32_t bytes) override {
    const uint32_t rz = RedzoneFor(bytes);
    const uint32_t base = stack.Alloca(cpu, bytes + 2 * rz, 16);
    RegisterObject(cpu, base + rz, bytes, kShadowStackRedzone);
    return base + rz;
  }

  uint64_t IrMalloc(Cpu& cpu, uint32_t bytes) override { return Malloc(cpu, bytes); }

  void IrFree(Cpu& cpu, uint64_t ptr) override { Free(cpu, static_cast<uint32_t>(ptr)); }

  void IrCheck(Cpu& cpu, uint64_t ptr, uint32_t bytes, AccessType type) override {
    CheckAccess(cpu, static_cast<uint32_t>(ptr), bytes, type == AccessType::kWrite);
  }

  // ASan's lowering checks every access in place; it never hoists a range.
  void IrCheckRange(Cpu&, uint64_t, uint64_t) override {
    FATAL("asan: the IR lowering emits no range checks");
  }

  // --- shadow primitives (used by interceptors and tests) ---------------------

  void PoisonRegion(Cpu& cpu, uint32_t addr, uint32_t size, uint8_t magic);
  void UnpoisonRegion(Cpu& cpu, uint32_t addr, uint32_t size);
  uint8_t ShadowByte(uint32_t addr) const;

  // Redzone sizing, exposed for tests: grows with allocation size, clamped
  // to [min_redzone, 2048].
  uint32_t RedzoneFor(uint32_t size) const;

  uint32_t shadow_base() const { return shadow_base_; }
  const AsanStats& stats() const { return stats_; }

  // For generated code that makes CheckAccess's fast path itself (JIT tier 3,
  // src/ir/exec/jit/compiler.cc) over `enclave`'s pages, L1 and bytes: the
  // counter behind stats().shadow_checks, or null unless `enclave` is this
  // runtime's own and a shadow byte covers 8 bytes, the only scale that code
  // handles. Out of line, like every accessor only the JIT needs.
  uint64_t* InlineCheckCounter(const Enclave* enclave);

  // Fault campaigns (src/fault): flips one RNG-chosen bit of the shadow byte
  // covering an RNG-chosen address in the allocated heap span (charged
  // metadata load + store). A flip can fabricate a poison value (false
  // report) or clear one (missed report). Returns false on an empty heap.
  bool CorruptShadow(Cpu& cpu, Rng& rng) {
    const uint64_t span = heap_->used_bytes();
    if (span == 0) {
      return false;
    }
    const uint32_t addr = heap_->base() + static_cast<uint32_t>(rng.NextBounded(span));
    const uint32_t saddr = ShadowAddr(addr);
    enclave_->pages().Commit(&cpu, saddr, 1);
    const uint8_t byte = enclave_->Load<uint8_t>(cpu, saddr, AccessClass::kMetadataLoad);
    const uint8_t flipped = byte ^ static_cast<uint8_t>(1u << rng.NextBounded(8));
    enclave_->Store<uint8_t>(cpu, saddr, flipped, AccessClass::kMetadataStore);
    return true;
  }

 private:
  uint32_t ShadowAddr(uint32_t addr) const { return shadow_base_ + (addr >> config_.shadow_scale); }
  // Granule-by-granule poison walk for partial granules and poisoned shadow;
  // `shadow_ptr` is the host byte for the access's first granule.
  bool CheckAccessSlow(Cpu& cpu, uint32_t addr, uint32_t size, bool fatal,
                       const uint8_t* shadow_ptr);
  void WriteShadow(Cpu& cpu, uint32_t addr, uint32_t size, uint8_t value);
  void MaybeEvictQuarantine(Cpu& cpu);

  struct QuarantinedBlock {
    uint32_t base;   // block base including redzones
    uint32_t user;   // user address
    uint32_t bytes;  // full block size
  };

  Enclave* enclave_;
  Heap* heap_;
  AsanConfig config_;
  uint32_t shadow_base_;
  AsanStats stats_;
  std::deque<QuarantinedBlock> quarantine_;
  // user addr -> (block base, user size); host-side allocator metadata,
  // exact-key lookups only.
  std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>> live_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_ASAN_ASAN_RUNTIME_H_
