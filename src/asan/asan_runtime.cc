#include "src/asan/asan_runtime.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace sgxb {

AsanRuntime::AsanRuntime(Enclave* enclave, Heap* heap, const AsanConfig& config)
    : enclave_(enclave), heap_(heap), config_(config) {
  // 32-bit mode: shadow covers the whole space at 1/8 scale = 512 MiB for a
  // 4 GiB space, reserved up-front (counts fully toward virtual memory, as
  // the paper's Fig. 7 memory panel shows). Shadow pages commit on demand.
  const uint64_t shadow_bytes = enclave_->pages().space_bytes() >> config_.shadow_scale;
  shadow_base_ = enclave_->pages().ReserveHigh(shadow_bytes, "asan-shadow", VmAccounting::kFull);
}

uint64_t* AsanRuntime::InlineCheckCounter(const Enclave* enclave) {
  return enclave == enclave_ && config_.shadow_scale == 3 ? &stats_.shadow_checks : nullptr;
}

uint32_t AsanRuntime::RedzoneFor(uint32_t size) const {
  uint32_t rz = config_.min_redzone;
  if (size >= 128) {
    rz = 32;
  }
  if (size >= 512) {
    rz = 64;
  }
  if (size >= 4096) {
    rz = 128;
  }
  if (size >= 64 * 1024) {
    rz = 256;
  }
  if (size >= 512 * 1024) {
    rz = 1024;
  }
  if (size >= 4 * 1024 * 1024) {
    rz = 2048;
  }
  return rz;
}

void AsanRuntime::WriteShadow(Cpu& cpu, uint32_t addr, uint32_t size, uint8_t value) {
  if (size == 0) {
    return;
  }
  const uint32_t granule = 1u << config_.shadow_scale;
  const uint32_t first = ShadowAddr(addr);
  const uint32_t last = ShadowAddr(addr + size - 1);
  const uint32_t bytes = last - first + 1;
  enclave_->pages().Commit(&cpu, first, bytes);
  // One metadata store covering the shadow range (line-granular charge).
  cpu.MemAccess(first, bytes, AccessClass::kMetadataStore);
  std::memset(enclave_->space().HostPtr(first), value, bytes);
  // Partially-addressable last granule when unpoisoning an unaligned tail.
  if (value == kShadowAddressable) {
    const uint32_t tail = (addr + size) & (granule - 1);
    if (tail != 0) {
      *enclave_->space().HostPtr(last) = static_cast<uint8_t>(tail);
    }
  }
}

void AsanRuntime::IrCheckRange(Cpu&, uint64_t, uint64_t) {
  FATAL("asan: the IR lowering emits no range checks");
}

void AsanRuntime::PoisonRegion(Cpu& cpu, uint32_t addr, uint32_t size, uint8_t magic) {
  WriteShadow(cpu, addr, size, magic);
}

void AsanRuntime::UnpoisonRegion(Cpu& cpu, uint32_t addr, uint32_t size) {
  WriteShadow(cpu, addr, size, kShadowAddressable);
}

uint8_t AsanRuntime::ShadowByte(uint32_t addr) const {
  return *enclave_->space().HostPtr(ShadowAddr(addr));
}

uint32_t AsanRuntime::Malloc(Cpu& cpu, uint32_t size) {
  const uint32_t rz = RedzoneFor(size);
  // Layout: [left rz][user][right rz]; granule-align the user size so shadow
  // poisoning is exact.
  const uint32_t granule = 1u << config_.shadow_scale;
  const uint32_t user_span = AlignUp(size, granule);
  const uint32_t total = rz + user_span + rz;
  const uint32_t base = heap_->Alloc(cpu, total, granule * 2);
  const uint32_t user = base + rz;
  PoisonRegion(cpu, base, rz, kShadowHeapRedzone);
  UnpoisonRegion(cpu, user, size);
  if (user_span > size) {
    PoisonRegion(cpu, user + user_span, 0, kShadowHeapRedzone);  // no-op guard
  }
  PoisonRegion(cpu, user + user_span, total - rz - user_span, kShadowHeapRedzone);
  live_[user] = {base, size};
  ++stats_.mallocs;
  return user;
}

void AsanRuntime::Free(Cpu& cpu, uint32_t addr) {
  auto it = live_.find(addr);
  if (it == live_.end()) {
    // Double free / invalid free: ASan reports it.
    ++stats_.reports;
    throw SimTrap(TrapKind::kAsanReport, addr, "invalid or double free");
  }
  const uint32_t base = it->second.first;
  const uint32_t size = it->second.second;
  live_.erase(it);
  ++stats_.frees;
  // Poison the whole block and park it in quarantine: memory is NOT reused
  // until eviction, which is what defeats allocator locality in the paper.
  PoisonRegion(cpu, addr, size, kShadowFreed);
  const uint32_t block_bytes = heap_->BlockSize(base);
  quarantine_.push_back({base, addr, block_bytes});
  stats_.quarantine_bytes_held += block_bytes;
  MaybeEvictQuarantine(cpu);
}

void AsanRuntime::MaybeEvictQuarantine(Cpu& cpu) {
  while (stats_.quarantine_bytes_held > config_.quarantine_bytes && !quarantine_.empty()) {
    const QuarantinedBlock block = quarantine_.front();
    quarantine_.pop_front();
    stats_.quarantine_bytes_held -= block.bytes;
    heap_->Free(cpu, block.base);
    ++stats_.quarantine_evictions;
  }
}

void AsanRuntime::RegisterObject(Cpu& cpu, uint32_t user_addr, uint32_t size,
                                 uint8_t redzone_magic) {
  const uint32_t rz = RedzoneFor(size);
  PoisonRegion(cpu, user_addr - rz, rz, redzone_magic);
  UnpoisonRegion(cpu, user_addr, size);
  PoisonRegion(cpu, user_addr + AlignUp(size, 1u << config_.shadow_scale), rz, redzone_magic);
}

bool AsanRuntime::CheckAccessSlow(Cpu& cpu, uint32_t addr, uint32_t size, bool fatal,
                                  const uint8_t* shadow_ptr) {
  const uint32_t granule = 1u << config_.shadow_scale;
  bool bad = false;
  // Check first and last granule precisely, interior granules for poison.
  // Shadow bytes for consecutive granules are host-contiguous, so walk the
  // host pointer directly instead of recomputing ShadowAddr per granule.
  for (uint32_t a = addr & ~(granule - 1); a < addr + size; a += granule, ++shadow_ptr) {
    const uint8_t shadow = *shadow_ptr;
    if (shadow == kShadowAddressable) {
      continue;
    }
    if (shadow < 8) {
      // Partially addressable granule: bytes [0, shadow) are valid.
      const uint32_t begin = std::max(a, addr);
      const uint32_t end = std::min(a + granule, addr + size);
      if (end - a > shadow || begin - a >= shadow) {
        bad = true;
        break;
      }
      continue;
    }
    bad = true;
    break;
  }
  if (!bad) {
    return true;
  }
  ++stats_.reports;
  cpu.CountBoundsViolation();
  if (fatal) {
    throw SimTrap(TrapKind::kAsanReport, addr, "poisoned shadow (redzone or freed object)");
  }
  return false;
}

}  // namespace sgxb
