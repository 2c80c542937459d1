#include "src/sgxbounds/bounds_runtime.h"

#include <cstring>

#include "src/common/check.h"

namespace sgxb {

SgxBoundsRuntime::SgxBoundsRuntime(Enclave* enclave, Heap* heap, OobPolicy policy,
                                   MetadataRegistry* registry)
    : enclave_(enclave),
      heap_(heap),
      policy_(policy),
      registry_(registry != nullptr ? registry : &default_registry_),
      boundless_(enclave, heap) {}

uint32_t SgxBoundsRuntime::FooterBytes() const { return registry_->FooterBytes(); }

TaggedPtr SgxBoundsRuntime::Malloc(Cpu& cpu, uint32_t size) {
  // void* p = malloc_real(size + footer); return specify_bounds(p, p + size);
  const uint32_t base = heap_->Alloc(cpu, size + FooterBytes());
  return SpecifyBounds(cpu, base, base + size, ObjKind::kHeap);
}

TaggedPtr SgxBoundsRuntime::MallocAligned(Cpu& cpu, uint32_t size, uint32_t align) {
  const uint32_t base = heap_->Alloc(cpu, size + FooterBytes(), align);
  return SpecifyBounds(cpu, base, base + size, ObjKind::kHeap);
}

TaggedPtr SgxBoundsRuntime::Calloc(Cpu& cpu, uint32_t count, uint32_t elem_size) {
  const uint32_t total = CallocBytes(count, elem_size);
  const TaggedPtr tagged = Malloc(cpu, total);
  // Zeroing cost: the heap recycles blocks, so calloc pays a full clear.
  const uint32_t base = ExtractPtr(tagged);
  std::memset(enclave_->space().HostPtr(base), 0, total);
  cpu.MemAccess(base, total, AccessClass::kAppStore);
  return tagged;
}

void SgxBoundsRuntime::Free(Cpu& cpu, TaggedPtr tagged) {
  const uint32_t ub = ExtractUb(tagged);
  CHECK_NE(ub, 0u);
  const uint32_t base = LoadLb(cpu, ub);
  // free(LB) hands the footer-recovered base straight to the allocator; if a
  // bit flip or wild write corrupted the footer, the base no longer names a
  // live block and the allocator's header validation (already charged inside
  // Heap::Free) turns it into a detected trap rather than silent reuse.
  if (base > ub || !heap_->IsBlockStart(base)) {
    ++stats_.violations;
    cpu.CountBoundsViolation();
    throw SimTrap(TrapKind::kSgxBoundsViolation, ub, "corrupted LB footer on free");
  }
  registry_->FireDelete(cpu, ub);
  if (track_objects_) {
    auto it = live_ub_index_.find(ub);
    if (it != live_ub_index_.end()) {
      const size_t pos = it->second;
      const uint32_t last = live_ubs_.back();
      live_ubs_[pos] = last;
      live_ub_index_[last] = pos;
      live_ubs_.pop_back();
      live_ub_index_.erase(it);
    }
  }
  heap_->Free(cpu, base);
  ++stats_.objects_freed;
}

TaggedPtr SgxBoundsRuntime::SpecifyBounds(Cpu& cpu, uint32_t p, uint32_t ub, ObjKind kind) {
  // *UB = p (the lower bound); extra slots start zeroed.
  enclave_->Store<uint32_t>(cpu, ub, p, AccessClass::kMetadataStore);
  for (uint32_t i = 0; i < registry_->extra_slots(); ++i) {
    enclave_->Store<uint32_t>(cpu, registry_->SlotAddr(ub, i), 0, AccessClass::kMetadataStore);
  }
  cpu.Alu(2);  // tagged = (UB << 32) | p
  ++stats_.objects_created;
  registry_->FireCreate(cpu, p, ub - p, kind);
  if (track_objects_ && live_ub_index_.emplace(ub, live_ubs_.size()).second) {
    live_ubs_.push_back(ub);
  }
  return MakeTagged(p, ub);
}

ResolvedAccess SgxBoundsRuntime::HandleViolation(Cpu& cpu, uint32_t p, uint32_t size,
                                                 AccessType type) {
  ++stats_.violations;
  cpu.CountBoundsViolation();
  if (policy_ == OobPolicy::kFailFast) {
    throw SimTrap(TrapKind::kSgxBoundsViolation, p, "out-of-bounds access");
  }
  // Boundless memory (SS4.2).
  ResolvedAccess r;
  r.redirected = true;
  if (type == AccessType::kRead) {
    uint32_t overlay = 0;
    if (boundless_.RedirectLoad(cpu, p, &overlay)) {
      r.addr = overlay;
    } else {
      r.zero_fill = true;
    }
  } else {
    r.addr = boundless_.RedirectStore(cpu, p);
  }
  (void)size;
  return r;
}

TaggedPtr SgxBoundsRuntime::NarrowBounds(Cpu& cpu, TaggedPtr tagged, uint32_t field_off,
                                         uint32_t field_size) {
  const uint32_t p = ExtractPtr(tagged);
  const uint32_t field_base = p + field_off;
  const uint32_t field_ub = field_base + field_size;
  cpu.Alu(3);  // lea field base, lea field end, repack
  // The narrowed field must itself be inside the object.
  if (ExtractUb(tagged) != 0) {
    const uint32_t lb = LoadLb(cpu, ExtractUb(tagged));
    cpu.Alu(2);
    cpu.Branch();
    if (BoundsViolated(field_base, lb, ExtractUb(tagged), field_size)) {
      ++stats_.violations;
      cpu.CountBoundsViolation();
      throw SimTrap(TrapKind::kSgxBoundsViolation, field_base,
                    "narrowed field escapes its object");
    }
  }
  narrowed_ubs_.insert(field_ub);
  return MakeTagged(field_base, field_ub);
}

void SgxBoundsRuntime::CheckRange(Cpu& cpu, TaggedPtr tagged, uint64_t extent_bytes) {
  const uint32_t p = ExtractPtr(tagged);
  const uint32_t ub = ExtractUb(tagged);
  if (ub == 0) {
    return;
  }
  cpu.Alu(2);
  ++stats_.checks;
  cpu.CountBoundsCheck();
  const uint32_t lb = LoadLb(cpu, ub);
  cpu.Alu(2);
  cpu.Branch();
  if (p < lb || static_cast<uint64_t>(p) + extent_bytes > ub) {
    ++stats_.violations;
    cpu.CountBoundsViolation();
    throw SimTrap(TrapKind::kSgxBoundsViolation, p, "hoisted range check failed");
  }
}

}  // namespace sgxb
