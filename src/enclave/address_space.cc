#include "src/enclave/address_space.h"

#include <sys/mman.h>

#include "src/common/check.h"

namespace sgxb {

AddressSpace::AddressSpace(uint64_t size_bytes) : size_bytes_(size_bytes) {
  CHECK_GT(size_bytes, 0u);
  CHECK_LE(size_bytes, 4 * kGiB);
  void* mem = ::mmap(nullptr, size_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CHECK(mem != MAP_FAILED);
  base_ = static_cast<uint8_t*>(mem);
}

AddressSpace::~AddressSpace() { ::munmap(base_, size_bytes_); }

}  // namespace sgxb
