#include "src/enclave/address_space.h"

#include <sys/mman.h>
#include <unistd.h>

#include "src/common/check.h"

namespace sgxb {

namespace {

// The mapping: the space rounded up to host pages, then one guard page.
uint64_t HostPage() { return static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)); }
uint64_t GuardOffset(uint64_t size_bytes) {
  const uint64_t page = HostPage();
  return (size_bytes + page - 1) / page * page;
}

}  // namespace

AddressSpace::AddressSpace(uint64_t size_bytes) : size_bytes_(size_bytes) {
  CHECK_GT(size_bytes, 0u);
  CHECK_LE(size_bytes, 4 * kGiB);
  const uint64_t guard = GuardOffset(size_bytes);
  void* mem = ::mmap(nullptr, guard + HostPage(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CHECK(mem != MAP_FAILED);
  base_ = static_cast<uint8_t*>(mem);
  CHECK(::mprotect(base_ + guard, HostPage(), PROT_NONE) == 0);
}

AddressSpace::~AddressSpace() { ::munmap(base_, GuardOffset(size_bytes_) + HostPage()); }

}  // namespace sgxb
