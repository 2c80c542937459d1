// Backing storage for the simulated 32-bit enclave address space.
//
// SGXBounds requires the enclave to start at virtual address 0 (SS5.1: the
// paper sets vm.mmap_min_addr=0 and patches the SGX driver). The simulator
// gets the same effect for free: enclave addresses are 32-bit offsets into a
// host mmap region, so enclave address 0 is simply offset 0.
//
// The full 4 GiB is reserved lazily (anonymous mmap); pages cost host memory
// only when the guest actually commits and touches them. A PROT_NONE guard
// page follows the space, so a host access running past its end faults in
// every build instead of reading whatever is mapped next.

#ifndef SGXBOUNDS_SRC_ENCLAVE_ADDRESS_SPACE_H_
#define SGXBOUNDS_SRC_ENCLAVE_ADDRESS_SPACE_H_

#include <cstdint>

#include "src/common/units.h"

namespace sgxb {

class AddressSpace {
 public:
  explicit AddressSpace(uint64_t size_bytes = 4 * kGiB);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  uint8_t* HostPtr(uint32_t addr) { return base_ + addr; }
  const uint8_t* HostPtr(uint32_t addr) const { return base_ + addr; }

  uint64_t size_bytes() const { return size_bytes_; }

 private:
  uint64_t size_bytes_;
  uint8_t* base_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_ENCLAVE_ADDRESS_SPACE_H_
