// ZeroedTable<T>: a fixed-size array of T that starts all-zero for free.
//
// The simulator keeps several tables with one entry per page of the 4 GiB
// enclave space (EPC residency links, commit/guard/accounting bytes). A run
// touches a small fraction of those entries, yet filling a std::vector writes
// (and so commits host memory for) every one of them at construction. A
// ZeroedTable is an anonymous MAP_NORESERVE mapping instead: construction
// writes nothing, reads of untouched entries hit the kernel's shared zero
// page, and host pages appear only for the entries that get written.
//
// A private mmap rather than calloc: once glibc's dynamic mmap threshold has
// risen, calloc serves multi-MiB blocks from recycled heap chunks and must
// clear them itself, which is the fill this class exists to avoid.
//
// T must be trivially copyable and must mean "empty" when all-zero; callers
// encode their sentinels so that holds (see EpcSim's XOR-ed links).

#ifndef SGXBOUNDS_SRC_COMMON_ZEROED_TABLE_H_
#define SGXBOUNDS_SRC_COMMON_ZEROED_TABLE_H_

#include <sys/mman.h>

#include <cstddef>
#include <type_traits>

#include "src/common/check.h"

namespace sgxb {

template <typename T>
class ZeroedTable {
  static_assert(std::is_trivially_copyable_v<T>, "entries are zero-filled raw memory");

 public:
  explicit ZeroedTable(size_t size) : size_(size) {
    CHECK_GT(size, 0u);
    void* mem = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    CHECK(mem != MAP_FAILED);
    data_ = static_cast<T*>(mem);
  }
  ~ZeroedTable() { ::munmap(data_, bytes()); }

  ZeroedTable(const ZeroedTable&) = delete;
  ZeroedTable& operator=(const ZeroedTable&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  size_t bytes() const { return size_ * sizeof(T); }

  size_t size_;
  T* data_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_ZEROED_TABLE_H_
