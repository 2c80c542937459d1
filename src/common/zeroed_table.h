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
//
// The entries end exactly where a PROT_NONE guard page begins, so an index
// one past the end (or a little further) faults in every build. Sanitizers
// cannot see such an overrun, because the table is not heap memory.

#ifndef SGXBOUNDS_SRC_COMMON_ZEROED_TABLE_H_
#define SGXBOUNDS_SRC_COMMON_ZEROED_TABLE_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/check.h"

namespace sgxb {

template <typename T>
class ZeroedTable {
  static_assert(std::is_trivially_copyable_v<T>, "entries are zero-filled raw memory");

 public:
  explicit ZeroedTable(size_t size) : size_(size) {
    CHECK_GT(size, 0u);
    void* mem = ::mmap(nullptr, DataBytes() + Page(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    CHECK(mem != MAP_FAILED);
    uint8_t* const guard = static_cast<uint8_t*>(mem) + DataBytes();
    CHECK(::mprotect(guard, Page(), PROT_NONE) == 0);
    // The page size is a multiple of alignof(T), which divides sizeof(T).
    data_ = reinterpret_cast<T*>(guard - size_ * sizeof(T));
  }
  ~ZeroedTable() {
    uint8_t* const guard = reinterpret_cast<uint8_t*>(data_ + size_);
    ::munmap(guard - DataBytes(), DataBytes() + Page());
  }

  ZeroedTable(const ZeroedTable&) = delete;
  ZeroedTable& operator=(const ZeroedTable&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  static size_t Page() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }
  // The entries rounded up to whole pages; the guard page follows.
  size_t DataBytes() const { return (size_ * sizeof(T) + Page() - 1) / Page() * Page(); }

  size_t size_;
  T* data_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_ZEROED_TABLE_H_
