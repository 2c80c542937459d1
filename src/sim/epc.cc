#include "src/sim/epc.h"

#include "src/common/check.h"
#include "src/common/units.h"

namespace sgxb {

EpcSim::EpcSim(uint64_t capacity_bytes)
    : capacity_pages_(capacity_bytes / kPageSize), nodes_(kMaxPages) {
  CHECK_GT(capacity_pages_, 0u);
}

bool EpcSim::Fault(Node& nd, uint32_t page) {
  ++faults_;
  if (resident_count_ >= capacity_pages_) {
    const uint32_t victim = tail_;
    CHECK_NE(victim, kNil);
    Node& vd = nodes_[victim];
    Unlink(vd);
    vd.clear();
    --resident_count_;
    ++evictions_;
  }
  ++resident_count_;
  PushFront(nd, page);
  return true;
}

bool EpcSim::Resident(uint32_t page) const {
  CHECK_LT(page, kMaxPages);
  return nodes_[page].resident();
}

void EpcSim::Invalidate(uint32_t page) {
  CHECK_LT(page, kMaxPages);
  Node& nd = nodes_[page];
  if (!nd.resident()) {
    return;
  }
  Unlink(nd);
  nd.clear();
  --resident_count_;
}

void EpcSim::Reset() {
  for (uint32_t page = head_; page != kNil;) {
    Node& nd = nodes_[page];
    const uint32_t next = nd.next();
    nd.clear();
    page = next;
  }
  head_ = kNil;
  tail_ = kNil;
  resident_count_ = 0;
  faults_ = 0;
  evictions_ = 0;
}

}  // namespace sgxb
