#include "src/fault/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/enclave/enclave.h"
#include "src/runtime/heap.h"

namespace sgxb {

namespace {

constexpr const char* kKindNames[kFaultKindCount] = {
    "alloc_fail",
    "wild_write",
    "epc_storm",
    "metadata_flip",
};

constexpr const char* kKindChoices = "alloc_fail|wild_write|epc_storm|metadata_flip";
constexpr const char* kTriggerChoices = "access|alloc|cycle";

// Restores the re-entrancy guard even if an injection throws a SimTrap.
struct InjectScope {
  explicit InjectScope(bool* flag) : flag_(flag) { *flag_ = true; }
  ~InjectScope() { *flag_ = false; }
  bool* flag_;
};

}  // namespace

const char* FaultKindName(FaultKind kind) {
  return kKindNames[static_cast<uint8_t>(kind)];
}

bool ParseFaultKind(const std::string& text, FaultKind* out) {
  for (uint32_t i = 0; i < kFaultKindCount; ++i) {
    if (text == kKindNames[i]) {
      *out = static_cast<FaultKind>(i);
      return true;
    }
  }
  return false;
}

const char* FaultTriggerName(FaultTrigger trigger) {
  switch (trigger) {
    case FaultTrigger::kAccessCount:
      return "access";
    case FaultTrigger::kAllocIndex:
      return "alloc";
    case FaultTrigger::kCycleCount:
      return "cycle";
  }
  return "?";
}

std::string FaultPlan::ToSpec() const {
  std::string spec;
  for (const FaultEvent& event : events) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s@%s:%llu", spec.empty() ? "" : ";",
                  FaultKindName(event.kind), FaultTriggerName(event.trigger),
                  static_cast<unsigned long long>(event.at));
    spec += buf;
    if (event.count != 1) {
      std::snprintf(buf, sizeof(buf), "*%u", event.count);
      spec += buf;
    }
    if (event.period != 0 && event.period != event.at) {
      std::snprintf(buf, sizeof(buf), "+%llu", static_cast<unsigned long long>(event.period));
      spec += buf;
    }
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%sseed=%llu", spec.empty() ? "" : ";",
                static_cast<unsigned long long>(seed));
  spec += buf;
  return spec;
}

bool FaultPlan::Parse(const std::string& spec, FaultPlan* out, std::string* error) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t sep = spec.find_first_of(";,", pos);
    if (sep == std::string::npos) {
      sep = spec.size();
    }
    const std::string token = Trimmed(spec.substr(pos, sep - pos));
    pos = sep + 1;
    if (token.empty()) {
      if (pos > spec.size()) {
        break;
      }
      continue;
    }
    if (token.rfind("seed=", 0) == 0) {
      if (!ParseUnsigned(token.substr(5), &plan.seed, 10)) {
        if (error != nullptr) {
          *error = "bad fault seed '" + token + "' (want seed=N)";
        }
        return false;
      }
      continue;
    }

    const size_t at_sign = token.find('@');
    const size_t colon = token.find(':', at_sign == std::string::npos ? 0 : at_sign);
    if (at_sign == std::string::npos || colon == std::string::npos) {
      if (error != nullptr) {
        *error = "bad fault event '" + token +
                 "' (want KIND@TRIGGER:AT[*COUNT][+PERIOD]; kinds: " + kKindChoices +
                 "; triggers: " + kTriggerChoices + ")";
      }
      return false;
    }

    FaultEvent event;
    const std::string kind_text = Trimmed(token.substr(0, at_sign));
    if (!ParseFaultKind(kind_text, &event.kind)) {
      if (error != nullptr) {
        *error = "unknown fault kind '" + kind_text + "' (valid: " + kKindChoices + ")";
      }
      return false;
    }
    const std::string trigger_text = Trimmed(token.substr(at_sign + 1, colon - at_sign - 1));
    if (trigger_text == "access") {
      event.trigger = FaultTrigger::kAccessCount;
    } else if (trigger_text == "alloc") {
      event.trigger = FaultTrigger::kAllocIndex;
    } else if (trigger_text == "cycle") {
      event.trigger = FaultTrigger::kCycleCount;
    } else {
      if (error != nullptr) {
        *error = "unknown fault trigger '" + trigger_text + "' (valid: " +
                 kTriggerChoices + ")";
      }
      return false;
    }

    std::string point_text = Trimmed(token.substr(colon + 1));
    const size_t plus = point_text.find('+');
    if (plus != std::string::npos) {
      if (!ParseUnsigned(point_text.substr(plus + 1), &event.period, 10) || event.period == 0) {
        if (error != nullptr) {
          *error = "bad fault period in '" + token + "'";
        }
        return false;
      }
      point_text = point_text.substr(0, plus);
    }
    const size_t star = point_text.find('*');
    if (star != std::string::npos) {
      uint64_t count = 0;
      if (!ParseUnsigned(point_text.substr(star + 1), &count, 10) || count == 0 ||
          count > 0xffffffffull) {
        if (error != nullptr) {
          *error = "bad fault count in '" + token + "'";
        }
        return false;
      }
      event.count = static_cast<uint32_t>(count);
      point_text = point_text.substr(0, star);
    }
    if (!ParseUnsigned(point_text, &event.at, 10) || event.at == 0) {
      if (error != nullptr) {
        *error = "bad fault trigger point in '" + token + "' (want a positive integer)";
      }
      return false;
    }
    plan.events.push_back(event);
  }
  *out = std::move(plan);
  return true;
}

FaultPlan FaultPlan::Campaign(FaultKind kind, uint64_t seed, uint32_t events, uint64_t span) {
  FaultPlan plan;
  plan.seed = seed;
  // Placement rng decoupled from the injection rng so adding events does not
  // shift where existing ones land their writes/flips.
  Rng rng(seed ^ 0x66a0f7a1c3d5e9bbull);
  if (span < 8) {
    span = 8;
  }
  const uint64_t lo = span / 8;
  for (uint32_t i = 0; i < events; ++i) {
    FaultEvent event;
    event.kind = kind;
    event.trigger =
        kind == FaultKind::kAllocFail ? FaultTrigger::kAllocIndex : FaultTrigger::kAccessCount;
    uint64_t point = lo + rng.NextBounded(span - lo + 1);
    if (event.trigger == FaultTrigger::kAllocIndex) {
      // Allocation indices are ~two orders of magnitude sparser than guest
      // accesses; scale the same span into that space.
      point = std::max<uint64_t>(1, point / 64);
    }
    event.at = point;
    plan.events.push_back(event);
  }
  return plan;
}

FaultPlan FaultPlan::Mixed(uint64_t seed, uint32_t events, uint64_t span) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed ^ 0x9d3f8c1b274a65e1ull);
  if (span < 8) {
    span = 8;
  }
  const uint64_t lo = span / 8;
  for (uint32_t i = 0; i < events; ++i) {
    FaultEvent event;
    event.kind = static_cast<FaultKind>(rng.NextBounded(kFaultKindCount));
    event.trigger =
        event.kind == FaultKind::kAllocFail ? FaultTrigger::kAllocIndex : FaultTrigger::kAccessCount;
    uint64_t point = lo + rng.NextBounded(span - lo + 1);
    if (event.trigger == FaultTrigger::kAllocIndex) {
      point = std::max<uint64_t>(1, point / 64);
    }
    event.at = point;
    plan.events.push_back(event);
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan) : rng_(plan.seed) {
  pending_.reserve(plan.events.size());
  for (const FaultEvent& event : plan.events) {
    Pending pending;
    pending.event = event;
    if (pending.event.period == 0) {
      pending.event.period = event.at;
    }
    pending.next = event.at;
    pending.left = event.count;
    pending_.push_back(pending);
  }
  RecomputePolls();
}

void FaultInjector::Arm(Enclave* enclave, Heap* heap) {
  enclave_ = enclave;
  heap_ = heap;
  enclave_->AttachFaults(this);
}

void FaultInjector::Disarm() {
  if (enclave_ != nullptr) {
    enclave_->AttachFaults(nullptr);
  }
}

void FaultInjector::RecomputePolls() {
  next_access_poll_ = kNever;
  next_cycle_poll_ = kNever;
  for (const Pending& pending : pending_) {
    if (pending.left == 0) {
      continue;
    }
    if (pending.event.trigger == FaultTrigger::kAccessCount) {
      next_access_poll_ = std::min(next_access_poll_, pending.next);
    } else if (pending.event.trigger == FaultTrigger::kCycleCount) {
      next_cycle_poll_ = std::min(next_cycle_poll_, pending.next);
    }
  }
}

void FaultInjector::OnAccess(Cpu& cpu, uint32_t addr, uint32_t size) {
  (void)addr;
  (void)size;
  if (injecting_) {
    return;
  }
  ++access_count_;
  if (access_count_ >= next_access_poll_) {
    FireDue(cpu, FaultTrigger::kAccessCount, access_count_);
  }
  if (next_cycle_poll_ != kNever) {
    const uint64_t cycles = cpu.cycles();
    if (cycles >= next_cycle_poll_) {
      FireDue(cpu, FaultTrigger::kCycleCount, cycles);
    }
  }
}

bool FaultInjector::OnAlloc(Cpu& cpu) {
  if (injecting_) {
    return false;
  }
  ++alloc_count_;
  bool fail = false;
  for (Pending& pending : pending_) {
    if (pending.event.trigger != FaultTrigger::kAllocIndex) {
      continue;
    }
    while (pending.left > 0 && alloc_count_ >= pending.next) {
      pending.next += pending.event.period;
      --pending.left;
      if (pending.event.kind == FaultKind::kAllocFail) {
        ++stats_.injected[static_cast<uint8_t>(FaultKind::kAllocFail)];
        fail = true;
      } else {
        Fire(cpu, pending.event.kind);
      }
    }
  }
  if (pending_alloc_fails_ > 0) {
    --pending_alloc_fails_;
    ++stats_.injected[static_cast<uint8_t>(FaultKind::kAllocFail)];
    fail = true;
  }
  return fail;
}

void FaultInjector::FireDue(Cpu& cpu, FaultTrigger trigger, uint64_t now) {
  for (Pending& pending : pending_) {
    if (pending.event.trigger != trigger) {
      continue;
    }
    while (pending.left > 0 && now >= pending.next) {
      pending.next += pending.event.period;
      --pending.left;
      Fire(cpu, pending.event.kind);
    }
  }
  RecomputePolls();
}

void FaultInjector::Fire(Cpu& cpu, FaultKind kind) {
  InjectScope scope(&injecting_);
  switch (kind) {
    case FaultKind::kAllocFail:
      // Access/cycle-triggered allocation failures arm the *next* allocation;
      // the stat is counted when the failure is actually delivered.
      ++pending_alloc_fails_;
      break;
    case FaultKind::kWildWrite:
      InjectWildWrite(cpu);
      break;
    case FaultKind::kEpcStorm:
      InjectEpcStorm(cpu);
      break;
    case FaultKind::kMetadataFlip:
      if (corruptor_ && corruptor_(cpu, rng_)) {
        ++stats_.injected[static_cast<uint8_t>(FaultKind::kMetadataFlip)];
      } else {
        ++stats_.skipped;
      }
      break;
  }
}

void FaultInjector::InjectWildWrite(Cpu& cpu) {
  CHECK(enclave_ != nullptr && heap_ != nullptr);
  const uint64_t used = heap_->used_bytes();
  if (used < 16) {
    ++stats_.skipped;
    return;
  }
  // Probe a few RNG points in the allocated span for a committed slot; the
  // 8-byte alignment keeps the write inside one page, so one Addressable
  // check covers the whole store.
  for (int probe = 0; probe < 16; ++probe) {
    const uint32_t addr =
        heap_->base() + static_cast<uint32_t>(rng_.NextBounded(used - 8) & ~7ull);
    if (!enclave_->pages().Addressable(addr)) {
      continue;
    }
    enclave_->Store<uint64_t>(cpu, addr, rng_.Next(), AccessClass::kAppStore);
    ++stats_.injected[static_cast<uint8_t>(FaultKind::kWildWrite)];
    return;
  }
  ++stats_.skipped;
}

void FaultInjector::InjectEpcStorm(Cpu& cpu) {
  CHECK(enclave_ != nullptr && heap_ != nullptr);
  // A charged one-byte sweep over the committed heap pages (capped at one
  // EPC's worth): evicts the enclave's resident set through the normal
  // access path, so recorded runs replay bit-identically.
  const uint64_t used = heap_->used_bytes();
  const uint64_t cap_pages = enclave_->memsys().epc().capacity_pages();
  uint64_t touched = 0;
  for (uint64_t off = 0; off < used && touched < cap_pages; off += kPageSize) {
    const uint32_t addr = heap_->base() + static_cast<uint32_t>(off);
    if (!enclave_->pages().Addressable(addr)) {
      continue;
    }
    enclave_->Load<uint8_t>(cpu, addr, AccessClass::kMetadataLoad);
    ++touched;
  }
  if (touched > 0) {
    ++stats_.injected[static_cast<uint8_t>(FaultKind::kEpcStorm)];
  } else {
    ++stats_.skipped;
  }
}

}  // namespace sgxb
