// Deterministic fault-injection engine.
//
// A FaultPlan schedules fault events at precise trigger points — guest access
// counts, allocation indices, or simulated-cycle thresholds — and a
// FaultInjector armed on an Enclave fires them through the *normal charged
// access paths*, so an injected run stays fully deterministic and remains
// recordable/replayable through the trace subsystem (src/trace).
//
// Event kinds:
//   alloc_fail    - the next Heap allocation fails (SimTrap kOutOfMemory),
//                   modelling transient allocator/EPC exhaustion.
//   wild_write    - one random 8-byte store into the allocated heap span,
//                   modelling a stray pointer in uninstrumented code.
//   epc_storm     - a charged one-byte sweep over the committed heap pages
//                   (up to one EPC's worth), evicting the resident set.
//   metadata_flip - one bit flip in the active scheme's own metadata (LB
//                   footer, ASan shadow byte, MPX bounds-table entry) via a
//                   corruptor callback the policy registers.
//
// Spec grammar (--faults=):   EVENT[;EVENT...][;seed=N]
//   EVENT := KIND @ TRIGGER : AT [* COUNT] [+ PERIOD]
//   KIND := alloc_fail | wild_write | epc_storm | metadata_flip
//   TRIGGER := access | alloc | cycle
// e.g. "alloc_fail@alloc:100;wild_write@access:5000*3+2500" fires an
// allocation failure at the 100th allocation and three wild writes at guest
// accesses 5000, 7500 and 10000.
//
// Determinism contract: the same binary, flags, plan, and seed produce the
// same injected faults, cycles and counters, bit for bit. Access- and
// alloc-indexed triggers are stable across cost-model changes; cycle-indexed
// triggers are (by nature) a function of the configuration being simulated.

#ifndef SGXBOUNDS_SRC_FAULT_FAULT_H_
#define SGXBOUNDS_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/enclave/fault_hooks.h"

namespace sgxb {

class Cpu;
class Enclave;
class Heap;

enum class FaultKind : uint8_t {
  kAllocFail = 0,
  kWildWrite = 1,
  kEpcStorm = 2,
  kMetadataFlip = 3,
};
inline constexpr uint32_t kFaultKindCount = 4;

const char* FaultKindName(FaultKind kind);
bool ParseFaultKind(const std::string& text, FaultKind* out);

enum class FaultTrigger : uint8_t {
  kAccessCount = 0,  // fires when the guest access counter reaches `at`
  kAllocIndex = 1,   // fires at the `at`-th heap allocation
  kCycleCount = 2,   // fires once simulated cycles reach `at`
};

const char* FaultTriggerName(FaultTrigger trigger);

struct FaultEvent {
  FaultKind kind = FaultKind::kAllocFail;
  FaultTrigger trigger = FaultTrigger::kAccessCount;
  uint64_t at = 0;     // first firing point
  uint32_t count = 1;  // total firings
  uint64_t period = 0; // spacing between firings; 0 means `at`
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  // Campaign RNG seed: drives wild-write targets and flip positions, not the
  // trigger points (those are explicit in the events).
  uint64_t seed = 1;

  bool empty() const { return events.empty(); }
  std::string ToSpec() const;

  // Parses the --faults= grammar above. On failure returns false and fills
  // `error` with a message naming the bad token and the valid choices.
  static bool Parse(const std::string& spec, FaultPlan* out, std::string* error);

  // Seeded single-kind campaign: `events` firings of `kind` at RNG-drawn
  // points in [span/8, span] of the kind's natural trigger space (alloc
  // index for kAllocFail, access count otherwise).
  static FaultPlan Campaign(FaultKind kind, uint64_t seed, uint32_t events, uint64_t span);

  // Seeded mixed campaign: `events` firings, each of an RNG-drawn kind.
  static FaultPlan Mixed(uint64_t seed, uint32_t events, uint64_t span);
};

struct FaultStats {
  uint64_t injected[kFaultKindCount] = {};
  // Events that fired with no applicable target (no corruptor registered,
  // empty heap, ...). Still deterministic: skipping consumes the same RNG
  // draws as injecting would not, so it is part of the plan's identity.
  uint64_t skipped = 0;

  FaultStats& operator+=(const FaultStats& other) {
    for (uint32_t i = 0; i < kFaultKindCount; ++i) {
      injected[i] += other.injected[i];
    }
    skipped += other.skipped;
    return *this;
  }

  uint64_t total_injected() const {
    uint64_t total = 0;
    for (uint32_t i = 0; i < kFaultKindCount; ++i) {
      total += injected[i];
    }
    return total;
  }
};

// Arms a FaultPlan on an enclave + heap. Attach via Arm() before the
// workload runs; the policy under test registers a metadata corruptor so
// kMetadataFlip lands in that scheme's own structures.
class FaultInjector : public FaultHooks {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  // Attaches this injector to the enclave's access tap (and through
  // enclave->faults() to the heap's allocator entry).
  void Arm(Enclave* enclave, Heap* heap);
  void Disarm();

  // `corruptor(cpu, rng)` flips one bit of scheme metadata and returns true,
  // or returns false when there is nothing to corrupt (counted as skipped).
  using Corruptor = std::function<bool(Cpu&, Rng&)>;
  void RegisterMetadataCorruptor(Corruptor corruptor) { corruptor_ = std::move(corruptor); }

  // Fires one fault of `kind` immediately, outside any scheduled trigger —
  // the farm's shard-scoped injections (shard_fault.h) land epc_storm /
  // metadata_flip events at request positions through this. Draws from the
  // same injection rng as scheduled firings and counts into the same stats.
  void InjectNow(Cpu& cpu, FaultKind kind) { Fire(cpu, kind); }

  // FaultHooks:
  void OnAccess(Cpu& cpu, uint32_t addr, uint32_t size) override;
  bool OnAlloc(Cpu& cpu) override;

  const FaultStats& stats() const { return stats_; }
  uint64_t access_count() const { return access_count_; }
  uint64_t alloc_count() const { return alloc_count_; }

 private:
  struct Pending {
    FaultEvent event;
    uint64_t next = 0;   // next firing point
    uint32_t left = 0;   // firings remaining
  };

  static constexpr uint64_t kNever = ~0ull;

  void Fire(Cpu& cpu, FaultKind kind);
  void FireDue(Cpu& cpu, FaultTrigger trigger, uint64_t now);
  void RecomputePolls();
  void InjectWildWrite(Cpu& cpu);
  void InjectEpcStorm(Cpu& cpu);

  Enclave* enclave_ = nullptr;
  Heap* heap_ = nullptr;
  std::vector<Pending> pending_;
  Corruptor corruptor_;
  Rng rng_;
  FaultStats stats_;
  uint64_t access_count_ = 0;
  uint64_t alloc_count_ = 0;
  // Cheap threshold compares on the hot OnAccess path; recomputed after
  // every firing.
  uint64_t next_access_poll_ = kNever;
  uint64_t next_cycle_poll_ = kNever;
  // Alloc failures requested by access/cycle triggers, consumed by the next
  // OnAlloc.
  uint32_t pending_alloc_fails_ = 0;
  // Injected accesses re-enter OnAccess; they must not advance the counters
  // or fire further events.
  bool injecting_ = false;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_FAULT_FAULT_H_
