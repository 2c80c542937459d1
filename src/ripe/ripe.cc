#include "src/ripe/ripe.h"

#include <cstring>
#include <memory>
#include <optional>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/policy/scheme_list.h"

namespace sgxb {

const std::vector<AttackScenario>& RipeScenarios() {
  static const std::vector<AttackScenario>* scenarios = [] {
    auto* v = new std::vector<AttackScenario>{
        // --- 8 inter-object attacks -------------------------------------------
        // The two direct stack smashes MPX catches (Table 4).
        {"stack-direct-funcptr", AttackLocation::kStack, AttackTechnique::kDirectLoop,
         AttackTarget::kFuncPtr, false},
        {"stack-direct-longjmp", AttackLocation::kStack, AttackTechnique::kDirectLoop,
         AttackTarget::kLongjmpBuf, false},
        // Six libc-mediated attacks: ASan/SGXBounds interpose libc; MPX loses
        // bounds across the uninstrumented call and misses them.
        {"stack-memcpy-funcptr", AttackLocation::kStack, AttackTechnique::kLibcMemcpy,
         AttackTarget::kFuncPtr, false},
        {"heap-memcpy-funcptr", AttackLocation::kHeap, AttackTechnique::kLibcMemcpy,
         AttackTarget::kFuncPtr, false},
        {"heap-strcpy-data", AttackLocation::kHeap, AttackTechnique::kLibcStrcpy,
         AttackTarget::kPlainData, false},
        {"bss-memcpy-funcptr", AttackLocation::kBss, AttackTechnique::kLibcMemcpy,
         AttackTarget::kFuncPtr, false},
        {"data-strcpy-funcptr", AttackLocation::kData, AttackTechnique::kLibcStrcpy,
         AttackTarget::kFuncPtr, false},
        {"heap-memcpy-longjmp", AttackLocation::kHeap, AttackTechnique::kLibcMemcpy,
         AttackTarget::kLongjmpBuf, false},
        // --- 8 intra-object attacks (missed by all three defenses) ------------
        {"stack-intra-funcptr", AttackLocation::kStack, AttackTechnique::kDirectLoop,
         AttackTarget::kFuncPtr, true},
        {"stack-intra-data", AttackLocation::kStack, AttackTechnique::kDirectLoop,
         AttackTarget::kPlainData, true},
        {"heap-intra-funcptr", AttackLocation::kHeap, AttackTechnique::kDirectLoop,
         AttackTarget::kFuncPtr, true},
        {"heap-intra-data", AttackLocation::kHeap, AttackTechnique::kDirectLoop,
         AttackTarget::kPlainData, true},
        {"bss-intra-funcptr", AttackLocation::kBss, AttackTechnique::kDirectLoop,
         AttackTarget::kFuncPtr, true},
        {"bss-intra-longjmp", AttackLocation::kBss, AttackTechnique::kDirectLoop,
         AttackTarget::kLongjmpBuf, true},
        {"data-intra-funcptr", AttackLocation::kData, AttackTechnique::kDirectLoop,
         AttackTarget::kFuncPtr, true},
        {"data-intra-data", AttackLocation::kData, AttackTechnique::kDirectLoop,
         AttackTarget::kPlainData, true},
    };
    return v;
  }();
  return *scenarios;
}

namespace {

constexpr uint32_t kBufBytes = 64;
constexpr uint64_t kAttackerValue = 0x41414141deadc0deULL;  // "hijacked" marker

// True unless the scheme declares its libc uninstrumented (MPX: bounds are
// lost across the call, so the copy runs blind).
template <typename Scheme>
constexpr bool kLibcChecksDst = !requires { requires Scheme::kUninstrumentedLibc; };

// One attack run under one scheme: the simulated process RIPE attacks run in
// (512 MiB enclave, 128 MiB heap, 1 MiB stack with one pushed frame, and two
// 64-page segments standing in for the program's bss and data) plus the
// scheme's own struct, the same one CheckedPolicy<Scheme> drives for the
// workloads. Where a scheme does something RIPE-specific it says so with an
// optional struct member (policy.h lists them).
template <typename Scheme>
class AttackContext {
 public:
  using Ptr = typename Scheme::Ptr;

  // An object the attack writes through: the scheme's pointer to it, and
  // whether SS8 narrowing shrank that pointer to a field.
  struct Obj {
    Ptr ptr{};
    bool narrowed = false;
    uint32_t addr() const { return Scheme::Addr(ptr); }
  };

  AttackContext() {
    EnclaveConfig cfg;
    cfg.space_bytes = 512 * kMiB;
    enclave_ = std::make_unique<Enclave>(cfg);
    heap_ = std::make_unique<Heap>(enclave_.get(), 128 * kMiB);
    stack_ = std::make_unique<StackAllocator>(enclave_.get(), 1 * kMiB);
    stack_->PushFrame();  // the vulnerable function's frame
    bss_base_ = enclave_->pages().ReserveLow(64 * kPageSize, "bss");
    enclave_->pages().Commit(nullptr, bss_base_, 64 * kPageSize);
    data_base_ = enclave_->pages().ReserveLow(64 * kPageSize, "data");
    enclave_->pages().Commit(nullptr, data_base_, 64 * kPageSize);
    scheme_.emplace(enclave_.get(), heap_.get(), PolicyOptions{});
  }

  Cpu& cpu() { return enclave_->main_cpu(); }
  Enclave& enclave() { return *enclave_; }

  // Allocates an object at `location`. For kStack/kBss/kData, consecutive
  // calls yield adjacent objects (the attack layouts rely on that, like
  // RIPE's real frames/segments do), laid out by the scheme's carve
  // alignment and footprint; the scheme then attaches its metadata.
  Obj Allocate(AttackLocation location, uint32_t size) {
    uint32_t addr = 0;
    switch (location) {
      case AttackLocation::kHeap:
        return Obj{scheme_->Malloc(cpu(), size)};
      case AttackLocation::kStack:
        addr = stack_->Alloca(cpu(), CarveFootprint(size), CarveAlign());
        break;
      case AttackLocation::kBss:
        addr = SegmentCarve(&bss_cursor_, bss_base_, size);
        break;
      case AttackLocation::kData:
        addr = SegmentCarve(&data_cursor_, data_base_, size);
        break;
    }
    if constexpr (requires { scheme_->RegisterObject(cpu(), addr, size); }) {
      return Obj{scheme_->RegisterObject(cpu(), addr, size)};
    } else {
      return Obj{Scheme::Add(Ptr{}, addr)};  // no metadata to attach (native)
    }
  }

  // SS8 extension: narrows obj's pointer to the field [offset, offset+len);
  // a no-op for schemes without narrowing support.
  void NarrowTo(Obj& obj, uint32_t offset, uint32_t len) {
    if constexpr (requires { scheme_->NarrowTo(cpu(), obj.ptr, offset, len); }) {
      obj.ptr = scheme_->NarrowTo(cpu(), obj.ptr, offset, len);
      obj.narrowed = true;
    }
  }

  // One instrumented byte store at obj+offset, as the compiler would emit
  // it: the scheme's check (may throw SimTrap), then the store.
  void StoreByte(const Obj& obj, uint32_t offset, uint8_t value) {
    const Ptr p = Scheme::Add(obj.ptr, offset);
    ResolvedAccess r;
    if constexpr (requires { scheme_->ResolveNarrowed(cpu(), p, 1, AccessType::kWrite); }) {
      r = obj.narrowed ? scheme_->ResolveNarrowed(cpu(), p, 1, AccessType::kWrite)
                       : scheme_->Resolve(cpu(), p, 1, AccessType::kWrite);
    } else {
      r = scheme_->Resolve(cpu(), p, 1, AccessType::kWrite);
    }
    enclave_->Store<uint8_t>(cpu(), r.addr, value);
  }

  // A libc-mediated copy of n attacker bytes into obj (memcpy/strcpy-like)
  // under the scheme's libc model: its own wrapper when it has one, else an
  // instrumented copy that checks the destination range first (a no-op
  // check for native). Returns false when a wrapper refused the copy.
  bool LibcCopyInto(const Obj& obj, const uint8_t* payload, uint32_t n) {
    if constexpr (requires { scheme_->LibcCopy(cpu(), obj.ptr, payload, n); }) {
      return scheme_->LibcCopy(cpu(), obj.ptr, payload, n);
    } else {
      uint32_t dst = obj.addr();
      if constexpr (kLibcChecksDst<Scheme>) {
        dst = scheme_->Resolve(cpu(), obj.ptr, n, AccessType::kWrite).addr;
      }
      cpu().MemAccess(dst, n, AccessClass::kAppStore);
      std::memcpy(enclave_->space().HostPtr(dst), payload, n);
      return true;
    }
  }

 private:
  static constexpr uint32_t CarveAlign() {
    if constexpr (requires { Scheme::kCarveAlign; }) {
      return Scheme::kCarveAlign;
    } else {
      return 16;
    }
  }

  // Bytes one carved object consumes: its size plus whatever the scheme's
  // instrumentation adds (SGXBounds footer, ASan redzone gap, l4ptr
  // power-of-two padding).
  uint32_t CarveFootprint(uint32_t size) const {
    if constexpr (requires { scheme_->CarveFootprint(size); }) {
      return scheme_->CarveFootprint(size);
    } else {
      return size;
    }
  }

  uint32_t SegmentCarve(uint32_t* cursor, uint32_t base, uint32_t size) {
    const uint32_t addr = AlignUp(base + *cursor, CarveAlign());
    *cursor = addr - base + CarveFootprint(size);
    return addr;
  }

  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<Heap> heap_;
  std::unique_ptr<StackAllocator> stack_;
  std::optional<Scheme> scheme_;
  uint32_t bss_base_ = 0;
  uint32_t data_base_ = 0;
  uint32_t bss_cursor_ = 0;
  uint32_t data_cursor_ = 0;
};

template <typename Scheme>
AttackOutcome RunAttackUnder(const AttackScenario& scenario, bool narrow_bounds) {
  AttackOutcome outcome;
  AttackContext<Scheme> ctx;

  try {
    typename AttackContext<Scheme>::Obj buf;
    uint32_t target_addr;  // where the victim slot lives

    if (scenario.intra_object) {
      // One struct: { char buf[64]; uint64 victim; } - a single allocation.
      buf = ctx.Allocate(scenario.location, kBufBytes + 8);
      target_addr = buf.addr() + kBufBytes;
      if (narrow_bounds) {
        // SS8 extension: &obj.buf is narrowed to the 64-byte field.
        ctx.NarrowTo(buf, 0, kBufBytes);
      }
      // The attacker overflows the *inner* buffer, staying inside the object.
    } else {
      // Two adjacent objects: the vulnerable buffer, then the victim.
      buf = ctx.Allocate(scenario.location, kBufBytes);
      target_addr = ctx.Allocate(scenario.location, 8).addr();
    }

    // Stamp the victim with a benign value.
    ctx.enclave().template Poke<uint64_t>(target_addr, 0x600d600d600d600dULL);

    const uint32_t overflow_len = target_addr + 8 - buf.addr();
    CHECK_GT(overflow_len, kBufBytes);

    switch (scenario.technique) {
      case AttackTechnique::kDirectLoop: {
        // for (i = 0; i < overflow_len; i++) buf[i] = payload[i];
        for (uint32_t i = 0; i < overflow_len; ++i) {
          const uint8_t byte =
              reinterpret_cast<const uint8_t*>(&kAttackerValue)[(i - (overflow_len - 8)) % 8];
          ctx.StoreByte(buf, i, i < overflow_len - 8 ? 0x41 : byte);
        }
        break;
      }
      case AttackTechnique::kLibcMemcpy:
      case AttackTechnique::kLibcStrcpy: {
        std::vector<uint8_t> payload(overflow_len, 0x41);
        std::memcpy(payload.data() + overflow_len - 8, &kAttackerValue, 8);
        if (scenario.technique == AttackTechnique::kLibcStrcpy) {
          // strcpy semantics: no NUL until past the victim.
          for (auto& b : payload) {
            if (b == 0) {
              b = 0x42;
            }
          }
        }
        if (!ctx.LibcCopyInto(buf, payload.data(), overflow_len)) {
          outcome.prevented = true;
          outcome.detail = "libc wrapper returned EINVAL";
          return outcome;
        }
        break;
      }
    }

    // Did the attacker take the target? (Simulates dereferencing the
    // function pointer / longjmp-ing / using the data.)
    const uint64_t victim_value = ctx.enclave().template Peek<uint64_t>(target_addr);
    if (victim_value == kAttackerValue) {
      outcome.succeeded = true;
      outcome.detail = "target overwritten; control-flow hijack possible";
    } else {
      outcome.detail = "attack ran but target survived";
    }
  } catch (const SimTrap& trap) {
    outcome.prevented = true;
    outcome.detail = trap.what();
  }
  return outcome;
}

}  // namespace

// Dynamic kind -> scheme struct: the same fold over the registered scheme
// list as RunPolicyKind (run.h).
AttackOutcome RunAttack(const AttackScenario& scenario, PolicyKind kind,
                        bool narrow_bounds) {
  AttackOutcome outcome;
  const bool found = SchemePolicies::ForEach([&]<typename P>() {
    if (P::kKind != kind) {
      return false;
    }
    outcome = RunAttackUnder<typename P::SchemeType>(scenario, narrow_bounds);
    return true;
  });
  CHECK(found);
  return outcome;
}

RipeSummary RunRipeSuite(PolicyKind kind, std::vector<AttackOutcome>* outcomes,
                         bool narrow_bounds) {
  RipeSummary summary;
  for (const auto& scenario : RipeScenarios()) {
    const AttackOutcome outcome = RunAttack(scenario, kind, narrow_bounds);
    summary.total += 1;
    summary.prevented += outcome.prevented ? 1 : 0;
    summary.succeeded += outcome.succeeded ? 1 : 0;
    if (outcomes != nullptr) {
      outcomes->push_back(outcome);
    }
  }
  return summary;
}

}  // namespace sgxb
