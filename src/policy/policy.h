// Memory-safety policies: how every workload is "compiled" per scheme.
//
// The paper compiles each benchmark once per instrumentation: plain SGX
// (native), AddressSanitizer, Intel MPX and SGXBounds; the registry adds
// l4ptr and shadow. Here each workload is a template over a policy type P
// (see run.h's Env<P>), and every P is CheckedPolicy<Scheme>
// (checked_policy.h): one set of bodies for allocation, checked access,
// field and span access, pointer-in-memory and the libc wrappers, over a
// small per-scheme struct in src/policy/<scheme>/scheme.h. The policy
// surface a workload sees:
//
//   Ptr Malloc/AlignedAlloc/Calloc(Cpu&, ...);  void Free(Cpu&, Ptr);
//   Ptr Offset(Cpu&, Ptr, int64_t);  uint32_t AddrOf(Ptr);
//   T Load<T>(Cpu&, Ptr);  LoadAt<T>(Cpu&, Ptr, off);  LoadField<T>(...)
//   (and the Store counterparts);  Ptr LoadPtr(Cpu&, Ptr slot);
//   StorePtr(Cpu&, Ptr slot, Ptr);  Span OpenSpan(Cpu&, Ptr, extent);
//   Memcpy/Memset(Cpu&, ...).
//
// A scheme struct supplies only what differs between schemes:
//
//   static constexpr PolicyKind kKind;
//   static constexpr bool kOptimizesChecks;  // honours the SS4.4 pair
//   static const SchemeDescriptor& Descriptor();  // in scheme.cc
//   using Ptr = ...;                             // pointer representation
//   Scheme(Enclave*, Heap*, const PolicyOptions&);
//   static uint32_t Addr(Ptr);                   // raw enclave address
//   static Ptr Add(Ptr, int64_t);                // cost-free arithmetic
//   ResolvedAccess Resolve(Cpu&, Ptr, uint32_t bytes, AccessType);
//                                                // the check; zero_fill
//                                                // only for boundless
//   Ptr Malloc/AlignedAlloc(Cpu&, ...);  void Free(Cpu&, Ptr);
//   rt;                                          // runtime (not native)
//
// and optionally, each picked up with `if constexpr (requires ...)`:
// CheckRange (required when kOptimizesChecks), Calloc and PtrAdd (runtime
// versions of the defaults), OnPtrLoad/OnPtrStore (MPX's bndldx/bndstx
// around a pointer slot), AttachFaults and CollectRunMetrics.
//
// The same struct serves IR lowering and RIPE (src/ripe), through more
// optional members:
//
//   static CheckSchemeLowering IrLowering();  // the IR pass; absent = bare
//   Ptr RegisterObject(Cpu&, addr, size);     // metadata for a carved
//                                             // stack/bss/data object
//   kCarveAlign, CarveFootprint(size);        // carve layout (16, size)
//   kUninstrumentedLibc / LibcCopy(...);      // libc model; default: check
//                                             // the destination with Resolve
//   NarrowTo, ResolveNarrowed;                // SS8 bounds narrowing
//
// Adding a scheme: one PolicyKind value below, one directory with that
// struct and its scheme.cc (the descriptor), then one line in
// scheme_list.h.

#ifndef SGXBOUNDS_SRC_POLICY_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_POLICY_H_

#include <cstdint>

#include "src/common/ir_engine.h"
#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {

// Numeric values are trace-format-stable (TraceHeader.policy stores them);
// new schemes append, existing values never move.
enum class PolicyKind : uint8_t { kNative, kAsan, kMpx, kSgxBounds, kL4Ptr, kShadow };

// Number of registered PolicyKind values (kept in sync with the enum; the
// scheme registry in registry.h statically checks every kind is described).
inline constexpr uint32_t kPolicyKindCount = 6;

// Display name from the scheme registry ("SGX", "ASan", "MPX", ...).
const char* PolicyName(PolicyKind kind);

// Pointer slots in guest memory are 8 bytes for every policy (x86-64 ABI).
inline constexpr uint32_t kPtrSlotBytes = 8;

// Check-optimization switches, consumed by the scheme-generic pass pipeline
// (src/ir/opt/pipeline.h). Each scheme declares which passes are legal for
// its bounds encoding; a flag only takes effect where the scheme supports
// it, so the paper's setup (SS4.4 optimizations on SGXBounds, nothing on
// ASan/MPX) is preserved at these defaults.
struct PolicyOptions {
  OobPolicy oob = OobPolicy::kFailFast;
  // The paper's SS4.4 pair (default on, matching the published results).
  bool opt_safe_elision = true;
  bool opt_hoist_checks = true;
  // ShadowBound-style whole-program passes (default off: enabling them
  // changes instrumentation, and the paper-four goldens pin the defaults).
  bool opt_redundant_elision = false;
  bool opt_pattern_loops = false;
  bool opt_infield_elision = false;
  // Execution engine for interpreter-driven workload bodies (the "ir" suite).
  // kDefault follows the process-wide --ir_engine selection; simulated
  // results are engine-invariant by construction.
  IrEngine ir_engine = IrEngine::kDefault;
  // Boundless-memory degradation mode at overlay capacity (SGXBounds with
  // oob == kBoundless only): silently recycle the LRU chunk, or trap loudly
  // so a recovery layer can contain the request.
  OverlayExhaustPolicy overlay_exhaust = OverlayExhaustPolicy::kEvictOldest;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_POLICY_H_
