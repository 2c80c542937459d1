// RIPE-style runtime intrusion prevention evaluator (paper SS6.6, Table 4).
//
// The paper runs the RIPE buffer-overflow suite inside SCONE enclaves: of
// RIPE's attack matrix, 16 attacks survive in the SGX environment (shellcode
// variants die because SGX forbids the `int` instruction). Against those 16:
//
//     Intel MPX          2/16  (only the two direct stack smashes onto an
//                               adjacent function pointer; everything driven
//                               through uninstrumented libc loses its bounds)
//     AddressSanitizer   8/16  (all inter-object attacks; misses all 8
//                               intra-object overflows)
//     SGXBounds          8/16  (same 8: object-granularity bounds)
//
// This module reproduces that matrix with 16 scenarios spanning
//   location   x  {stack, heap, bss, data}
//   technique  x  {direct store loop, libc-mediated copy}
//   target     x  {function pointer, longjmp buffer, plain data}
//   containment:  inter-object vs intra-object (buffer and target in one
//                 struct - undetectable at object granularity)
//
// Each scenario is executed under each registered scheme, through the same
// scheme struct (src/policy/<scheme>/scheme.h) whose Resolve the workloads
// run: heap objects come from Scheme::Malloc, a direct store is
// Scheme::Resolve then the store. The outcome is "prevented" (trap or
// wrapper EINVAL before the target is corrupted), "succeeded" (simulated
// control-flow target or secret overwritten), or "failed".

#ifndef SGXBOUNDS_SRC_RIPE_RIPE_H_
#define SGXBOUNDS_SRC_RIPE_RIPE_H_

#include <string>
#include <vector>

#include "src/policy/policy.h"

namespace sgxb {

enum class AttackLocation : uint8_t { kStack, kHeap, kBss, kData };
enum class AttackTechnique : uint8_t { kDirectLoop, kLibcMemcpy, kLibcStrcpy };
enum class AttackTarget : uint8_t { kFuncPtr, kLongjmpBuf, kPlainData };

struct AttackScenario {
  std::string name;
  AttackLocation location;
  AttackTechnique technique;
  AttackTarget target;
  bool intra_object;  // buffer and target inside one allocation
};

// The 16 surviving attacks (8 inter-object, 8 intra-object).
const std::vector<AttackScenario>& RipeScenarios();

struct AttackOutcome {
  bool prevented = false;  // defense stopped it (trap or EINVAL)
  bool succeeded = false;  // target value was overwritten by attacker data
  std::string detail;
};

// Runs one scenario under one registered scheme on a fresh simulated
// enclave. `narrow_bounds` enables the SS8 extension for schemes that
// support it (a NarrowTo member; SGXBounds): pointers into struct fields are
// narrowed to the field, which catches the intra-object overflows Table 4's
// defenses all miss; schemes without narrowing ignore the flag.
AttackOutcome RunAttack(const AttackScenario& scenario, PolicyKind kind,
                        bool narrow_bounds = false);

struct RipeSummary {
  int prevented = 0;
  int succeeded = 0;
  int total = 0;
};

// Runs the full matrix for a scheme.
RipeSummary RunRipeSuite(PolicyKind kind, std::vector<AttackOutcome>* outcomes = nullptr,
                         bool narrow_bounds = false);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_RIPE_RIPE_H_
