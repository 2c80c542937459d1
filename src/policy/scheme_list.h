// THE single registration point of the scheme registry.
//
// Adding a scheme: append its PolicyKind value (policy.h), create
// src/policy/<scheme>/ with a scheme struct (scheme.h, see policy.h) + a
// scheme.cc defining Descriptor(), then add CheckedPolicy<YourScheme> to
// SchemePolicies below. Nothing else in the repo changes - the registry
// (policy.cc), the run harness (run.h), the IR suite, the bench drivers,
// the trace tool, RIPE and the fault campaigns all enumerate from here, and
// RIPE and IR lowering use the same scheme struct (P::SchemeType).

#ifndef SGXBOUNDS_SRC_POLICY_SCHEME_LIST_H_
#define SGXBOUNDS_SRC_POLICY_SCHEME_LIST_H_

#include "src/policy/asan/scheme.h"
#include "src/policy/l4ptr/scheme.h"
#include "src/policy/mpx/scheme.h"
#include "src/policy/native/scheme.h"
#include "src/policy/sgxbounds/scheme.h"
#include "src/policy/shadow/scheme.h"

namespace sgxb {

// Compile-time list of scheme policy types. ForEach visits each type in
// order until the visitor returns true (found/stop), mirroring how the
// runtime descriptor table is ordered.
template <typename... Ps>
struct SchemeTypes {
  template <typename Fn>
  static bool ForEach(Fn&& fn) {
    return (fn.template operator()<Ps>() || ...);
  }

  static constexpr size_t kCount = sizeof...(Ps);
};

// Registration order = the paper's presentation order (native baseline
// first, then MPX, ASan, SGXBounds), then plugged-in schemes.
using SchemePolicies =
    SchemeTypes<NativePolicy, MpxPolicy, AsanPolicy, SgxBoundsPolicy, L4PtrPolicy,
                ShadowPolicy>;

static_assert(SchemePolicies::kCount == kPolicyKindCount,
              "every PolicyKind value needs a registered scheme");

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SCHEME_LIST_H_
