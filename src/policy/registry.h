// The scheme registry: the open version of the paper's SS3.5 "metadata
// management framework" claim.
//
// Every memory-safety scheme ships one SchemeDescriptor - stable CLI id,
// display name, capability claims, per-scheme option defaults and its
// declared Table 4 row - registered from its own directory under
// src/policy/<scheme>/ (see scheme_list.h, the single registration point).
// Everything outside src/policy enumerates schemes through this table
// instead of naming the four paper schemes:
//
//   * PolicyName / flag parsing / trace headers / JSON keys all read the
//     same id<->name mapping (policy.cc);
//   * bench drivers size their tables from AllSchemes()/PaperSchemes();
//   * the conformance battery (tests/policy_conformance_test.cc) checks
//     each scheme against its own capability claims;
//   * RIPE and the IR suite fold over SchemePolicies (scheme_list.h) and
//     call the scheme struct itself - the one the workloads run.
//
// Adding a scheme means: one directory, one enum value, one entry in
// scheme_list.h. No bench driver, trace, fault or RIPE edits.

#ifndef SGXBOUNDS_SRC_POLICY_REGISTRY_H_
#define SGXBOUNDS_SRC_POLICY_REGISTRY_H_

#include <string>
#include <vector>

#include "src/policy/policy.h"

namespace sgxb {

struct RunResult;

// What a scheme claims to detect; the conformance battery verifies every
// claim (positively and negatively) for every registered scheme.
struct SchemeCapabilities {
  bool detects_oob_write = false;
  bool detects_oob_read = false;
  bool detects_underflow = false;
  bool detects_uaf = false;
  // Scheme registers a metadata corruptor with the fault injector
  // (kMetadataFlip events are skipped otherwise, as for native).
  bool has_metadata_corruptor = false;
  // OobPolicy::kBoundless is meaningful for this scheme.
  bool supports_boundless = false;
};

struct SchemeDescriptor {
  PolicyKind kind = PolicyKind::kNative;
  // Stable CLI id ("sgxbounds"): flags, trace tool, JSON keys.
  const char* id = "";
  // Display name ("SGXBounds"): tables, PolicyName().
  const char* name = "";
  // Extra accepted CLI spellings (e.g. "sgx" for native, matching the
  // paper's name for the uninstrumented baseline).
  std::vector<const char*> aliases;
  // The overhead baseline the ratio tables divide by (native).
  bool baseline = false;
  // One of the paper's four schemes (the default bench suite; plugged-in
  // schemes like l4ptr are opt-in via --policies so figure stdout stays
  // comparable with the paper).
  bool in_paper_suite = false;
  // Where the scheme keeps its safety metadata (docs + fault campaign).
  const char* metadata_surface = "";
  SchemeCapabilities caps;
  // Per-scheme option defaults (the SS4.4 switches etc.).
  PolicyOptions default_options;
  // Table 4 expectation: attacks prevented out of 16.
  int ripe_expected_prevented = 0;
  // Optional scheme-specific RunResult metric (MPX bounds-table count).
  const char* extra_metric_label = nullptr;
  uint64_t (*extra_metric)(const RunResult&) = nullptr;
};

// Descriptor for one kind; aborts on an unregistered kind.
const SchemeDescriptor& SchemeOf(PolicyKind kind);

// All registered schemes, in registration order (native first; the paper's
// presentation order native, mpx, asan, sgxbounds, then plugged-in schemes).
const std::vector<const SchemeDescriptor*>& AllSchemes();

// The paper's four default schemes, in the same order.
const std::vector<const SchemeDescriptor*>& PaperSchemes();

// Lookup by CLI id or alias; nullptr when unknown.
const SchemeDescriptor* FindScheme(const std::string& id_or_alias);

// All registered CLI ids in registration order (for AddChoice validation).
std::vector<std::string> PolicyChoices();

// Parses one CLI id/alias; prints the valid spellings and exits(2) on error.
PolicyKind ParsePolicyKind(const std::string& s);

// Parses the shared --policies= flag: a comma-separated id list, or the
// shorthands "paper" (the four paper schemes) and "all" (every registered
// scheme). On error returns empty and fills *error.
std::vector<PolicyKind> ParsePolicyList(const std::string& csv, std::string* error);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_REGISTRY_H_
