// Fortified libc wrappers (paper SS3.2 "Function calls", SS5.1).
//
// The paper leaves libc uninstrumented and provides ~4.3 kLOC of manually
// written wrappers: each extracts the raw pointers from tagged arguments,
// checks them against bounds, and calls the real routine. Crucially, wrappers
// do NOT fall back to boundless memory - they return an errno-style error so
// servers can drop an offending request (SS5.1).
//
// The one production caller is RIPE's libc-copy attacks, through
// SgxBoundsScheme::LibcCopy (src/policy/sgxbounds/scheme.cc). The case
// studies copy without these wrappers: the Heartbleed analogue's copy is an
// instrumented in-app loop (src/apps/httpd.h), and Nginx copies through
// CheckedPolicy::Memcpy (src/apps/nginx_app.h).
//
// Bulk routines check bounds once per call and then move data at memcpy cost
// (charged as line-granular traffic), mirroring a real optimized libc.

#ifndef SGXBOUNDS_SRC_SGXBOUNDS_LIBC_H_
#define SGXBOUNDS_SRC_SGXBOUNDS_LIBC_H_

#include <cstdint>
#include <string>

#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {

// errno-style results from wrappers (0 = success).
enum class LibcError : int {
  kOk = 0,
  kEinval = 22,  // bounds violation detected on an argument
};

class FortifiedLibc {
 public:
  explicit FortifiedLibc(SgxBoundsRuntime* rt) : rt_(rt) {}

  // --- memory ---------------------------------------------------------------

  LibcError Memcpy(Cpu& cpu, TaggedPtr dst, TaggedPtr src, uint32_t n);
  LibcError Memset(Cpu& cpu, TaggedPtr dst, uint8_t value, uint32_t n);
  // memcmp result via out-param so bounds errors are distinguishable.
  LibcError Memcmp(Cpu& cpu, TaggedPtr a, TaggedPtr b, uint32_t n, int* result);

  // --- strings --------------------------------------------------------------

  // strlen stops at NUL or at the upper bound (returns error if unterminated).
  LibcError Strlen(Cpu& cpu, TaggedPtr s, uint32_t* len);
  LibcError Strcpy(Cpu& cpu, TaggedPtr dst, TaggedPtr src);
  LibcError Strncpy(Cpu& cpu, TaggedPtr dst, TaggedPtr src, uint32_t n);
  LibcError Strcmp(Cpu& cpu, TaggedPtr a, TaggedPtr b, int* result);
  LibcError Strchr(Cpu& cpu, TaggedPtr s, char c, TaggedPtr* out);

  // --- host-string bridge (for tests, apps and load generators) --------------

  // Copies a host std::string (with NUL) into enclave memory at dst.
  LibcError CopyInString(Cpu& cpu, TaggedPtr dst, const std::string& s);
  // Reads a NUL-terminated enclave string into a host std::string.
  LibcError ReadString(Cpu& cpu, TaggedPtr src, std::string* out);

  uint64_t violations() const { return violations_; }

 private:
  // Validates that [p, p+n) is inside the object's bounds; returns false and
  // bumps the violation counter otherwise. Untagged pointers pass.
  bool CheckArg(Cpu& cpu, TaggedPtr ptr, uint32_t n);

  SgxBoundsRuntime* rt_;
  uint64_t violations_ = 0;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SGXBOUNDS_LIBC_H_
