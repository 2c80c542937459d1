#include "src/sgxbounds/libc.h"

#include <cstring>

namespace sgxb {

namespace {

// Fixed wrapper overhead: call, argument extraction, dispatch.
constexpr uint32_t kWrapperCycles = 12;

}  // namespace

bool FortifiedLibc::CheckArg(Cpu& cpu, TaggedPtr ptr, uint32_t n) {
  const uint32_t ub = ExtractUb(ptr);
  if (ub == 0) {
    return true;  // untagged: unbounded by construction
  }
  cpu.Alu(2);
  const uint32_t p = ExtractPtr(ptr);
  const uint32_t lb = rt_->LoadLb(cpu, ub);
  cpu.Alu(2);
  cpu.Branch();
  cpu.CountBoundsCheck();
  if (BoundsViolated(p, lb, ub, n)) {
    ++violations_;
    cpu.CountBoundsViolation();
    return false;
  }
  return true;
}

LibcError FortifiedLibc::Memcpy(Cpu& cpu, TaggedPtr dst, TaggedPtr src, uint32_t n) {
  cpu.Charge(kWrapperCycles);
  if (n == 0) {
    return LibcError::kOk;
  }
  if (!CheckArg(cpu, dst, n) || !CheckArg(cpu, src, n)) {
    return LibcError::kEinval;
  }
  Enclave* e = rt_->enclave();
  const uint32_t s = ExtractPtr(src);
  const uint32_t d = ExtractPtr(dst);
  cpu.MemAccess(s, n, AccessClass::kAppLoad);
  cpu.MemAccess(d, n, AccessClass::kAppStore);
  std::memmove(e->space().HostPtr(d), e->space().HostPtr(s), n);
  return LibcError::kOk;
}

LibcError FortifiedLibc::Memmove(Cpu& cpu, TaggedPtr dst, TaggedPtr src, uint32_t n) {
  return Memcpy(cpu, dst, src, n);
}

LibcError FortifiedLibc::Memset(Cpu& cpu, TaggedPtr dst, uint8_t value, uint32_t n) {
  cpu.Charge(kWrapperCycles);
  if (n == 0) {
    return LibcError::kOk;
  }
  if (!CheckArg(cpu, dst, n)) {
    return LibcError::kEinval;
  }
  Enclave* e = rt_->enclave();
  const uint32_t d = ExtractPtr(dst);
  cpu.MemAccess(d, n, AccessClass::kAppStore);
  std::memset(e->space().HostPtr(d), value, n);
  return LibcError::kOk;
}

LibcError FortifiedLibc::Memcmp(Cpu& cpu, TaggedPtr a, TaggedPtr b, uint32_t n, int* result) {
  cpu.Charge(kWrapperCycles);
  if (n == 0) {
    *result = 0;
    return LibcError::kOk;
  }
  if (!CheckArg(cpu, a, n) || !CheckArg(cpu, b, n)) {
    return LibcError::kEinval;
  }
  Enclave* e = rt_->enclave();
  cpu.MemAccess(ExtractPtr(a), n, AccessClass::kAppLoad);
  cpu.MemAccess(ExtractPtr(b), n, AccessClass::kAppLoad);
  *result = std::memcmp(e->space().HostPtr(ExtractPtr(a)), e->space().HostPtr(ExtractPtr(b)), n);
  return LibcError::kOk;
}

LibcError FortifiedLibc::Strlen(Cpu& cpu, TaggedPtr s, uint32_t* len) {
  cpu.Charge(kWrapperCycles);
  Enclave* e = rt_->enclave();
  const uint32_t p = ExtractPtr(s);
  const uint32_t ub = ExtractUb(s);
  // Scan up to the upper bound; an unterminated string is a bounds error
  // (this is what stops Heartbleed-style over-reads in wrapper code).
  const uint32_t limit = ub != 0 ? ub : p + 64 * 1024;  // untagged: sane cap
  if (ub != 0 && !CheckArg(cpu, s, 1)) {
    return LibcError::kEinval;
  }
  for (uint32_t q = p; q < limit; ++q) {
    cpu.Alu(1);
    if (*e->space().HostPtr(q) == 0) {
      cpu.MemAccess(p, q - p + 1, AccessClass::kAppLoad);
      *len = q - p;
      return LibcError::kOk;
    }
  }
  cpu.MemAccess(p, limit - p, AccessClass::kAppLoad);
  ++violations_;
  cpu.CountBoundsViolation();
  return LibcError::kEinval;
}

LibcError FortifiedLibc::Strcpy(Cpu& cpu, TaggedPtr dst, TaggedPtr src) {
  uint32_t len = 0;
  const LibcError err = Strlen(cpu, src, &len);
  if (err != LibcError::kOk) {
    return err;
  }
  return Memcpy(cpu, dst, src, len + 1);
}

LibcError FortifiedLibc::Strncpy(Cpu& cpu, TaggedPtr dst, TaggedPtr src, uint32_t n) {
  uint32_t len = 0;
  const LibcError err = Strlen(cpu, src, &len);
  if (err != LibcError::kOk) {
    return err;
  }
  const uint32_t copy = len + 1 < n ? len + 1 : n;
  return Memcpy(cpu, dst, src, copy);
}

LibcError FortifiedLibc::Strcmp(Cpu& cpu, TaggedPtr a, TaggedPtr b, int* result) {
  uint32_t la = 0;
  uint32_t lb = 0;
  LibcError err = Strlen(cpu, a, &la);
  if (err != LibcError::kOk) {
    return err;
  }
  err = Strlen(cpu, b, &lb);
  if (err != LibcError::kOk) {
    return err;
  }
  Enclave* e = rt_->enclave();
  *result = std::strcmp(reinterpret_cast<const char*>(e->space().HostPtr(ExtractPtr(a))),
                        reinterpret_cast<const char*>(e->space().HostPtr(ExtractPtr(b))));
  return LibcError::kOk;
}

LibcError FortifiedLibc::Strchr(Cpu& cpu, TaggedPtr s, char c, TaggedPtr* out) {
  uint32_t len = 0;
  const LibcError err = Strlen(cpu, s, &len);
  if (err != LibcError::kOk) {
    return err;
  }
  Enclave* e = rt_->enclave();
  const uint32_t p = ExtractPtr(s);
  for (uint32_t i = 0; i <= len; ++i) {
    cpu.Alu(1);
    if (static_cast<char>(*e->space().HostPtr(p + i)) == c) {
      *out = WithPtr(s, p + i);
      return LibcError::kOk;
    }
  }
  *out = 0;
  return LibcError::kOk;
}

LibcError FortifiedLibc::CopyInString(Cpu& cpu, TaggedPtr dst, const std::string& s) {
  cpu.Charge(kWrapperCycles);
  const uint32_t n = static_cast<uint32_t>(s.size()) + 1;
  if (!CheckArg(cpu, dst, n)) {
    return LibcError::kEinval;
  }
  Enclave* e = rt_->enclave();
  const uint32_t d = ExtractPtr(dst);
  cpu.MemAccess(d, n, AccessClass::kAppStore);
  std::memcpy(e->space().HostPtr(d), s.c_str(), n);
  return LibcError::kOk;
}

LibcError FortifiedLibc::ReadString(Cpu& cpu, TaggedPtr src, std::string* out) {
  uint32_t len = 0;
  const LibcError err = Strlen(cpu, src, &len);
  if (err != LibcError::kOk) {
    return err;
  }
  Enclave* e = rt_->enclave();
  out->assign(reinterpret_cast<const char*>(e->space().HostPtr(ExtractPtr(src))), len);
  return LibcError::kOk;
}

}  // namespace sgxb
