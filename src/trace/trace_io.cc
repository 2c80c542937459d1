#include "src/trace/trace_io.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/sim/machine.h"

namespace sgxb {

namespace {

void Put32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void Put64(std::vector<uint8_t>& out, uint64_t v) {
  Put32(out, static_cast<uint32_t>(v));
  Put32(out, static_cast<uint32_t>(v >> 32));
}

void PutString(std::vector<uint8_t>& out, const std::string& s) {
  Put32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class Cursor {
 public:
  Cursor(const uint8_t* p, const uint8_t* end) : p_(p), end_(end) {}

  bool ok() const { return ok_; }
  const uint8_t* pos() const { return p_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t Get8() {
    if (remaining() < 1) {
      ok_ = false;
      return 0;
    }
    return *p_++;
  }

  uint32_t Get32() {
    if (remaining() < 4) {
      ok_ = false;
      return 0;
    }
    uint32_t v = static_cast<uint32_t>(p_[0]) | static_cast<uint32_t>(p_[1]) << 8 |
                 static_cast<uint32_t>(p_[2]) << 16 | static_cast<uint32_t>(p_[3]) << 24;
    p_ += 4;
    return v;
  }

  uint64_t Get64() {
    const uint64_t lo = Get32();
    const uint64_t hi = Get32();
    return lo | hi << 32;
  }

  std::string GetString() {
    const uint32_t n = Get32();
    if (remaining() < n) {
      ok_ = false;
      return std::string();
    }
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  bool Skip(size_t n) {
    if (remaining() < n) {
      ok_ = false;
      return false;
    }
    p_ += n;
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// Version 1 carries the 13 pre-transition cost fields; version 2 appends the
// four transition fields. v1 files therefore stay byte-identical and load
// with transitions off.
void SerializeCosts(std::vector<uint8_t>& out, const CostModel& c, uint32_t version) {
  const uint32_t fields[] = {c.alu,       c.branch,     c.fp,          c.call,
                             c.l1_hit,    c.l2_hit,     c.l3_hit,      c.dram,
                             c.mee_line,  c.epc_fault,  c.minor_fault, c.syscall_exit,
                             c.syscall_native};
  for (uint32_t f : fields) {
    Put32(out, f);
  }
  if (version >= kTraceVersionTransitions) {
    Put32(out, c.ecall);
    Put32(out, c.ocall);
    Put32(out, c.switchless_ocall);
    Put32(out, c.switchless);
  }
}

void DeserializeCosts(Cursor& in, CostModel* c, uint32_t version) {
  uint32_t* fields[] = {&c->alu,       &c->branch,     &c->fp,          &c->call,
                        &c->l1_hit,    &c->l2_hit,     &c->l3_hit,      &c->dram,
                        &c->mee_line,  &c->epc_fault,  &c->minor_fault, &c->syscall_exit,
                        &c->syscall_native};
  for (uint32_t* f : fields) {
    *f = in.Get32();
  }
  if (version >= kTraceVersionTransitions) {
    c->ecall = in.Get32();
    c->ocall = in.Get32();
    c->switchless_ocall = in.Get32();
    c->switchless = in.Get32();
  } else {
    c->ecall = c->ocall = c->switchless_ocall = c->switchless = 0;
  }
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// Parses a serialized trace image in place. On success *events_off /
// *events_len locate the event blob inside `data`; nothing is copied.
bool ParseTraceImage(const uint8_t* data, size_t size, const std::string& path,
                     TraceHeader* header, TraceSummary* summary, size_t* events_off,
                     size_t* events_len, std::string* error) {
  Cursor in(data, data + size);
  if (in.remaining() < sizeof kTraceMagic ||
      std::memcmp(in.pos(), kTraceMagic, sizeof kTraceMagic) != 0) {
    return Fail(error, "not a .sgxtrace file (bad magic): " + path);
  }
  in.Skip(sizeof kTraceMagic);

  TraceHeader& h = *header;
  h = TraceHeader{};
  h.version = in.Get32();
  if (h.version != kTraceVersion && h.version != kTraceVersionTransitions) {
    return Fail(error, "unsupported trace version " + std::to_string(h.version) +
                           " (expected " + std::to_string(kTraceVersion) + " or " +
                           std::to_string(kTraceVersionTransitions) + ")");
  }
  h.policy = in.Get8();
  h.sim.enclave_mode = in.Get8() != 0;
  h.threads = in.Get32();
  h.seed = in.Get64();
  h.space_bytes = in.Get64();
  h.heap_reserve = in.Get64();
  h.sim.l1_bytes = in.Get64();
  h.sim.l1_ways = in.Get32();
  h.sim.l2_bytes = in.Get64();
  h.sim.l2_ways = in.Get32();
  h.sim.l3_bytes = in.Get64();
  h.sim.l3_ways = in.Get32();
  h.sim.epc_bytes = in.Get64();
  DeserializeCosts(in, &h.sim.costs, h.version);
  h.cost_table_id = in.Get64();
  h.workload = in.GetString();
  h.note = in.GetString();

  const uint64_t nbytes = in.Get64();
  if (!in.ok() || in.remaining() < nbytes) {
    return Fail(error, "truncated trace file: " + path);
  }
  // The header's machine is rebuilt on replay; reject one the cache and EPC
  // models would abort on (or allocate gigabytes for).
  std::string config_error;
  if (!ValidateSimConfig(h.sim, &config_error)) {
    return Fail(error, "bad machine config in trace header (" + config_error + "): " + path);
  }
  *events_off = static_cast<size_t>(in.pos() - data);
  *events_len = static_cast<size_t>(nbytes);
  in.Skip(static_cast<size_t>(nbytes));

  TraceSummary& s = *summary;
  s = TraceSummary{};
  s.event_count = in.Get64();
  s.stream_hash = in.Get64();
  s.cpu_count = in.Get32();
  s.truncated = in.Get8();
  s.crashed = in.Get8();
  s.trap_kind = in.Get8();
  s.live_cycles = in.Get64();
  s.peak_vm_bytes = in.Get64();
  s.mpx_bt_count = in.Get32();
  s.trap_message = in.GetString();
  const uint32_t footer = in.Get32();
  if (!in.ok() || footer != kTraceFooterMagic) {
    return Fail(error, "corrupt trace file (bad footer): " + path);
  }
  if (s.cpu_count > kMaxReplayCpuBytes / CpuFootprintBytes(h.sim)) {
    return Fail(error, "cpu_count " + std::to_string(s.cpu_count) +
                           " in trace summary: its Cpus would hold more than " +
                           std::to_string(kMaxReplayCpuBytes / kMiB) + " MiB: " + path);
  }

  // Integrity: for complete traces the retained bytes are the whole stream,
  // so their hash must match the summary. Truncated prefixes carry the
  // full-stream hash, which the prefix cannot reproduce; skip those.
  if (s.truncated == 0) {
    const uint64_t hash = FnvUpdate(kFnvOffset, data + *events_off, *events_len);
    if (hash != s.stream_hash) {
      return Fail(error, "trace stream hash mismatch (corrupt events): " + path);
    }
  }
  return true;
}

}  // namespace

bool SaveTrace(const Trace& trace, const std::string& path, std::string* error) {
  std::vector<uint8_t> out;
  out.reserve(trace.events.size() + 512);
  out.insert(out.end(), kTraceMagic, kTraceMagic + sizeof kTraceMagic);
  Put32(out, trace.header.version);

  const TraceHeader& h = trace.header;
  out.push_back(h.policy);
  out.push_back(h.sim.enclave_mode ? 1 : 0);
  Put32(out, h.threads);
  Put64(out, h.seed);
  Put64(out, h.space_bytes);
  Put64(out, h.heap_reserve);
  Put64(out, h.sim.l1_bytes);
  Put32(out, h.sim.l1_ways);
  Put64(out, h.sim.l2_bytes);
  Put32(out, h.sim.l2_ways);
  Put64(out, h.sim.l3_bytes);
  Put32(out, h.sim.l3_ways);
  Put64(out, h.sim.epc_bytes);
  SerializeCosts(out, h.sim.costs, trace.header.version);
  Put64(out, h.cost_table_id);
  PutString(out, h.workload);
  PutString(out, h.note);

  Put64(out, trace.events.size());
  out.insert(out.end(), trace.events.begin(), trace.events.end());

  const TraceSummary& s = trace.summary;
  Put64(out, s.event_count);
  Put64(out, s.stream_hash);
  Put32(out, s.cpu_count);
  out.push_back(s.truncated);
  out.push_back(s.crashed);
  out.push_back(s.trap_kind);
  Put64(out, s.live_cycles);
  Put64(out, s.peak_vm_bytes);
  Put32(out, s.mpx_bt_count);
  PutString(out, s.trap_message);
  Put32(out, kTraceFooterMagic);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Fail(error, "cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != out.size() || !closed) {
    return Fail(error, "short write: " + path);
  }
  return true;
}

bool LoadTrace(const std::string& path, Trace* trace, std::string* error) {
  MappedTrace mapped;
  if (!mapped.Load(path, error)) {
    return false;
  }
  trace->header = mapped.header();
  trace->summary = mapped.summary();
  trace->events.assign(mapped.events_begin(), mapped.events_end());
  return true;
}

MappedTrace::~MappedTrace() { Unmap(); }

void MappedTrace::Unmap() {
  if (map_base_ != nullptr) {
    munmap(map_base_, map_size_);
  }
  map_base_ = nullptr;
  map_size_ = 0;
  events_begin_ = nullptr;
  events_size_ = 0;
}

bool MappedTrace::Load(const std::string& path, std::string* error) {
  Unmap();
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Fail(error, "cannot open: " + path);
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    close(fd);
    return Fail(error, "cannot stat: " + path);
  }
  map_size_ = static_cast<size_t>(st.st_size);
  if (map_size_ > 0) {
    map_base_ = mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map_base_ == MAP_FAILED) {
      map_base_ = nullptr;
      close(fd);
      return Fail(error, "mmap failed: " + path);
    }
  }
  close(fd);
  const uint8_t* data = static_cast<const uint8_t*>(map_base_);

  size_t events_off = 0, events_len = 0;
  if (!ParseTraceImage(data, map_size_, path, &header_, &summary_, &events_off, &events_len,
                       error)) {
    Unmap();
    return false;
  }
  events_begin_ = data + events_off;
  events_size_ = events_len;
  return true;
}

}  // namespace sgxb
