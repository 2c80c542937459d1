// .sgxtrace file save/load.
//
// Layout: magic, version, serialized header, event-byte blob, serialized
// summary, footer magic. All integers little-endian fixed width; strings are
// u32 length + bytes. Load verifies magic/version/footer, checks the header's
// machine config with ValidateSimConfig, and re-hashes the retained event
// bytes against the summary (full-stream hash for complete traces, prefix
// consistency left to the caller for truncated ones), and bounds the
// summary's cpu count (kMaxReplayCpuBytes).

#ifndef SGXBOUNDS_SRC_TRACE_TRACE_IO_H_
#define SGXBOUNDS_SRC_TRACE_TRACE_IO_H_

#include <cstddef>
#include <string>

#include "src/trace/trace_format.h"

namespace sgxb {

// The most memory a trace's replay may spend on Cpus (CpuFootprintBytes
// each, one per cpu id below the summary's cpu_count). The summary is not
// covered by the stream hash, so a file can claim any count; load rejects
// one whose Cpus would not fit. A live run's cpu count is 1 plus the threads
// of each parallel region, a few hundred at most.
inline constexpr uint64_t kMaxReplayCpuBytes = uint64_t{1} << 30;

// Returns true on success; on failure fills *error. LoadTrace loads through
// MappedTrace and copies the event view into trace->events.
bool SaveTrace(const Trace& trace, const std::string& path, std::string* error);
bool LoadTrace(const std::string& path, Trace* trace, std::string* error);

// Zero-copy load: maps the file read-only and parses header/summary in
// place; the event bytes stay a view into the mapping instead of a heap
// copy, so a multi-GB trace opens in microseconds and the pages fault in
// lazily as the decoder walks them (integrity hashing still touches them
// all once). The view is valid for the lifetime of this object; feed it
// straight to DecodedTrace, which reads the bytes exactly once.
class MappedTrace {
 public:
  MappedTrace() = default;
  ~MappedTrace();
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  // Loads `path`; on failure fills *error and leaves the object empty.
  bool Load(const std::string& path, std::string* error);

  bool loaded() const { return events_begin_ != nullptr; }
  const TraceHeader& header() const { return header_; }
  const TraceSummary& summary() const { return summary_; }
  const uint8_t* events_begin() const { return events_begin_; }
  const uint8_t* events_end() const { return events_begin_ + events_size_; }
  size_t events_size() const { return events_size_; }

 private:
  void Unmap();

  TraceHeader header_;
  TraceSummary summary_;
  const uint8_t* events_begin_ = nullptr;
  size_t events_size_ = 0;
  void* map_base_ = nullptr;  // null for an empty file
  size_t map_size_ = 0;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_TRACE_IO_H_
