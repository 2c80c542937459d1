// TraceReader: sequential decoder for the event stream in trace_format.h.
//
// The reader mirrors the encoder's delta context (current cpu, last address,
// last page, open parallel regions) so the same compact bytes decode to the
// same absolute events. Used by DecodedTrace (and so the replay engine),
// trace_tool and the golden-trace tests; there is exactly one decoder
// implementation so encoder and consumers cannot drift apart.

#ifndef SGXBOUNDS_SRC_TRACE_TRACE_READER_H_
#define SGXBOUNDS_SRC_TRACE_TRACE_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/trace_format.h"

namespace sgxb {

// One phase of a kLoopRun event: a single access (count 1) or an embedded
// constant-stride run, whose base address advances by iter_delta every loop
// iteration.
struct LoopPhase {
  uint8_t klass = 0;
  uint32_t size = 0;
  uint32_t addr = 0;       // iteration-0 address
  int64_t iter_delta = 0;  // per-iteration address step
  int64_t stride = 0;      // intra-run stride
  uint64_t count = 1;      // intra-run access count

  bool operator==(const LoopPhase&) const = default;
};

// One decoded event, with absolute operands, in 48 bytes: the two payloads
// that would bloat every event (a CpuDelta: 64 bytes, a loop run's phases:
// up to 320) live in the side tables of an EventPayload, indexed by `aux`,
// so a multi-million-event trace decodes to a few tens of MB.
struct DecodedEvent {
  TraceEventKind kind = TraceEventKind::kControl;
  uint8_t sub = 0;     // ParallelSub / MarkerSub / ControlSub
  uint8_t klass = 0;   // AccessClass for (run) accesses
  uint8_t period = 0;  // kLoopRun phase count
  uint32_t cpu = 0;    // cpu the event applies to (post-switch semantics)
  uint32_t addr = 0;   // accesses, runs, alloc/free markers
  uint32_t size = 0;   // access size / alloc size
  uint32_t page = 0;   // kCommit / kDecommit first page
  uint32_t aux = 0;    // kCpuDelta: index into deltas; kLoopRun: first phase
  int64_t stride = 0;  // kAccessRun
  uint64_t count = 0;  // kAccessRun / kCommit / kDecommit / kEcall; kLoopRun iters
  uint64_t value = 0;  // nthreads (begin) / spawn cycles (end) / epoch id
};

// The side tables a DecodedEvent's `aux` indexes.
struct EventPayload {
  std::vector<CpuDelta> deltas;   // one per kCpuDelta event
  std::vector<LoopPhase> phases;  // `period` per kLoopRun event

  void clear() {
    deltas.clear();
    phases.clear();
  }
};

// Human-readable one-line rendering (diff/info output).
std::string FormatTraceEvent(const DecodedEvent& ev, const EventPayload& payload);

// True when two events are the same event, payload included (`aux` is a
// table position, not part of the event).
bool SameTraceEvent(const DecodedEvent& a, const EventPayload& a_payload,
                    const DecodedEvent& b, const EventPayload& b_payload);

// The error for a complete trace whose stream stopped at a corrupt event
// after `decoded` events, short of its kEnd (TraceReader::ReadWhole false).
std::string CorruptStreamMessage(const std::string& path, uint64_t decoded,
                                 const TraceSummary& summary);

class TraceReader {
 public:
  explicit TraceReader(const Trace& trace)
      : TraceReader(trace.events.data(), trace.events.data() + trace.events.size(),
                    trace.summary.cpu_count) {}
  // `cpu_count` is the trace summary's: no event may name a cpu at or past it.
  TraceReader(const uint8_t* begin, const uint8_t* end, uint32_t cpu_count)
      : p_(begin), begin_(begin), end_(end), cpu_count_(cpu_count) {}

  // Decodes the next event into *ev and appends its payload (a kCpuDelta's
  // delta, a kLoopRun's phases) to *payload, at the index ev->aux records.
  // Returns false at end-of-stream (after the kControl/kEnd event or when
  // the buffer is exhausted, e.g. for truncated prefix traces) and at a
  // corrupt event, which no live run records and whose replay would
  // allocate without bound or abort:
  //   - a cpu id more than one past the highest seen so far (a run
  //     registers each worker cpu just before it begins), or at or past the
  //     summary's cpu count;
  //   - a commit or decommit range leaving the 2^20-page space;
  //   - an access, an access run's first or last element, or a loop phase's
  //     run (at least its one access) at its first or last iteration, whose
  //     bytes leave [0, 4 GiB).
  bool Next(DecodedEvent* ev, EventPayload* payload);

  // Once Next() has returned false: true when the reader has read all the
  // stream a trace with `summary` promises. For a complete trace that is its
  // kEnd event, after exactly summary.event_count events; a stream that
  // stops short holds a corrupt event, and its replay would total a shorter
  // run. A truncated prefix has no kEnd to reach and always passes.
  bool ReadWhole(const TraceSummary& summary) const {
    return summary.truncated != 0 || (saw_end_ && position_ == summary.event_count);
  }

  // Events decoded so far.
  uint64_t position() const { return position_; }
  // Encoded bytes consumed so far (per-kind size attribution in trace_tool
  // info and decode accounting in DecodedTrace).
  size_t byte_offset() const { return static_cast<size_t>(p_ - begin_); }
  // True once the explicit end-of-stream event has been consumed.
  bool saw_end() const { return saw_end_; }

 private:
  const uint8_t* p_;
  const uint8_t* begin_;
  const uint8_t* end_;
  uint32_t cpu_count_;
  uint64_t position_ = 0;
  bool saw_end_ = false;

  // Decoder context, mirroring the encoder.
  uint32_t current_cpu_ = 0;
  uint32_t max_cpu_ = 0;  // highest cpu id seen so far
  uint32_t last_addr_ = 0;
  uint32_t last_page_ = 0;
  std::vector<uint32_t> parallel_callers_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_TRACE_READER_H_
