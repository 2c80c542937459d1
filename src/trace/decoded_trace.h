// DecodedTrace: the event stream decoded and delta-expanded exactly once.
//
// TraceReader decodes the compact byte stream sequentially, carrying a
// mutable delta context (current cpu, last address, open parallel regions).
// That makes a raw Trace cheap to store but expensive to replay repeatedly:
// every ReplayTrace call re-pays the varint/zigzag decode. A DecodedTrace
// front-loads that cost — one pass through TraceReader materializes a flat,
// absolute-operand DecodedEvent array plus the EventPayload side tables
// (compute deltas, loop-run phases) — and is immutable afterwards, so any
// number of replays, on any number of host threads, can iterate it
// concurrently without re-parsing or synchronization. This is the shared
// substrate of the parallel sweep engine (src/trace/sweep.h).
//
// The decode is the one TraceReader writing straight into these arrays, so
// the decoded event sequence is definitionally what a streaming consumer
// sees: ReplayDecoded(DecodedTrace(t), cfg) == ReplayTrace(t, cfg).

#ifndef SGXBOUNDS_SRC_TRACE_DECODED_TRACE_H_
#define SGXBOUNDS_SRC_TRACE_DECODED_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/trace/trace_format.h"
#include "src/trace/trace_reader.h"

namespace sgxb {

class DecodedTrace {
 public:
  DecodedTrace() = default;

  // Decodes the full retained stream. Truncated prefix traces decode as far
  // as the bytes go, exactly like a streaming reader would.
  explicit DecodedTrace(const Trace& trace);

  // Zero-copy variant: decodes `[begin, end)` (e.g. a MappedTrace's event
  // view) without an intermediate Trace. The bytes are only read during
  // construction; the mapping may be released afterwards.
  DecodedTrace(const TraceHeader& header, const TraceSummary& summary,
               const uint8_t* begin, const uint8_t* end);

  const TraceHeader& header() const { return header_; }
  const TraceSummary& summary() const { return summary_; }
  const std::vector<DecodedEvent>& events() const { return events_; }
  const EventPayload& payload() const { return payload_; }
  const CpuDelta& delta(uint32_t aux) const { return payload_.deltas[aux]; }
  const LoopPhase* phases(uint32_t aux) const { return &payload_.phases[aux]; }

  // FNV-1a of the encoded stream this was decoded from. For complete traces
  // this equals summary().stream_hash; truncated prefixes hash the retained
  // bytes.
  uint64_t stream_hash() const { return stream_hash_; }
  uint64_t event_count() const { return events_.size(); }
  size_t encoded_bytes() const { return encoded_bytes_; }
  // TraceReader::ReadWhole of the decode: false when a complete trace's
  // stream stopped at a corrupt event, short of its kEnd.
  bool whole() const { return whole_; }

 private:
  TraceHeader header_;
  TraceSummary summary_;
  std::vector<DecodedEvent> events_;
  EventPayload payload_;
  uint64_t stream_hash_ = 0;
  size_t encoded_bytes_ = 0;
  bool whole_ = true;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_DECODED_TRACE_H_
