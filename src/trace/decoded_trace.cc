#include "src/trace/decoded_trace.h"

namespace sgxb {

DecodedTrace::DecodedTrace(const Trace& trace)
    : DecodedTrace(trace.header, trace.summary, trace.events.data(),
                   trace.events.data() + trace.events.size()) {}

DecodedTrace::DecodedTrace(const TraceHeader& header, const TraceSummary& summary,
                           const uint8_t* begin, const uint8_t* end)
    : header_(header), summary_(summary) {
  encoded_bytes_ = static_cast<size_t>(end - begin);
  stream_hash_ = summary_.truncated == 0 ? summary_.stream_hash
                                         : FnvUpdate(kFnvOffset, begin, encoded_bytes_);
  // Typical encodings run a few bytes per event; reserving at bytes/2 keeps
  // reallocation off the decode path without overshooting much.
  events_.reserve(encoded_bytes_ / 2 + 16);

  TraceReader reader(begin, end, summary_.cpu_count);
  DecodedEvent ev;
  while (reader.Next(&ev, &payload_)) {
    events_.push_back(ev);
  }
  whole_ = reader.ReadWhole(summary_);
  events_.shrink_to_fit();
  payload_.deltas.shrink_to_fit();
  payload_.phases.shrink_to_fit();
}

}  // namespace sgxb
