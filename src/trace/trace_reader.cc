#include "src/trace/trace_reader.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/units.h"

namespace sgxb {

namespace {

constexpr int64_t kAddressSpace = int64_t{1} << 32;
constexpr uint32_t kPageSpace = static_cast<uint32_t>(kAddressSpace / kPageSize);

// True when `count` accesses of `size` bytes, the first at `first` and the
// rest `stride` bytes apart, all lie inside [0, 4 GiB). The elements are
// evenly spaced, so checking the first and the last covers them all. A count
// below 2 checks the access at `first`: replay makes one access of a loop
// phase whose run is that short. No live run can produce a wrapping access
// (the top guard page traps first), so one marks a corrupt or hand-crafted
// stream; replayed, it would walk every cache line of the address space.
bool RunInAddressSpace(__int128 first, int64_t stride, uint64_t count, uint32_t size) {
  const auto in_space = [size](__int128 addr) {
    return addr >= 0 && addr < kAddressSpace && addr + size <= kAddressSpace;
  };
  const uint64_t last = count < 2 ? 0 : count - 1;
  return in_space(first) &&
         in_space(first + static_cast<__int128>(stride) * static_cast<__int128>(last));
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAccess: return "access";
    case TraceEventKind::kAccessRun: return "access-run";
    case TraceEventKind::kCpuDelta: return "cpu-delta";
    case TraceEventKind::kCommit: return "commit";
    case TraceEventKind::kDecommit: return "decommit";
    case TraceEventKind::kParallel: return "parallel";
    case TraceEventKind::kMarker: return "marker";
    case TraceEventKind::kControl: return "control";
  }
  return "?";
}

bool SameTraceEvent(const DecodedEvent& a, const EventPayload& a_payload,
                    const DecodedEvent& b, const EventPayload& b_payload) {
  if (a.kind != b.kind || a.sub != b.sub || a.klass != b.klass || a.period != b.period ||
      a.cpu != b.cpu || a.addr != b.addr || a.size != b.size || a.page != b.page ||
      a.stride != b.stride || a.count != b.count || a.value != b.value) {
    return false;
  }
  if (a.kind == TraceEventKind::kCpuDelta) {
    return a_payload.deltas[a.aux] == b_payload.deltas[b.aux];
  }
  for (uint32_t j = 0; j < a.period; ++j) {
    if (!(a_payload.phases[a.aux + j] == b_payload.phases[b.aux + j])) {
      return false;
    }
  }
  return true;
}

std::string FormatTraceEvent(const DecodedEvent& ev, const EventPayload& payload) {
  static const char* kClassNames[4] = {"app-load", "app-store", "meta-load",
                                       "meta-store"};
  char buf[256];
  switch (ev.kind) {
    case TraceEventKind::kAccess:
      std::snprintf(buf, sizeof buf, "access cpu=%u %s addr=0x%08x size=%u", ev.cpu,
                    kClassNames[ev.klass & 3], ev.addr, ev.size);
      break;
    case TraceEventKind::kAccessRun:
      std::snprintf(buf, sizeof buf,
                    "access-run cpu=%u %s addr=0x%08x size=%u stride=%" PRId64
                    " count=%" PRIu64,
                    ev.cpu, kClassNames[ev.klass & 3], ev.addr, ev.size, ev.stride,
                    ev.count);
      break;
    case TraceEventKind::kCpuDelta: {
      const CpuDelta& d = payload.deltas[ev.aux];
      std::snprintf(buf, sizeof buf,
                    "cpu-delta cpu=%u alu=%" PRIu64 " br=%" PRIu64 " fp=%" PRIu64
                    " call=%" PRIu64 " sys=%" PRIu64 " bc=%" PRIu64 " bv=%" PRIu64
                    " raw=%" PRIu64,
                    ev.cpu, d.alu, d.branches, d.fp, d.calls, d.syscalls, d.bounds_checks,
                    d.bounds_violations, d.raw_cycles);
      break;
    }
    case TraceEventKind::kCommit:
      std::snprintf(buf, sizeof buf, "commit cpu=%u page=%u count=%" PRIu64, ev.cpu,
                    ev.page, ev.count);
      break;
    case TraceEventKind::kDecommit:
      std::snprintf(buf, sizeof buf, "decommit page=%u count=%" PRIu64, ev.page,
                    ev.count);
      break;
    case TraceEventKind::kParallel:
      switch (static_cast<ParallelSub>(ev.sub)) {
        case ParallelSub::kBegin:
          std::snprintf(buf, sizeof buf, "parallel-begin caller=%u nthreads=%" PRIu64,
                        ev.cpu, ev.value);
          break;
        case ParallelSub::kWorkerBegin:
          std::snprintf(buf, sizeof buf, "worker-begin cpu=%u", ev.cpu);
          break;
        case ParallelSub::kWorkerEnd:
          std::snprintf(buf, sizeof buf, "worker-end cpu=%u", ev.cpu);
          break;
        case ParallelSub::kEnd:
          std::snprintf(buf, sizeof buf,
                        "parallel-end caller=%u spawn_cycles=%" PRIu64, ev.cpu, ev.value);
          break;
      }
      break;
    case TraceEventKind::kMarker:
      switch (static_cast<MarkerSub>(ev.sub)) {
        case MarkerSub::kAlloc:
          std::snprintf(buf, sizeof buf, "alloc cpu=%u addr=0x%08x size=%u", ev.cpu,
                        ev.addr, ev.size);
          break;
        case MarkerSub::kFree:
          std::snprintf(buf, sizeof buf, "free cpu=%u addr=0x%08x", ev.cpu, ev.addr);
          break;
        case MarkerSub::kEpoch:
          std::snprintf(buf, sizeof buf, "epoch cpu=%u id=%" PRIu64, ev.cpu, ev.value);
          break;
      }
      break;
    case TraceEventKind::kControl:
      switch (static_cast<ControlSub>(ev.sub)) {
        case ControlSub::kEnd:
          std::snprintf(buf, sizeof buf, "end");
          break;
        case ControlSub::kSwitchCpu:
          std::snprintf(buf, sizeof buf, "switch-cpu cpu=%u", ev.cpu);
          break;
        case ControlSub::kLoopRun: {
          std::string out;
          std::snprintf(buf, sizeof buf, "loop-run cpu=%u period=%u iters=%" PRIu64,
                        ev.cpu, ev.period, ev.count);
          out = buf;
          for (uint32_t j = 0; j < ev.period; ++j) {
            const LoopPhase& ph = payload.phases[ev.aux + j];
            std::snprintf(buf, sizeof buf,
                          " [%s addr=0x%08x size=%u step=%" PRId64 " stride=%" PRId64
                          " count=%" PRIu64 "]",
                          kClassNames[ph.klass & 3], ph.addr, ph.size, ph.iter_delta,
                          ph.stride, ph.count);
            out += buf;
          }
          return out;
        }
        case ControlSub::kEcall:
          std::snprintf(buf, sizeof buf, "ecall cpu=%u count=%" PRIu64, ev.cpu, ev.count);
          break;
        default:
          std::snprintf(buf, sizeof buf, "control sub=%u", ev.sub);
          break;
      }
      break;
  }
  return buf;
}

std::string CorruptStreamMessage(const std::string& path, uint64_t decoded,
                                 const TraceSummary& summary) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "corrupt event stream: decoding stopped after %" PRIu64 " of %" PRIu64
                " events, before the end marker: ",
                decoded, summary.event_count);
  return buf + path;
}

bool TraceReader::Next(DecodedEvent* ev, EventPayload* payload) {
  if (saw_end_ || p_ >= end_) {
    return false;
  }
  const uint8_t b0 = *p_++;
  const TraceEventKind kind = static_cast<TraceEventKind>(b0 & 7u);
  *ev = DecodedEvent{};
  ev->kind = kind;
  ev->cpu = current_cpu_;
  // Makes `id` the current cpu; false when the id skips ahead or reaches the
  // summary's cpu count.
  const auto enter_cpu = [this, ev](uint64_t id) {
    if (id > uint64_t{max_cpu_} + 1 || id >= cpu_count_) {
      return false;
    }
    ev->cpu = static_cast<uint32_t>(id);
    current_cpu_ = ev->cpu;
    max_cpu_ = std::max(max_cpu_, ev->cpu);
    return true;
  };
  // Address and page arithmetic wraps as uint32 / uint64, as the encoder's
  // deltas do; corrupt operands may not overflow a signed type.
  switch (kind) {
    case TraceEventKind::kAccess:
    case TraceEventKind::kAccessRun: {
      ev->klass = (b0 >> 3) & 3u;
      const uint8_t tag = b0 >> 5;
      ev->addr = last_addr_ + static_cast<uint32_t>(UnZigZag(GetVarint(&p_, end_)));
      if (kind == TraceEventKind::kAccessRun) {
        ev->stride = UnZigZag(GetVarint(&p_, end_));
        ev->count = GetVarint(&p_, end_);
      } else {
        ev->count = 1;
      }
      ev->size = tag == 0 ? static_cast<uint32_t>(GetVarint(&p_, end_)) : SizeOfTag(tag);
      if (!RunInAddressSpace(ev->addr, ev->stride, ev->count, ev->size)) {
        return false;  // corrupt stream
      }
      last_addr_ = static_cast<uint32_t>(ev->addr +
                                         static_cast<uint64_t>(ev->stride) * (ev->count - 1));
      break;
    }
    case TraceEventKind::kCpuDelta: {
      if (p_ >= end_) {
        return false;
      }
      const uint8_t mask = *p_++;
      CpuDelta d;
      uint64_t* fields[8] = {&d.alu,           &d.branches,         &d.fp,
                             &d.calls,         &d.syscalls,         &d.bounds_checks,
                             &d.bounds_violations, &d.raw_cycles};
      for (int i = 0; i < 8; ++i) {
        if (mask & (1u << i)) {
          *fields[i] = GetVarint(&p_, end_);
        }
      }
      ev->aux = static_cast<uint32_t>(payload->deltas.size());
      payload->deltas.push_back(d);
      break;
    }
    case TraceEventKind::kCommit:
    case TraceEventKind::kDecommit: {
      ev->page = last_page_ + static_cast<uint32_t>(UnZigZag(GetVarint(&p_, end_)));
      ev->count = GetVarint(&p_, end_);
      if (ev->page > kPageSpace || ev->count > kPageSpace - ev->page) {
        return false;  // corrupt stream: pages past 4 GiB
      }
      last_page_ = static_cast<uint32_t>(ev->page + ev->count - 1);
      break;
    }
    case TraceEventKind::kParallel: {
      ev->sub = (b0 >> 3) & 3u;
      switch (static_cast<ParallelSub>(ev->sub)) {
        case ParallelSub::kBegin:
          ev->value = GetVarint(&p_, end_);
          parallel_callers_.push_back(current_cpu_);
          break;
        case ParallelSub::kWorkerBegin:
          if (!enter_cpu(GetVarint(&p_, end_))) {
            return false;  // corrupt stream
          }
          break;
        case ParallelSub::kWorkerEnd:
          break;
        case ParallelSub::kEnd:
          ev->value = GetVarint(&p_, end_);
          if (!parallel_callers_.empty()) {
            current_cpu_ = parallel_callers_.back();
            parallel_callers_.pop_back();
          }
          ev->cpu = current_cpu_;
          break;
      }
      break;
    }
    case TraceEventKind::kMarker: {
      ev->sub = (b0 >> 3) & 3u;
      switch (static_cast<MarkerSub>(ev->sub)) {
        case MarkerSub::kAlloc:
          ev->addr = last_addr_ + static_cast<uint32_t>(UnZigZag(GetVarint(&p_, end_)));
          ev->size = static_cast<uint32_t>(GetVarint(&p_, end_));
          last_addr_ = ev->addr;
          break;
        case MarkerSub::kFree:
          ev->addr = last_addr_ + static_cast<uint32_t>(UnZigZag(GetVarint(&p_, end_)));
          last_addr_ = ev->addr;
          break;
        case MarkerSub::kEpoch:
          ev->value = GetVarint(&p_, end_);
          break;
      }
      break;
    }
    case TraceEventKind::kControl: {
      ev->sub = b0 >> 3;
      switch (static_cast<ControlSub>(ev->sub)) {
        case ControlSub::kEnd:
          saw_end_ = true;
          break;
        case ControlSub::kSwitchCpu:
          if (!enter_cpu(GetVarint(&p_, end_))) {
            return false;  // corrupt stream
          }
          break;
        case ControlSub::kLoopRun: {
          const uint64_t period = GetVarint(&p_, end_);
          ev->count = GetVarint(&p_, end_);  // iterations
          if (period == 0 || period > kMaxLoopPeriod) {
            return false;  // corrupt stream
          }
          ev->period = static_cast<uint8_t>(period);
          ev->aux = static_cast<uint32_t>(payload->phases.size());
          const uint64_t last_iter = ev->count == 0 ? 0 : ev->count - 1;
          uint32_t prev = last_addr_;
          for (uint32_t j = 0; j < ev->period; ++j) {
            if (p_ >= end_) {
              payload->phases.resize(ev->aux);
              return false;
            }
            LoopPhase ph;
            const uint8_t pb = *p_++;
            ph.klass = pb & 3u;
            const uint8_t tag = (pb >> 2) & 7u;
            ph.addr = prev + static_cast<uint32_t>(UnZigZag(GetVarint(&p_, end_)));
            ph.iter_delta = UnZigZag(GetVarint(&p_, end_));
            if ((pb >> 5) & 1u) {
              ph.stride = UnZigZag(GetVarint(&p_, end_));
              ph.count = GetVarint(&p_, end_);
            }
            ph.size = tag == 0 ? static_cast<uint32_t>(GetVarint(&p_, end_))
                               : SizeOfTag(tag);
            const __int128 last_base =
                ph.addr + static_cast<__int128>(ph.iter_delta) * static_cast<__int128>(last_iter);
            if (!RunInAddressSpace(ph.addr, ph.stride, ph.count, ph.size) ||
                !RunInAddressSpace(last_base, ph.stride, ph.count, ph.size)) {
              payload->phases.resize(ev->aux);
              return false;  // corrupt stream
            }
            payload->phases.push_back(ph);
            prev = ph.addr;
          }
          const LoopPhase& lastp = payload->phases.back();
          last_addr_ = static_cast<uint32_t>(
              lastp.addr + static_cast<uint64_t>(lastp.iter_delta) * (ev->count - 1) +
              static_cast<uint64_t>(lastp.stride) * (lastp.count - 1));
          break;
        }
        case ControlSub::kEcall:
          ev->count = GetVarint(&p_, end_);
          break;
      }
      break;
    }
  }
  ++position_;
  return true;
}

}  // namespace sgxb
