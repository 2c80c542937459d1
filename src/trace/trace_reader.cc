#include "src/trace/trace_reader.h"

#include <cinttypes>
#include <cstdio>

namespace sgxb {

namespace {

// True when [addr, addr + size) wraps past the top of the 32-bit address
// space: no live run can produce one (the top guard page traps first), so
// such an event marks a corrupt or hand-crafted stream.
bool WrapsAddressSpace(uint32_t addr, uint32_t size) {
  return static_cast<uint64_t>(addr) + size > (uint64_t{1} << 32);
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

bool TraceEvent::operator==(const TraceEvent& other) const {
  if (kind != other.kind || sub != other.sub || klass != other.klass ||
      cpu != other.cpu || addr != other.addr || size != other.size ||
      stride != other.stride || count != other.count || page != other.page ||
      value != other.value || period != other.period) {
    return false;
  }
  for (uint32_t j = 0; j < period && j < kMaxLoopPeriod; ++j) {
    if (!(phases[j] == other.phases[j])) {
      return false;
    }
  }
  return delta.alu == other.delta.alu && delta.branches == other.delta.branches &&
         delta.fp == other.delta.fp && delta.calls == other.delta.calls &&
         delta.syscalls == other.delta.syscalls &&
         delta.bounds_checks == other.delta.bounds_checks &&
         delta.bounds_violations == other.delta.bounds_violations &&
         delta.raw_cycles == other.delta.raw_cycles;
}

std::string FormatTraceEvent(const TraceEvent& ev) {
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
    case TraceEventKind::kCpuDelta:
      std::snprintf(buf, sizeof buf,
                    "cpu-delta cpu=%u alu=%" PRIu64 " br=%" PRIu64 " fp=%" PRIu64
                    " call=%" PRIu64 " sys=%" PRIu64 " bc=%" PRIu64 " bv=%" PRIu64
                    " raw=%" PRIu64,
                    ev.cpu, ev.delta.alu, ev.delta.branches, ev.delta.fp, ev.delta.calls,
                    ev.delta.syscalls, ev.delta.bounds_checks, ev.delta.bounds_violations,
                    ev.delta.raw_cycles);
      break;
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
          for (uint32_t j = 0; j < ev.period && j < kMaxLoopPeriod; ++j) {
            const LoopPhase& ph = ev.phases[j];
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

bool TraceReader::Next(TraceEvent* ev) {
  if (saw_end_ || p_ >= end_) {
    return false;
  }
  const uint8_t b0 = *p_++;
  const TraceEventKind kind = static_cast<TraceEventKind>(b0 & 7u);
  *ev = TraceEvent{};
  ev->kind = kind;
  ev->cpu = current_cpu_;
  switch (kind) {
    case TraceEventKind::kAccess:
    case TraceEventKind::kAccessRun: {
      ev->klass = (b0 >> 3) & 3u;
      const uint8_t tag = b0 >> 5;
      const int64_t delta = UnZigZag(GetVarint(&p_, end_));
      ev->addr = static_cast<uint32_t>(static_cast<int64_t>(last_addr_) + delta);
      if (kind == TraceEventKind::kAccessRun) {
        ev->stride = UnZigZag(GetVarint(&p_, end_));
        ev->count = GetVarint(&p_, end_);
      } else {
        ev->count = 1;
      }
      ev->size = tag == 0 ? static_cast<uint32_t>(GetVarint(&p_, end_)) : SizeOfTag(tag);
      if (kind == TraceEventKind::kAccess && WrapsAddressSpace(ev->addr, ev->size)) {
        return false;  // corrupt stream
      }
      last_addr_ = static_cast<uint32_t>(
          static_cast<int64_t>(ev->addr) +
          ev->stride * static_cast<int64_t>(ev->count - 1));
      break;
    }
    case TraceEventKind::kCpuDelta: {
      if (p_ >= end_) {
        return false;
      }
      const uint8_t mask = *p_++;
      uint64_t* fields[8] = {&ev->delta.alu,
                             &ev->delta.branches,
                             &ev->delta.fp,
                             &ev->delta.calls,
                             &ev->delta.syscalls,
                             &ev->delta.bounds_checks,
                             &ev->delta.bounds_violations,
                             &ev->delta.raw_cycles};
      for (int i = 0; i < 8; ++i) {
        if (mask & (1u << i)) {
          *fields[i] = GetVarint(&p_, end_);
        }
      }
      break;
    }
    case TraceEventKind::kCommit:
    case TraceEventKind::kDecommit: {
      const int64_t delta = UnZigZag(GetVarint(&p_, end_));
      ev->page = static_cast<uint32_t>(static_cast<int64_t>(last_page_) + delta);
      ev->count = GetVarint(&p_, end_);
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
          ev->cpu = static_cast<uint32_t>(GetVarint(&p_, end_));
          current_cpu_ = ev->cpu;
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
          ev->addr = static_cast<uint32_t>(static_cast<int64_t>(last_addr_) +
                                           UnZigZag(GetVarint(&p_, end_)));
          ev->size = static_cast<uint32_t>(GetVarint(&p_, end_));
          last_addr_ = ev->addr;
          break;
        case MarkerSub::kFree:
          ev->addr = static_cast<uint32_t>(static_cast<int64_t>(last_addr_) +
                                           UnZigZag(GetVarint(&p_, end_)));
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
          ev->cpu = static_cast<uint32_t>(GetVarint(&p_, end_));
          current_cpu_ = ev->cpu;
          break;
        case ControlSub::kLoopRun: {
          ev->period = static_cast<uint32_t>(GetVarint(&p_, end_));
          ev->count = GetVarint(&p_, end_);  // iterations
          if (ev->period == 0 || ev->period > kMaxLoopPeriod) {
            return false;  // corrupt stream
          }
          uint32_t prev = last_addr_;
          for (uint32_t j = 0; j < ev->period; ++j) {
            LoopPhase& ph = ev->phases[j];
            if (p_ >= end_) {
              return false;
            }
            const uint8_t pb = *p_++;
            ph.klass = pb & 3u;
            const uint8_t tag = (pb >> 2) & 7u;
            ph.addr = static_cast<uint32_t>(static_cast<int64_t>(prev) +
                                            UnZigZag(GetVarint(&p_, end_)));
            ph.iter_delta = UnZigZag(GetVarint(&p_, end_));
            if ((pb >> 5) & 1u) {
              ph.stride = UnZigZag(GetVarint(&p_, end_));
              ph.count = GetVarint(&p_, end_);
            } else {
              ph.stride = 0;
              ph.count = 1;
            }
            ph.size = tag == 0 ? static_cast<uint32_t>(GetVarint(&p_, end_))
                               : SizeOfTag(tag);
            if (WrapsAddressSpace(ph.addr, ph.size)) {
              return false;  // corrupt stream
            }
            prev = ph.addr;
          }
          const LoopPhase& lastp = ev->phases[ev->period - 1];
          last_addr_ = static_cast<uint32_t>(
              static_cast<int64_t>(lastp.addr) +
              lastp.iter_delta * static_cast<int64_t>(ev->count - 1) +
              lastp.stride * static_cast<int64_t>(lastp.count - 1));
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
