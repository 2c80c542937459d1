// In-memory span recorder for the host benchmark's traced runs.
//
// A span is one timed call into a layer of the simulator, recorded from the
// benchmark's own code (nothing under src/ is instrumented): its name, wall
// start/end, the thread CPU it consumed, the span that was open around it,
// and the job it belongs to. Spans stay in memory until the run ends, then
// go out as one JSON file together with each name's self time - the span's
// duration minus the part of it its children cover.
//
// Recording is off unless Enable(true) was called; a disabled recorder hands
// out inert scopes that read no clock, so untraced runs pay one branch per
// call site.

#ifndef SGXBOUNDS_HOSTBENCH_SPANS_H_
#define SGXBOUNDS_HOSTBENCH_SPANS_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

inline uint64_t WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1: a root span
  int64_t job = -1;     // index into the workload's job batch; -1: not a job
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t cpu_ns = 0;  // thread CPU between start and end (same thread)
};

class SpanRecorder {
 public:
  class Scope {
   public:
    Scope() = default;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { Close(); }

    int64_t id() const { return span_.id; }

    void Close() {
      if (owner_ == nullptr) {
        return;
      }
      span_.end_ns = WallNs();
      span_.cpu_ns = ThreadCpuNs() - cpu_start_;
      owner_->Finish(std::move(span_), saved_top_);
      owner_ = nullptr;
    }

   private:
    friend class SpanRecorder;
    SpanRecorder* owner_ = nullptr;
    Span span_;
    uint64_t cpu_start_ = 0;
    int64_t saved_top_ = -1;
  };

  void Enable(bool on) { enabled_ = on; }

  // Opens a span on the calling thread. Its parent is `parent` when given,
  // else the innermost span still open on this thread. The caller keeps the
  // returned scope alive for the span's duration; scopes on one thread nest.
  void Open(Scope* scope, std::string name, int64_t job = -1, int64_t parent = -2) {
    if (!enabled_) {
      return;
    }
    scope->owner_ = this;
    scope->saved_top_ = Top();
    scope->span_.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    scope->span_.parent = parent == -2 ? Top() : parent;
    scope->span_.job = job;
    scope->span_.name = std::move(name);
    scope->span_.start_ns = WallNs();
    scope->cpu_start_ = ThreadCpuNs();
    Top() = scope->span_.id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Self time per span name: each span's duration minus the union of its
  // children's intervals clipped to it (children on other threads may
  // overlap one another, so their union - not their sum - is subtracted).
  static std::map<std::string, double> SelfMs(const std::vector<Span>& spans) {
    std::map<int64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        children[s.parent].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::map<std::string, double> out;
    for (const Span& s : spans) {
      uint64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<uint64_t, uint64_t>>& iv = it->second;
        std::sort(iv.begin(), iv.end());
        uint64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) {
            continue;
          }
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
            continue;
          }
          if (open) {
            covered += cur_hi - cur_lo;
          }
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
        if (open) {
          covered += cur_hi - cur_lo;
        }
      }
      const uint64_t dur = s.end_ns - s.start_ns;
      out[s.name] += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
    }
    return out;
  }

  // Writes every span plus the per-name self times as JSON.
  bool WriteJson(const std::string& path) const {
    const std::vector<Span> all = spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"self_ms\": {");
    bool first = true;
    for (const auto& [name, ms] : SelfMs(all)) {
      std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ", name.c_str(), ms);
      first = false;
    }
    std::fprintf(f, "},\n\"spans\": [");
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "%s\n{\"id\": %lld, \"parent\": %lld, \"job\": %lld, \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"cpu_ns\": %llu}",
                   i == 0 ? "" : ",", static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), static_cast<long long>(s.job),
                   s.name.c_str(), static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.cpu_ns));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int64_t& Top() {
    thread_local int64_t top = -1;
    return top;
  }

  void Finish(Span span, int64_t saved_top) {
    Top() = saved_top;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  bool enabled_ = false;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace hostbench

#endif  // SGXBOUNDS_HOSTBENCH_SPANS_H_
