// ResilientTiming, the farm's phase-B discrete-event pass (model in
// resilience.h). Its queue is EventMerge below: per-shard completion FIFOs,
// deadline and hedge FIFOs and two small heaps, merged by their heads. Each
// source is sorted under EventAfter (completions: a shard's free_at never
// falls within one incarnation; deadlines and hedges: pushed at t + const as
// t advances). A crash or restart empties the shard's FIFO, since the work
// it held died with the old incarnation, so every completion that pops is
// live. DESIGN.md §13 gives the full argument.

#include "src/farm/resilience.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "src/common/check.h"
#include "src/common/digest.h"
#include "src/common/zeroed_table.h"

namespace sgxb {

namespace {

constexpr const char* kModeNames[] = {"failstop", "restart", "failover",
                                      "failover+hedge"};

// One discrete event. At equal time, every non-arrival event pops before any
// arrival, in push order (`key` = push sequence): an attempt's kDone is
// pushed before its kTimeout, so a completion exactly at the deadline counts
// as served. Arrivals then pop by `key` = issuing client (closed loop) or
// request index (open loop), so same-instant clients dispatch in client-id
// order and the schedule is a pure function of the inputs.
struct Event {
  enum Kind : uint8_t {
    kArrival,      // id = request
    kDone,         // id = attempt
    kTimeout,      // id = attempt
    kHedge,        // id = request
    kRetry,        // id = request
    kDetect,       // id = shard
    kRestartDone,  // id = shard
  };
  uint64_t time = 0;
  uint64_t key = 0;
  Kind kind = kArrival;
  uint32_t id = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    const bool a_arrival = a.kind == Event::kArrival;
    const bool b_arrival = b.kind == Event::kArrival;
    if (a_arrival != b_arrival) {
      return a_arrival;
    }
    return a.key > b.key;
  }
};

// The pass's large arrays (request and attempt state, each FIFO's ring) are
// ZeroedTables: mappings that go back to the system whole when the pass
// ends. From the malloc heap, these few-MB blocks, allocated and freed once
// per pass, moved glibc's dynamic mmap threshold with their sizes and left
// the heap fragmented: hostbench's ir_sweep_farm peak RSS swung by 3-5 MB
// when the attempt record's size changed. A queue of small blocks
// (std::deque) was worse still (~3 MB of freed blocks left per pass).

// A FIFO of events in one power-of-two ring, doubled when full.
class EventFifo {
 public:
  bool empty() const { return head_ == tail_; }
  const Event& front() const { return (*ring_)[head_ & mask_]; }
  void push_back(const Event& ev) {
    if (ring_ == nullptr || tail_ - head_ == ring_->size()) {
      Grow();
    }
    (*ring_)[tail_++ & mask_] = ev;
  }
  void pop_front() { ++head_; }
  void clear() { head_ = tail_ = 0; }

 private:
  void Grow() {
    const size_t size = ring_ == nullptr ? 128 : 2 * ring_->size();  // a power of two
    auto bigger = std::make_unique<ZeroedTable<Event>>(size);
    for (size_t i = head_; i != tail_; ++i) {
      (*bigger)[i - head_] = (*ring_)[i & mask_];
    }
    tail_ -= head_;
    head_ = 0;
    ring_ = std::move(bigger);
    mask_ = size - 1;
  }

  std::unique_ptr<ZeroedTable<Event>> ring_;
  size_t mask_ = 0;
  size_t head_ = 0;  // head_ and tail_ only grow; slots are taken mod size
  size_t tail_ = 0;
};

// The pending events of one pass, popped in EventAfter order as a k-way merge
// of sources each already sorted under it: the least head is the event one
// heap over all of them would pop. Completions (a FIFO per shard), deadlines
// and hedges are FIFOs sorted as pushed; arrivals and the events whose times
// are not monotone (jittered retries, detections, restarts) live in two small
// heaps. A pop scans 4 + shards heads, whatever the backlog.
class EventMerge {
 public:
  explicit EventMerge(uint32_t shards) : fifo_(kShardFifo + shards) {}

  // `shard` is the completing shard of a kDone; other kinds ignore it.
  void Push(const Event& ev, uint32_t shard) {
    switch (ev.kind) {
      case Event::kArrival:
        arrivals_.push(ev);
        break;
      case Event::kDone:
        fifo_[kShardFifo + shard].push_back(ev);
        break;
      case Event::kTimeout:
        fifo_[kDeadlines].push_back(ev);
        break;
      case Event::kHedge:
        fifo_[kHedges].push_back(ev);
        break;
      default:
        unsorted_.push(ev);
        break;
    }
  }

  // When `shard`'s incarnation ends: its pending completions never happen.
  void DropCompletions(uint32_t shard) { fifo_[kShardFifo + shard].clear(); }

  bool Pop(Event* out) {
    const Event* best = nullptr;
    Heap* best_heap = nullptr;
    EventFifo* best_fifo = nullptr;
    for (Heap* heap : {&arrivals_, &unsorted_}) {
      if (!heap->empty() && (best == nullptr || EventAfter()(*best, heap->top()))) {
        best = &heap->top();
        best_heap = heap;
      }
    }
    for (EventFifo& fifo : fifo_) {
      if (!fifo.empty() && (best == nullptr || EventAfter()(*best, fifo.front()))) {
        best = &fifo.front();
        best_heap = nullptr;
        best_fifo = &fifo;
      }
    }
    if (best == nullptr) {
      return false;
    }
    *out = *best;
    if (best_heap != nullptr) {
      best_heap->pop();
    } else {
      best_fifo->pop_front();
    }
    return true;
  }

 private:
  using Heap = std::priority_queue<Event, std::vector<Event>, EventAfter>;
  static constexpr size_t kDeadlines = 0;
  static constexpr size_t kHedges = 1;
  static constexpr size_t kShardFifo = 2;  // first of the per-shard FIFOs

  std::vector<EventFifo> fifo_;
  Heap arrivals_;
  Heap unsorted_;
};

enum class SState : uint8_t { kAlive, kHung, kDead, kRestarting };

struct ShardState {
  SState st = SState::kAlive;
  uint64_t free_at = 0;      // FCFS queue tail
  uint64_t last_change = 0;  // for up/down-time integration
  uint32_t consec = 0;       // consecutive suspect drops (conviction counter)
  bool in_ring = true;
};

struct AttemptState {
  uint32_t req = 0;
  uint32_t shard = 0;
  bool hedge = false;
  bool hung = false;   // served by a hung shard: demand is svc x hang_slowdown
  bool ended = false;  // client-side: completed or abandoned at deadline
};

struct ReqState {
  uint64_t issue = 0;
  uint32_t chain = 0;  // primary-chain attempts dispatched (first + retries)
  uint32_t live = 0;   // attempts not yet ended
  uint32_t route = 0;  // ring.Route(key), valid while route_ring == ring_version
  uint32_t route_ring = 0;
  bool resolved = false;
  bool degraded = false;      // any in-ring shard unhealthy at issue time
  bool hedge_pending = false; // kHedge scheduled and not yet fired
  bool pending_retry = false; // kRetry scheduled and not yet fired
};

}  // namespace

const char* RecoveryModeName(RecoveryMode mode) {
  const size_t i = static_cast<size_t>(mode);
  return i < kRecoveryModeCount ? kModeNames[i] : "?";
}

bool ParseRecoveryMode(const std::string& text, RecoveryMode* out) {
  for (uint32_t i = 0; i < kRecoveryModeCount; ++i) {
    if (text == kModeNames[i]) {
      *out = static_cast<RecoveryMode>(i);
      return true;
    }
  }
  return false;
}

std::vector<std::string> RecoveryModeChoices() {
  return std::vector<std::string>(kModeNames, kModeNames + kRecoveryModeCount);
}

uint64_t ResilientTiming(const ResilientTimingInput& in, const ResilienceConfig& rc,
                         ConsistentHashRing ring, ResilienceReport* report,
                         LatencyHistogram* latency, uint64_t* served, uint64_t* dropped) {
  const std::vector<FarmRequest>& reqs = *in.reqs;
  const std::vector<uint64_t>& svc = *in.service_cycles;
  const std::vector<uint8_t>& outcome = *in.outcome;
  const std::vector<uint32_t>& primary = *in.primary_shard;
  CHECK_EQ(svc.size(), reqs.size());
  CHECK_EQ(outcome.size(), reqs.size());
  CHECK_EQ(primary.size(), reqs.size());
  const uint32_t nshards = ring.shards();
  const uint64_t warmup = rc.restart_warmup_cycles;
  const bool hedging = rc.mode == RecoveryMode::kFailoverHedge;
  const bool supervised = rc.mode != RecoveryMode::kFailStop;

  ResilienceReport& rep = *report;
  rep = ResilienceReport{};
  rep.enabled = true;
  rep.shards.resize(nshards);

  std::vector<ShardState> shard(nshards);
  ZeroedTable<ReqState> rstate(std::max<size_t>(1, reqs.size()));
  // The pass's attempts in dispatch order. A request makes at most
  // 1 + max_retries primary attempts and one hedge; pages never reached are
  // never touched.
  ZeroedTable<AttemptState> attempts(
      std::max<size_t>(1, reqs.size() * (2 + size_t{rc.max_retries})));
  size_t nattempts = 0;

  // Count of in-ring shards that are not kAlive: classifies each request's
  // dispatch window as healthy/degraded.
  uint32_t unhealthy = 0;
  // Bumped whenever the ring loses a shard; starts at 1 so that a request's
  // route_ring of 0 means "never routed".
  uint32_t ring_version = 1;

  EventMerge events(nshards);
  uint64_t seq = 0;
  // `shard`: the completing shard of a kDone.
  auto push = [&](uint64_t time, Event::Kind kind, uint32_t id, uint32_t shard = 0) {
    events.Push(Event{time, seq++, kind, id}, shard);
  };
  // Arrivals order among themselves by client (closed) or request (open).
  const uint32_t clients = std::max(1u, in.clients);
  auto push_arrival = [&](uint64_t time, uint32_t r) {
    events.Push(Event{time, in.open_loop ? r : reqs[r].client % clients, Event::kArrival, r}, 0);
  };

  // Makespan: last client-visible resolution or executed shard completion.
  uint64_t end_time = 0;

  auto set_state = [&](uint32_t s, SState ns, uint64_t t) {
    ShardState& sh = shard[s];
    ShardAvailability& av = rep.shards[s];
    const bool was_up = sh.st == SState::kAlive || sh.st == SState::kHung;
    (was_up ? av.up_cycles : av.down_cycles) += t - sh.last_change;
    if (sh.in_ring) {
      const bool was_healthy = sh.st == SState::kAlive;
      const bool now_healthy = ns == SState::kAlive;
      if (was_healthy && !now_healthy) {
        ++unhealthy;
      } else if (!was_healthy && now_healthy) {
        --unhealthy;
      }
    }
    sh.st = ns;
    sh.last_change = t;
  };

  // Removes `s` from the serving set (ring points + health accounting).
  // False when the ring refuses (last live shard, or already removed). The
  // completion FIFO stays: a removed shard that is still up completes its
  // queue.
  auto remove_from_ring = [&](uint32_t s) {
    if (!ring.RemoveShard(s)) {
      return false;
    }
    ++ring_version;
    ShardState& sh = shard[s];
    if (sh.in_ring && sh.st != SState::kAlive) {
      --unhealthy;
    }
    sh.in_ring = false;
    rep.shards[s].removed = true;
    ++rep.failovers;
    return true;
  };

  // Phase-A outcome of running request `r` on shard `s`. Suspect-shard drops
  // are shard-specific (poisoned metadata): re-routing away from the primary
  // shard clears them. Request-only drops (transient allocation pressure)
  // follow the request anywhere.
  auto outcome_on = [&](uint32_t r, uint32_t s) -> uint8_t {
    if (outcome[r] == 2 && s != primary[r]) {
      return 0;
    }
    return outcome[r];
  };

  // The supervisor repairs shard `s` at time `t` (watchdog detection or
  // consecutive-failure conviction). No-op under failstop.
  auto repair = [&](uint32_t s, uint64_t t) {
    ShardState& sh = shard[s];
    if (rc.mode == RecoveryMode::kRestart) {
      set_state(s, SState::kRestarting, t);
      events.DropCompletions(s);  // queued and running work dies with it
      sh.consec = 0;
      push(t + warmup, Event::kRestartDone, s);
    } else {
      remove_from_ring(s);  // shard never returns; survivors absorb its keys
    }
  };

  // Service cycles an attempt charges its shard.
  auto demand = [&](const AttemptState& at) {
    return at.hung ? svc[at.req] * rc.hang_slowdown : svc[at.req];
  };

  // A primary-chain attempt reuses its request's route until the ring
  // changes; a hedge routes to the owner's successor.
  auto dispatch = [&](uint32_t r, uint64_t t, bool hedge) {
    ReqState& rq = rstate[r];
    if (!hedge && rq.route_ring != ring_version) {
      rq.route = ring.Route(reqs[r].key);
      rq.route_ring = ring_version;
    }
    const uint32_t s = hedge ? ring.RouteSecond(reqs[r].key) : rq.route;
    AttemptState at;
    at.req = r;
    at.shard = s;
    at.hedge = hedge;
    ShardState& sh = shard[s];
    ++rep.attempts;
    ++rq.live;
    CHECK_LT(nattempts, attempts.size());
    const uint32_t id = static_cast<uint32_t>(nattempts);
    if (sh.st == SState::kAlive || sh.st == SState::kHung) {
      at.hung = sh.st == SState::kHung;
      const uint64_t start = std::max(t, sh.free_at);
      sh.free_at = start + demand(at);
      // kDone before kTimeout: a completion exactly at the deadline wins.
      push(sh.free_at, Event::kDone, id, s);
    }
    // On a dead or restarting shard no kDone is scheduled: the attempt falls
    // on the floor and only the client's deadline notices.
    attempts[nattempts++] = at;
    if (rc.request_timeout_cycles != kNoDeadline) {
      push(t + rc.request_timeout_cycles, Event::kTimeout, id);
    }
  };

  // Closed-loop bookkeeping (ignored when open_loop).
  std::vector<std::vector<uint32_t>> per_client;
  std::vector<size_t> cursor;
  std::vector<uint64_t> arrivals;
  if (in.open_loop) {
    arrivals = PoissonArrivals(reqs.size(), in.offered_rps, in.ghz, in.seed);
    if (!reqs.empty()) {
      push_arrival(arrivals[0], 0);
    }
  } else {
    per_client.resize(clients);
    cursor.assign(clients, 0);
    for (size_t i = 0; i < reqs.size(); ++i) {
      per_client[reqs[i].client % clients].push_back(static_cast<uint32_t>(i));
    }
    for (uint32_t c = 0; c < clients; ++c) {
      if (!per_client[c].empty()) {
        push_arrival(0, per_client[c][0]);
      }
    }
  }

  // A request's final resolution (served or failed): closed-loop clients
  // issue their next request `think_cycles` later.
  auto resolve_client = [&](uint32_t r, uint64_t t) {
    end_time = std::max(end_time, t);
    if (in.open_loop) {
      return;
    }
    const uint32_t c = reqs[r].client % clients;
    if (++cursor[c] < per_client[c].size()) {
      push_arrival(t + in.think_cycles, per_client[c][cursor[c]]);
    }
  };

  auto fail_request = [&](uint32_t r, uint64_t t) {
    ReqState& rq = rstate[r];
    rq.resolved = true;
    ++rep.failed_timeout;
    const uint64_t residence = t - rq.issue;
    (rq.degraded ? rep.degraded : rep.healthy).AddTimeout(residence);
    resolve_client(r, t);
  };

  // Nothing in flight, nothing scheduled: the request can never resolve.
  auto maybe_fail = [&](uint32_t r, uint64_t t) {
    ReqState& rq = rstate[r];
    if (!rq.resolved && rq.live == 0 && !rq.pending_retry && !rq.hedge_pending) {
      fail_request(r, t);
    }
  };

  // Shard-fault plan, applied at global dispatch counts. Only crash/hang are
  // phase-B events; epc_storm/poison were injected during phase A and their
  // effects already live in svc[]/outcome[].
  std::vector<ShardFaultEvent> plan;
  for (const ShardFaultEvent& ev : rc.shard_faults.events) {
    if (ev.kind == ShardFaultKind::kCrash || ev.kind == ShardFaultKind::kHang) {
      plan.push_back(ev);
    }
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const ShardFaultEvent& a, const ShardFaultEvent& b) {
                     return a.at_request < b.at_request;
                   });
  size_t next_fault = 0;
  uint64_t dispatched = 0;

  auto apply_fault = [&](const ShardFaultEvent& ev, uint64_t t) {
    if (ev.shard >= nshards) {
      return;
    }
    ShardState& sh = shard[ev.shard];
    if (ev.kind == ShardFaultKind::kCrash) {
      if (sh.st != SState::kAlive && sh.st != SState::kHung) {
        return;  // already down
      }
      set_state(ev.shard, SState::kDead, t);
      events.DropCompletions(ev.shard);  // queued and running work dies with it
      ++rep.shards[ev.shard].crashes;
      if (supervised) {
        push(t + rc.watchdog_cycles, Event::kDetect, ev.shard);
      }
    } else {  // kHang
      if (sh.st != SState::kAlive) {
        return;
      }
      set_state(ev.shard, SState::kHung, t);
      ++rep.shards[ev.shard].hangs;
      if (supervised) {
        // Slow-but-alive answers health probes late; conviction takes 2x.
        push(t + 2 * rc.watchdog_cycles, Event::kDetect, ev.shard);
      }
    }
  };

  Event ev;
  while (events.Pop(&ev)) {
    const uint64_t t = ev.time;
    switch (ev.kind) {
      case Event::kArrival: {
        const uint32_t r = ev.id;
        while (next_fault < plan.size() && plan[next_fault].at_request <= dispatched + 1) {
          apply_fault(plan[next_fault++], t);
        }
        ++dispatched;
        ReqState& rq = rstate[r];
        rq.issue = t;
        rq.degraded = unhealthy > 0;
        rq.chain = 1;
        dispatch(r, t, /*hedge=*/false);
        if (hedging && ring.live_shards() > 1) {
          rq.hedge_pending = true;
          push(t + rc.hedge_delay_cycles, Event::kHedge, r);
        }
        if (in.open_loop && static_cast<size_t>(r) + 1 < reqs.size()) {
          push_arrival(arrivals[r + 1], r + 1);
        }
        break;
      }
      case Event::kDone: {
        AttemptState& at = attempts[ev.id];
        ShardState& sh = shard[at.shard];
        end_time = std::max(end_time, t);
        const uint8_t oc = outcome_on(at.req, at.shard);
        // The supervisor watches responses: suspect drops accumulate toward
        // conviction, successes clear the counter.
        if (oc == 2) {
          if (++sh.consec >= rc.sick_threshold && supervised && sh.in_ring &&
              sh.st == SState::kAlive) {
            ++rep.convictions;
            repair(at.shard, t);
          }
        } else if (oc == 0) {
          sh.consec = 0;
        }
        ReqState& rq = rstate[at.req];
        if (at.ended || rq.resolved) {
          // The client gave up, or a duplicate already answered: the shard's
          // work was wasted.
          rep.wasted_cycles += demand(at);
          if (!at.ended) {
            at.ended = true;
            --rq.live;
          }
          break;
        }
        at.ended = true;
        --rq.live;
        rq.resolved = true;
        if (oc == 0) {
          ++rep.completed;
          const uint64_t lat = t - rq.issue;
          (rq.degraded ? rep.degraded : rep.healthy).Add(lat);
          if (at.hedge) {
            ++rep.hedge_wins;
          }
        } else {
          // Contained app error: a definitive reply, not a timeout — the
          // client does not retry it.
          ++rep.failed_app;
        }
        resolve_client(at.req, t);
        break;
      }
      case Event::kTimeout: {
        AttemptState& at = attempts[ev.id];
        if (at.ended) {
          break;  // completed at or before the deadline
        }
        ReqState& rq = rstate[at.req];
        at.ended = true;
        --rq.live;
        if (rq.resolved) {
          break;  // a duplicate already answered; abandon quietly
        }
        ++rep.timed_out_attempts;
        if (!at.hedge && rq.chain < 1 + rc.max_retries) {
          rq.pending_retry = true;
          push(t + RetryBackoffCycles(rc, in.seed, at.req, rq.chain), Event::kRetry,
               at.req);
        }
        maybe_fail(at.req, t);
        break;
      }
      case Event::kRetry: {
        const uint32_t r = ev.id;
        ReqState& rq = rstate[r];
        rq.pending_retry = false;
        if (rq.resolved) {
          break;
        }
        ++rq.chain;
        ++rep.retries;
        // Routed through the *current* ring: post-failover retries land on
        // survivors.
        dispatch(r, t, /*hedge=*/false);
        break;
      }
      case Event::kHedge: {
        const uint32_t r = ev.id;
        ReqState& rq = rstate[r];
        rq.hedge_pending = false;
        if (rq.resolved) {
          break;
        }
        if (ring.live_shards() > 1) {
          ++rep.hedges;
          dispatch(r, t, /*hedge=*/true);
        } else {
          maybe_fail(r, t);
        }
        break;
      }
      case Event::kDetect: {
        ShardState& sh = shard[ev.id];
        if (sh.st != SState::kDead && sh.st != SState::kHung) {
          break;  // stale: already repaired or convicted
        }
        ++rep.detections;
        repair(ev.id, t);
        break;
      }
      case Event::kRestartDone: {
        ShardState& sh = shard[ev.id];
        set_state(ev.id, SState::kAlive, t);
        sh.free_at = t;  // fresh incarnation, empty queue
        sh.consec = 0;
        ++rep.shards[ev.id].restarts;
        ++rep.restarts;
        break;
      }
    }
  }

  // Flush up/down-time integrals to the end of the run.
  for (uint32_t s = 0; s < nshards; ++s) {
    ShardState& sh = shard[s];
    ShardAvailability& av = rep.shards[s];
    if (end_time > sh.last_change) {
      const bool up = sh.st == SState::kAlive || sh.st == SState::kHung;
      (up ? av.up_cycles : av.down_cycles) += end_time - sh.last_change;
    }
    const uint64_t span = av.up_cycles + av.down_cycles;
    av.uptime = span == 0 ? 1.0 : static_cast<double>(av.up_cycles) / span;
  }
  if (end_time > 0) {
    rep.goodput_rps = static_cast<double>(rep.completed) /
                      (static_cast<double>(end_time) / (in.ghz * 1e9));
  }
  *served = rep.completed;
  *dropped = rep.failed_app + rep.failed_timeout;
  // The overall histogram is the exact union of the two windows (integer
  // samples, so even the running sum is order-independent).
  latency->Merge(rep.healthy);
  latency->Merge(rep.degraded);

  uint64_t digest = kLegacyDigestSeed;
  digest = FnvMix(digest, rep.completed);
  digest = FnvMix(digest, rep.failed_app);
  digest = FnvMix(digest, rep.failed_timeout);
  digest = FnvMix(digest, rep.attempts);
  digest = FnvMix(digest, rep.retries);
  digest = FnvMix(digest, rep.hedges);
  digest = FnvMix(digest, rep.hedge_wins);
  digest = FnvMix(digest, rep.timed_out_attempts);
  digest = FnvMix(digest, rep.wasted_cycles);
  digest = FnvMix(digest, rep.detections);
  digest = FnvMix(digest, rep.convictions);
  digest = FnvMix(digest, rep.restarts);
  digest = FnvMix(digest, rep.failovers);
  for (const ShardAvailability& av : rep.shards) {
    digest = FnvMix(digest, av.up_cycles);
    digest = FnvMix(digest, av.down_cycles);
    digest = FnvMix(digest, (static_cast<uint64_t>(av.crashes) << 32) |
                                (static_cast<uint64_t>(av.hangs) << 16) |
                                (static_cast<uint64_t>(av.restarts) << 1) |
                                (av.removed ? 1u : 0u));
  }
  digest = FnvMix(digest, rep.healthy.Digest());
  digest = FnvMix(digest, rep.degraded.Digest());
  rep.digest = digest;
  return end_time;
}

}  // namespace sgxb
