// Seeded access-state fuzz for the inline guest-access path: the guard and
// commit of src/ir/exec/ops.h (GuestAccessSet, CommitGuestAccess), which the
// threaded engine runs, and JIT tier 2's templates, which mirror them.
//
// Each case drives three rigs to the same state with one seeded prefix -
// warm and cold lines, a line on L1 way 0, 1 or deeper, committed, guard,
// decommitted and never-committed pages, and sometimes a trace recorder or
// fault hooks, which turn the inline path off - and then runs one load or
// store (plain or gep+maskptr quad, 1, 2, 4 or 8 bytes) on the reference,
// threaded and jit engines. The target may sit in a line, across a line,
// across a page, across the end of the 64 MiB space or far past it. The
// engines must agree on every counter, the value, the memory, the trap kind
// and message, the whole L1 recency order, hooked accesses and trace bytes.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/enclave/fault_hooks.h"
#include "src/enclave/trap.h"
#include "src/ir/interp.h"
#include "src/trace/trace_recorder.h"

namespace sgxb {
namespace {

constexpr uint64_t kSpace = 64 * kMiB;
constexpr uint32_t kRegionPages = 8;
constexpr uint32_t kCases = 3000;

enum class PageState : uint8_t { kCommitted, kGuard, kDecommitted, kNeverCommitted };

// Records every access the enclave reports to fault hooks.
class AccessLog : public FaultHooks {
 public:
  void OnAccess(Cpu&, uint32_t addr, uint32_t size) override {
    accesses.push_back((static_cast<uint64_t>(addr) << 8) | size);
  }
  bool OnAlloc(Cpu&) override { return false; }
  std::vector<uint64_t> accesses;
};

// One access program: `load` returns the loaded value; a store returns 0.
// A few pending ALU ops and a branch come first, so the access flushes both.
IrFunction AccessFunction(bool store, bool quad, IrType type, int64_t off, int64_t value) {
  IrFunction fn;
  fn.name = "access";
  fn.num_args = 1;
  std::vector<IrBlock> blocks(2);
  auto emit = [&](IrBlock& b, IrOp op, IrType t, std::vector<ValueId> args, int64_t imm = 0,
                  int64_t imm2 = 0, bool has_value = true) {
    IrInstr in{};
    in.id = has_value ? fn.num_values++ : 0;
    in.op = op;
    in.type = t;
    in.args = std::move(args);
    in.imm = imm;
    in.imm2 = imm2;
    b.instrs.push_back(std::move(in));
    return b.instrs.back().id;
  };
  IrBlock& entry = blocks[0];
  const ValueId base = emit(entry, IrOp::kArg, IrType::kPtr, {}, 0);
  const ValueId c = emit(entry, IrOp::kConst, IrType::kI64, {}, value);
  const ValueId x = emit(entry, IrOp::kAdd, IrType::kI64, {c, c});
  emit(entry, IrOp::kBr, IrType::kI64, {}, 1, 0, false);
  IrBlock& body = blocks[1];
  body.preds = {0};
  ValueId p;
  if (quad) {
    const ValueId zero = emit(body, IrOp::kConst, IrType::kI64, {}, 0);
    const ValueId t = emit(body, IrOp::kGep, IrType::kPtr, {base, zero}, 1, off);
    p = emit(body, IrOp::kMaskPtr, IrType::kPtr, {t, base});
  } else {
    const ValueId k = emit(body, IrOp::kConst, IrType::kI64, {}, off);
    p = emit(body, IrOp::kAdd, IrType::kPtr, {base, k});
  }
  ValueId ret = x;
  if (store) {
    emit(body, IrOp::kStore, type, {c, p}, 0, 0, false);
  } else {
    ret = emit(body, IrOp::kLoad, type, {p});
  }
  emit(body, IrOp::kRet, IrType::kI64, {ret}, 0, 0, false);
  fn.blocks = std::move(blocks);
  return fn;
}

// Everything a case generates: the prefix, the access and the attachments.
struct Case {
  std::array<PageState, kRegionPages> pages{};
  std::vector<std::pair<uint32_t, uint8_t>> warm;  // (region offset, width) accesses
  uint32_t target = 0;     // guest address of the access
  uint32_t ways_deep = 0;  // conflicting lines after the target's (0 = MRU)
  bool warm_target = false;
  bool store = false;
  bool quad = false;
  IrType type = IrType::kI64;
  int64_t off = 0;  // the program adds it to its argument
  int64_t value = 0;
  bool hooks = false;
  bool record = false;
};

constexpr IrType kTypes[] = {IrType::kI8, IrType::kI16, IrType::kI32, IrType::kI64,
                             IrType::kPtr};

// Builds case `seed` for rigs whose region starts at `region` (the same on
// every rig, which reserves it first) and whose L1 has `ways` ways.
Case MakeCase(uint64_t seed, uint32_t region, uint32_t ways) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Case c;
  for (PageState& s : c.pages) {
    const uint64_t r = rng.NextBounded(20);
    s = r < 14 ? PageState::kCommitted
        : r < 16 ? PageState::kGuard
        : r < 18 ? PageState::kDecommitted
                 : PageState::kNeverCommitted;
  }
  c.pages[0] = PageState::kCommitted;  // some warm-up always lands
  const uint32_t warm = static_cast<uint32_t>(rng.NextBounded(24));
  for (uint32_t i = 0; i < warm; ++i) {
    const uint32_t page = static_cast<uint32_t>(rng.NextBounded(kRegionPages));
    const uint8_t width = static_cast<uint8_t>(1u << rng.NextBounded(4));
    const uint32_t off = static_cast<uint32_t>(rng.NextBounded(kPageSize - width + 1));
    c.warm.push_back({page * kPageSize + off, width});
  }
  c.type = kTypes[rng.NextBounded(5)];
  const uint32_t width = IrTypeSize(c.type);
  const uint32_t page = static_cast<uint32_t>(rng.NextBounded(kRegionPages));
  const uint64_t shape = rng.NextBounded(20);
  uint32_t in_page;
  if (shape < 11 || width == 1) {  // inside one line
    in_page = static_cast<uint32_t>(rng.NextBounded(kPageSize / 64)) * 64 +
              static_cast<uint32_t>(rng.NextBounded(64 - width + 1));
  } else if (shape < 15) {  // across a line
    in_page = static_cast<uint32_t>(rng.NextBounded(kPageSize / 64 - 1)) * 64 + 64 -
              static_cast<uint32_t>(1 + rng.NextBounded(width - 1));
  } else {  // across a page
    in_page = kPageSize - static_cast<uint32_t>(1 + rng.NextBounded(width - 1));
  }
  c.target = region + page * kPageSize + in_page;
  if (shape == 18) {  // across the end of the space
    c.target = static_cast<uint32_t>(kSpace) - static_cast<uint32_t>(rng.NextBounded(width));
  } else if (shape == 19) {  // far past it
    c.target = 0xF0000000u + static_cast<uint32_t>(rng.NextBounded(kPageSize));
  }
  c.warm_target = rng.NextBounded(5) != 0;
  // Way 0 and 1 most often, then a deeper way; `ways` evicts the line.
  const uint64_t depth = rng.NextBounded(12);
  c.ways_deep = depth < 4   ? 0
                : depth < 8 ? 1
                            : 2 + static_cast<uint32_t>(rng.NextBounded(ways - 1));
  c.store = rng.NextBounded(2) != 0;
  c.quad = rng.NextBounded(2) != 0;
  c.off = static_cast<int64_t>(rng.NextBounded(c.quad ? 256 : 64));
  c.value = static_cast<int64_t>(rng.Next());
  const uint64_t attach = rng.NextBounded(10);
  c.hooks = attach == 0;
  c.record = attach == 1;
  return c;
}

struct Observed {
  bool trapped = false;
  TrapKind kind = TrapKind::kSegFault;
  std::string message;
  uint64_t result = 0;
  InterpStats stats;
  PerfCounters counters;
  std::vector<uint8_t> memory;   // the region and the bytes around the space's end
  std::vector<uint32_t> l1;      // every L1 set, most recent first
  std::vector<uint64_t> hooked;  // accesses the fault hooks saw
  std::vector<uint8_t> trace;    // the recorded events
};

struct Rig {
  Rig() {
    EnclaveConfig cfg;
    cfg.space_bytes = kSpace;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 1 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 64 * kKiB);
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    Cache& l1 = enclave->main_cpu().l1();
    set_stride = l1.sets() * 64;
    ways = l1.ways();
    region = enclave->pages().ReserveLow(kRegionPages * kPageSize, "region");
    // `ways` lines of every set, from a base on a set boundary.
    const uint64_t bytes = uint64_t{ways + 1} * set_stride;
    const uint32_t reserved = enclave->pages().ReserveLow(bytes, "conflicts");
    enclave->pages().Commit(nullptr, reserved, bytes);
    conflicts = (reserved + set_stride - 1) / set_stride * set_stride;
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<Interpreter> interp;
  uint32_t set_stride = 0;
  uint32_t ways = 0;
  uint32_t region = 0;
  uint32_t conflicts = 0;
};

// Puts the line of `addr` on way `depth` of its set (or evicts it when
// depth >= ways), through charged accesses to distinct lines of the same set.
void Place(Rig& rig, uint32_t addr, uint32_t depth) {
  Enclave& e = *rig.enclave;
  Cpu& cpu = e.main_cpu();
  e.Load<uint8_t>(cpu, addr);
  const uint32_t in_set = addr % rig.set_stride & ~63u;
  for (uint32_t k = 0; k < depth; ++k) {
    e.Load<uint8_t>(cpu, rig.conflicts + k * rig.set_stride + in_set);
  }
}

Observed RunCase(IrEngine engine, const Case& c) {
  Rig rig;
  Enclave& e = *rig.enclave;
  Cpu& cpu = e.main_cpu();
  PageManager& pm = e.pages();
  // Prefix: commit every page that is ever used, warm it up, place the
  // target's lines, then take pages away.
  for (uint32_t p = 0; p < kRegionPages; ++p) {
    if (c.pages[p] != PageState::kNeverCommitted) {
      pm.Commit(nullptr, rig.region + p * kPageSize, kPageSize);
    }
  }
  const uint32_t last_page = static_cast<uint32_t>(kSpace) - kPageSize;
  pm.Commit(nullptr, last_page, kPageSize);  // the space's last page, below its end
  for (const auto& [off, width] : c.warm) {
    const uint32_t addr = rig.region + off;
    if (!pm.Addressable(addr) || !pm.Addressable(addr + width - 1)) {
      continue;
    }
    if ((off & 1) != 0) {
      uint64_t v = off;
      e.StoreBytes(cpu, addr, &v, width);
    } else {
      uint64_t v = 0;
      e.LoadBytes(cpu, addr, &v, width);
    }
  }
  if (c.warm_target) {
    const uint32_t width = IrTypeSize(c.type);
    const uint32_t last = c.target + width - 1;
    // The second line of a crossing access one way deeper than the first
    // (or evicted), placed first so that placing the first line leaves it.
    if ((last >> 6) != (c.target >> 6) && last >= c.target && pm.Addressable(last)) {
      Place(rig, last, (c.ways_deep + 1) % (rig.ways + 1));
    }
    if (pm.Addressable(c.target)) {
      Place(rig, c.target, c.ways_deep);
    }
  }
  for (uint32_t p = 0; p < kRegionPages; ++p) {
    if (c.pages[p] == PageState::kGuard) {
      pm.SetGuardPage(PageOf(rig.region) + p);
    } else if (c.pages[p] == PageState::kDecommitted) {
      pm.Decommit(rig.region + p * kPageSize, kPageSize);
    }
  }
  TraceRecorder recorder("fuzz");
  if (c.record) {
    recorder.BeginRun(TraceHeader{});
    e.AttachTrace(&recorder);
  }
  AccessLog log;
  if (c.hooks) {
    e.AttachFaults(&log);
  }

  rig.interp->set_engine(engine);
  const IrFunction fn = AccessFunction(c.store, c.quad, c.type, c.off, c.value);
  Observed out;
  try {
    out.result = rig.interp->Run(fn, cpu, {uint64_t{c.target} - static_cast<uint64_t>(c.off)});
  } catch (const SimTrap& t) {
    out.trapped = true;
    out.kind = t.kind();
    out.message = t.what();
  }
  out.stats = rig.interp->stats();
  out.counters = cpu.counters();
  out.memory.resize(kRegionPages * kPageSize + kPageSize);
  std::memcpy(out.memory.data(), e.space().HostPtr(rig.region), kRegionPages * kPageSize);
  std::memcpy(out.memory.data() + kRegionPages * kPageSize, e.space().HostPtr(last_page),
              kPageSize);
  Cache& l1 = cpu.l1();
  for (uint32_t set = 0; set < l1.sets(); ++set) {
    const std::vector<uint32_t> order = l1.SetOrder(set);
    out.l1.insert(out.l1.end(), order.begin(), order.end());
  }
  out.hooked = log.accesses;
  if (c.record) {
    recorder.Finalize(TraceRecorder::Outcome{});
    out.trace = recorder.TakeTrace().events;
    e.AttachTrace(nullptr);
  }
  return out;
}

std::string Describe(const Case& c, uint64_t seed) {
  return "case " + std::to_string(seed) + ": " + (c.store ? "store " : "load ") +
         IrTypeName(c.type) + (c.quad ? " quad" : "") + " at " + std::to_string(c.target) +
         (c.warm_target ? " way " + std::to_string(c.ways_deep) : " cold") +
         (c.hooks ? " hooks" : "") + (c.record ? " traced" : "");
}

// Returns false (and reports) when `got` differs from `ref`.
bool Same(const Observed& ref, const Observed& got, const std::string& label) {
  bool same = true;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ADD_FAILURE() << label << ": " << what << " differs";
      same = false;
    }
  };
  expect(got.trapped == ref.trapped, "trapped");
  expect(got.kind == ref.kind, "trap kind");
  expect(got.message == ref.message, "trap message");
  expect(got.result == ref.result, "value");
  expect(got.stats.steps == ref.stats.steps && got.stats.loads == ref.stats.loads &&
             got.stats.stores == ref.stats.stores && got.stats.checks == ref.stats.checks,
         "interpreter stats");
  expect(got.counters == ref.counters, "PerfCounters");
  expect(got.memory == ref.memory, "memory");
  expect(got.l1 == ref.l1, "L1 recency order");
  expect(got.hooked == ref.hooked, "hooked accesses");
  expect(got.trace == ref.trace, "trace bytes");
  return same;
}

TEST(IrAccessFuzz, EnginesAgreeOnEveryAccessState) {
  const Rig probe;
  // What the corpus covered, so a generator change cannot quietly drop a
  // class of state.
  uint32_t inline_hits = 0, deep = 0, traps = 0, crossings = 0, attached = 0;
  uint32_t failures = 0;
  for (uint64_t seed = 0; seed < kCases && failures < 5; ++seed) {
    const Case c = MakeCase(seed, probe.region, probe.ways);
    const std::string label = Describe(c, seed);
    const Observed ref = RunCase(IrEngine::kReference, c);
    const bool ok = Same(ref, RunCase(IrEngine::kThreaded, c), label + " threaded") &&
                    Same(ref, RunCase(IrEngine::kJit, c), label + " jit");
    failures += ok ? 0 : 1;
    const uint32_t width = IrTypeSize(c.type);
    const bool crossing = ((c.target ^ (c.target + width - 1)) >> 6) != 0;
    crossings += crossing ? 1 : 0;
    traps += ref.trapped ? 1 : 0;
    attached += c.hooks || c.record ? 1 : 0;
    if (!ref.trapped && c.warm_target && !crossing) {
      (c.ways_deep <= 1 ? inline_hits : deep) += 1;
    }
  }
  EXPECT_GT(inline_hits, kCases / 5);
  EXPECT_GT(deep, kCases / 20);
  EXPECT_GT(traps, kCases / 10);
  EXPECT_GT(crossings, kCases / 10);
  EXPECT_GT(attached, kCases / 10);
}

}  // namespace
}  // namespace sgxb
