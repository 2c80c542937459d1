// Process-wide selection of the IR execution engine (see src/ir/exec/).
//
// Lives in src/common (not src/ir) so the policy/run layer can plumb an
// engine choice through PolicyOptions without depending on the IR library:
// the enum is plain data, and the flag default is a process-global that the
// bench driver sets from --ir_engine.
//
//   kReference  the original per-instruction switch interpreter - the
//               differential oracle (tests compare against it);
//   kThreaded   the pre-decoded micro-op engine with direct-threaded
//               dispatch - same simulated results, faster host execution;
//   kJit        the template JIT: decoded micro-op streams assembled to
//               native x86-64 (src/ir/exec/jit/) - same simulated results
//               again; falls back to kThreaded where executable memory is
//               unavailable;
//   kDefault    "whatever the process default is" (kThreaded unless
//               --ir_engine was passed).

#ifndef SGXBOUNDS_SRC_COMMON_IR_ENGINE_H_
#define SGXBOUNDS_SRC_COMMON_IR_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace sgxb {

enum class IrEngine : uint8_t { kDefault = 0, kReference, kThreaded, kJit };

// The process default used wherever kDefault is requested. Initially
// kThreaded; mutated (once, at flag-parse time) by --ir_engine.
IrEngine& DefaultIrEngine();

// Maps kDefault to the process default; identity otherwise.
inline IrEngine ResolveIrEngine(IrEngine engine) {
  return engine == IrEngine::kDefault ? DefaultIrEngine() : engine;
}

// Parses "reference"/"threaded"/"jit"; returns false on anything else.
bool ParseIrEngine(const std::string& text, IrEngine* out);

const char* IrEngineName(IrEngine engine);

// Process-wide decode/compile statistics, aggregated across every
// Interpreter instance (--selftime and hostbench want one per-run summary).
// Every Interpreter::Run of a non-reference engine decodes, and a jit Run
// also compiles: decode_misses counts decodes and jit_compiles compiles.
// Nothing is cached, so decode_hits and jit_hits always read 0; they stay
// because reports print them. Atomics: bench drivers run jobs host-parallel.
struct IrExecStats {
  std::atomic<uint64_t> decode_hits{0};
  std::atomic<uint64_t> decode_misses{0};
  std::atomic<uint64_t> jit_hits{0};
  std::atomic<uint64_t> jit_compiles{0};
  std::atomic<uint64_t> jit_compiled_bytes{0};
  std::atomic<uint64_t> jit_compile_ns{0};
  std::atomic<uint64_t> jit_noexec_fallbacks{0};
};

IrExecStats& GlobalIrExecStats();

// Plain-value snapshot for printing.
struct IrExecStatsSnapshot {
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  uint64_t jit_hits = 0;
  uint64_t jit_compiles = 0;
  uint64_t jit_compiled_bytes = 0;
  uint64_t jit_compile_ns = 0;
  uint64_t jit_noexec_fallbacks = 0;
};

inline IrExecStatsSnapshot SnapshotIrExecStats() {
  IrExecStats& s = GlobalIrExecStats();
  IrExecStatsSnapshot out;
  out.decode_hits = s.decode_hits.load(std::memory_order_relaxed);
  out.decode_misses = s.decode_misses.load(std::memory_order_relaxed);
  out.jit_hits = s.jit_hits.load(std::memory_order_relaxed);
  out.jit_compiles = s.jit_compiles.load(std::memory_order_relaxed);
  out.jit_compiled_bytes = s.jit_compiled_bytes.load(std::memory_order_relaxed);
  out.jit_compile_ns = s.jit_compile_ns.load(std::memory_order_relaxed);
  out.jit_noexec_fallbacks = s.jit_noexec_fallbacks.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_IR_ENGINE_H_
