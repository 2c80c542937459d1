// SimConfig: the simulated machine's geometry and price list.
//
// Its own header, below machine.h, so that a trace header (src/trace/
// trace_format.h, which machine.h reaches through the recorder's taps) can
// record the machine as this one struct.

#ifndef SGXBOUNDS_SRC_SIM_SIM_CONFIG_H_
#define SGXBOUNDS_SRC_SIM_SIM_CONFIG_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/sim/cost_model.h"

namespace sgxb {

struct SimConfig {
  uint64_t l1_bytes = 32 * kKiB;
  uint32_t l1_ways = 8;
  uint64_t l2_bytes = 256 * kKiB;
  uint32_t l2_ways = 8;
  uint64_t l3_bytes = 8 * kMiB;
  uint32_t l3_ways = 16;
  // Usable EPC (paper: 128 MiB total, ~94 MiB available to enclaves).
  uint64_t epc_bytes = 94 * kMiB;
  // true = inside an SGX enclave (EPC + MEE charged); false = normal process.
  bool enclave_mode = true;
  CostModel costs;
};

// Field-wise equality. The sweep engine (src/trace/sweep.h) folds the
// requests of one batch that pair the same trace with equal configs: two
// equal configs replay to identical counters, so comparing full configs
// (rather than hashes) makes the fold collision-proof.
inline bool operator==(const SimConfig& a, const SimConfig& b) {
  return a.l1_bytes == b.l1_bytes && a.l1_ways == b.l1_ways && a.l2_bytes == b.l2_bytes &&
         a.l2_ways == b.l2_ways && a.l3_bytes == b.l3_bytes && a.l3_ways == b.l3_ways &&
         a.epc_bytes == b.epc_bytes && a.enclave_mode == b.enclave_mode &&
         a.costs == b.costs;
}
inline bool operator!=(const SimConfig& a, const SimConfig& b) { return !(a == b); }

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_SIM_CONFIG_H_
