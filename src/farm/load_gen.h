// Deterministic load generator for the enclave farm.
//
// Produces the request stream up front as a pure function of the seed: per
// request a key (optionally Zipf-skewed, as memaslap's hot-key distributions
// are) and an issuing client (optionally skewed, modeling fat connections).
// Arrival timing is the timing model's job (src/farm/farm.cc): open-loop
// runs draw Poisson inter-arrival gaps from this generator's rng stream;
// closed-loop runs derive arrivals from completions plus think time.
//
// Everything here is host-side bookkeeping — no simulated cycles are charged
// for generating load, mirroring how memaslap/ab run on separate client
// machines in the paper's §6 setup.

#ifndef SGXBOUNDS_SRC_FARM_LOAD_GEN_H_
#define SGXBOUNDS_SRC_FARM_LOAD_GEN_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace sgxb {

struct LoadGenConfig {
  uint64_t requests = 10000;
  uint64_t keyspace = 4096;
  // Zipf exponent for key popularity; 0 = uniform. 0.99 matches the
  // memaslap-style hot-key mix used by the contained memcached workload.
  double key_theta = 0.0;
  uint32_t clients = 64;
  // Zipf exponent for client fan-in; 0 = uniform round-robin-ish. Nonzero
  // models a few fat connections issuing most of the traffic.
  double client_theta = 0.0;
  uint64_t seed = 42;
};

struct FarmRequest {
  uint64_t key = 0;
  uint32_t client = 0;
};

// The full request stream for one farm run. Pure function of the config.
inline std::vector<FarmRequest> GenerateRequests(const LoadGenConfig& cfg) {
  std::vector<FarmRequest> reqs(cfg.requests);
  Rng rng(cfg.seed ^ 0xfa12fa12fa12fa12ull);
  for (auto& r : reqs) {
    r.key = cfg.key_theta > 0.0 ? rng.NextZipf(cfg.keyspace, cfg.key_theta)
                                : rng.NextBounded(cfg.keyspace);
    r.client = static_cast<uint32_t>(
        cfg.client_theta > 0.0 ? rng.NextZipf(cfg.clients, cfg.client_theta)
                               : rng.NextBounded(cfg.clients));
  }
  return reqs;
}

// Open-loop Poisson arrival times (in simulated cycles) for `n` requests at
// `rate_rps` offered requests/second on a `ghz` GHz machine. Monotone
// nondecreasing; pure function of the seed. Fails loudly on a non-positive
// rate and on a stream that runs past the 64-bit cycle range (a rate so low
// the cast to uint64_t would overflow).
inline std::vector<uint64_t> PoissonArrivals(uint64_t n, double rate_rps, double ghz,
                                             uint64_t seed) {
  if (!(rate_rps > 0.0)) {
    FATAL("PoissonArrivals: offered rate must be > 0 requests/second");
  }
  std::vector<uint64_t> arrivals(n);
  const double mean_gap = ghz * 1e9 / rate_rps;
  Rng rng(seed ^ 0x9031903190319031ull);
  double t = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    // Inverse-CDF exponential gap; 1 - u in (0, 1] avoids log(0).
    const double u = rng.NextDouble();
    t += -std::log(1.0 - u) * mean_gap;
    if (!(t < 0x1p64)) {
      FATAL("PoissonArrivals: arrival time past the 64-bit cycle range "
            "(offered rate too low)");
    }
    arrivals[i] = static_cast<uint64_t>(t);
  }
  return arrivals;
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_FARM_LOAD_GEN_H_
