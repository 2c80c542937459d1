// Per-request containment wrappers for the service-style apps (SS7).
//
// The paper's shielded services *detect* memory-safety events; these wrappers
// are the layer that *survives* them. Every request runs under env.Serve():
// a trap classifies as transient (retried with backoff) or containable (the
// request is dropped, the service keeps going). Used by the fault-injection
// campaigns (bench/fig14_fault_campaign) to measure the detection /
// containment / silent-corruption matrix per scheme.
//
// The kvstore campaign additionally keeps a host-side oracle (std::map
// mirror of every acknowledged write), so a wild write or metadata flip that
// slips past the scheme's checks is still visible as an oracle mismatch -
// the "silent corruption" column no in-simulation counter can provide.

#ifndef SGXBOUNDS_SRC_APPS_CONTAINED_SERVICE_H_
#define SGXBOUNDS_SRC_APPS_CONTAINED_SERVICE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/apps/httpd.h"
#include "src/apps/kvstore.h"
#include "src/apps/memcached.h"
#include "src/apps/netserver.h"
#include "src/policy/run.h"

namespace sgxb {

struct ServiceResult {
  uint64_t served = 0;
  uint64_t dropped = 0;
};

struct OracleKvResult {
  uint64_t served = 0;
  uint64_t dropped = 0;
  // Point queries whose outcome was compared against the host-side mirror.
  uint64_t oracle_checks = 0;
  // Served queries that returned a wrong value or wrong presence: corruption
  // the scheme under test did not catch.
  uint64_t oracle_mismatches = 0;
};

// KvStore request stream (insert/get/update/scan mix) with every
// acknowledged write mirrored host-side. Request keys and the op mix are a
// pure function of `seed`.
template <typename P>
OracleKvResult RunOracleKvCampaign(Env<P>& env, uint64_t requests, uint64_t keyspace,
                                   uint32_t value_bytes, uint64_t seed) {
  KvStore<P> store(&env.policy, &env.cpu);
  std::map<uint64_t, uint64_t> oracle;  // key -> expected first value word
  Rng rng(seed);
  OracleKvResult result;
  for (uint64_t r = 0; r < requests; ++r) {
    const uint64_t key = rng.NextBounded(keyspace);
    const uint64_t op = rng.NextBounded(8);
    bool served = false;
    if (op < 4) {
      served = env.Serve([&] { store.Insert(key, value_bytes); });
      if (served) {
        oracle[key] = key;  // Insert fills word 0 with key ^ 0
      }
    } else if (op < 6) {
      uint64_t word = 0;
      bool hit = false;
      served = env.Serve([&] { hit = store.Get(key, &word); });
      if (served) {
        ++result.oracle_checks;
        const auto it = oracle.find(key);
        const bool expect_hit = it != oracle.end();
        if (hit != expect_hit || (hit && word != it->second)) {
          ++result.oracle_mismatches;
        }
      }
    } else if (op < 7) {
      const uint64_t new_word = key * 0x9e3779b97f4a7c15ULL + r;
      bool updated = false;
      served = env.Serve([&] { updated = store.Update(key, new_word); });
      if (served && updated) {
        oracle[key] = new_word;
      }
    } else {
      served = env.Serve([&] { store.Scan(key, 8); });
    }
    served ? ++result.served : ++result.dropped;
  }
  return result;
}

// Httpd: open `connections` clients, then serve `requests` GETs round-robin.
// A connection whose setup traps is abandoned; its requests fall to the
// surviving connections.
template <typename P>
ServiceResult RunContainedHttpdWorkload(Env<P>& env, uint32_t connections,
                                        uint64_t requests) {
  SyscallShim shim(&env.enclave);
  Httpd<P> httpd(&env.policy, &env.cpu, &shim);
  ServiceResult result;
  std::vector<uint32_t> live;
  for (uint32_t c = 0; c < connections; ++c) {
    env.Serve([&] { live.push_back(httpd.OpenConnection()); });
  }
  const std::string request = "GET / HTTP/1.1\r\nHost: enclave\r\n\r\n";
  for (uint64_t r = 0; r < requests; ++r) {
    if (live.empty()) {
      result.dropped += requests - r;
      break;
    }
    const uint32_t cid = live[r % live.size()];
    const bool served = env.Serve([&] { httpd.ServeGet(cid, request); });
    served ? ++result.served : ++result.dropped;
  }
  return result;
}

// Memcached: memaslap-style get/set mix over the text protocol.
template <typename P>
ServiceResult RunContainedMemcachedWorkload(Env<P>& env, uint64_t requests,
                                            uint64_t keyspace, uint64_t seed) {
  SyscallShim shim(&env.enclave);
  Memcached<P> cache(&env.policy, &env.cpu, &shim, /*buckets=*/1 << 10);
  Rng rng(seed);
  ServiceResult result;
  char wire[64];
  for (uint64_t r = 0; r < requests; ++r) {
    const uint64_t key = rng.NextZipf(keyspace, 0.99);
    if (rng.NextBounded(10) < 9) {
      std::snprintf(wire, sizeof(wire), "G %llu\n", static_cast<unsigned long long>(key));
    } else {
      std::snprintf(wire, sizeof(wire), "S %llu 128\n",
                    static_cast<unsigned long long>(key));
    }
    const bool served = env.Serve([&] { cache.ServeRequest(wire); });
    served ? ++result.served : ++result.dropped;
  }
  return result;
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_APPS_CONTAINED_SERVICE_H_
