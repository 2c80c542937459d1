// FNV-1a 64-bit hashing: the one implementation behind the repo's structural
// hashes and result digests (trace stream hashes, cost-table and SimConfig
// ids, IR decode-cache keys, farm, sweep and latency-histogram digests).

#ifndef SGXBOUNDS_SRC_COMMON_DIGEST_H_
#define SGXBOUNDS_SRC_COMMON_DIGEST_H_

#include <cstddef>
#include <cstdint>

namespace sgxb {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;  // 14695981039346656037
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// The seed the farm, resilience and latency-histogram digests have always
// used: the FNV offset basis one digit short (1469598103934665603, not
// 14695981039346656037). Kept as is so pinned digests stay identical.
inline constexpr uint64_t kLegacyDigestSeed = 1469598103934665603ull;

// Folds the bytes [data, data + n) into `h`.
inline uint64_t FnvUpdate(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * kFnvPrime;
  }
  return h;
}

// Folds the 64-bit word `v` into `h`, least significant byte first.
inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
  return h;
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_DIGEST_H_
