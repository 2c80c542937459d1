#include "src/fault/shard_fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/flags.h"
#include "src/common/rng.h"

namespace sgxb {

namespace {

constexpr const char* kKindNames[kShardFaultKindCount] = {
    "crash",
    "hang",
    "epc_storm",
    "poison",
};

constexpr const char* kKindChoices = "crash|hang|epc_storm|poison";

}  // namespace

const char* ShardFaultKindName(ShardFaultKind kind) {
  return kKindNames[static_cast<uint8_t>(kind)];
}

bool ParseShardFaultKind(const std::string& text, ShardFaultKind* out) {
  for (uint32_t i = 0; i < kShardFaultKindCount; ++i) {
    if (text == kKindNames[i]) {
      *out = static_cast<ShardFaultKind>(i);
      return true;
    }
  }
  return false;
}

std::string ShardFaultPlan::ToSpec() const {
  std::string spec;
  for (const ShardFaultEvent& event : events) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s@%u:%llu", spec.empty() ? "" : ";",
                  ShardFaultKindName(event.kind), event.shard,
                  static_cast<unsigned long long>(event.at_request));
    spec += buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%sseed=%llu", spec.empty() ? "" : ";",
                static_cast<unsigned long long>(seed));
  spec += buf;
  return spec;
}

bool ShardFaultPlan::Parse(const std::string& spec, ShardFaultPlan* out,
                           std::string* error) {
  ShardFaultPlan plan;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t sep = spec.find_first_of(";,", pos);
    if (sep == std::string::npos) {
      sep = spec.size();
    }
    const std::string token = Trimmed(spec.substr(pos, sep - pos));
    pos = sep + 1;
    if (token.empty()) {
      if (pos > spec.size()) {
        break;
      }
      continue;
    }
    if (token.rfind("seed=", 0) == 0) {
      if (!ParseUnsigned(token.substr(5), &plan.seed, 10)) {
        if (error != nullptr) {
          *error = "bad shard-fault seed '" + token + "' (want seed=N)";
        }
        return false;
      }
      continue;
    }

    const size_t at_sign = token.find('@');
    const size_t colon = token.find(':', at_sign == std::string::npos ? 0 : at_sign);
    if (at_sign == std::string::npos || colon == std::string::npos) {
      if (error != nullptr) {
        *error = "bad shard-fault event '" + token +
                 "' (want KIND@SHARD:REQUEST; kinds: " + kKindChoices + ")";
      }
      return false;
    }

    ShardFaultEvent event;
    const std::string kind_text = Trimmed(token.substr(0, at_sign));
    if (!ParseShardFaultKind(kind_text, &event.kind)) {
      if (error != nullptr) {
        *error = "unknown shard-fault kind '" + kind_text + "' (valid: " +
                 kKindChoices + ")";
      }
      return false;
    }
    uint64_t shard = 0;
    if (!ParseUnsigned(Trimmed(token.substr(at_sign + 1, colon - at_sign - 1)), &shard, 10) ||
        shard > 0xffffffffull) {
      if (error != nullptr) {
        *error = "bad shard index in '" + token + "' (want KIND@SHARD:REQUEST)";
      }
      return false;
    }
    event.shard = static_cast<uint32_t>(shard);
    if (!ParseUnsigned(Trimmed(token.substr(colon + 1)), &event.at_request, 10) ||
        event.at_request == 0) {
      if (error != nullptr) {
        *error = "bad request trigger in '" + token + "' (want a positive integer)";
      }
      return false;
    }
    plan.events.push_back(event);
  }
  *out = std::move(plan);
  return true;
}

ShardFaultPlan ShardFaultPlan::Sampled(uint64_t seed, uint32_t shards, uint64_t requests,
                                       uint32_t events) {
  ShardFaultPlan plan;
  plan.seed = seed;
  if (shards == 0 || requests < 8) {
    return plan;
  }
  // Placement rng decoupled from the plan seed so a rate sweep at one seed
  // grows the event set monotonically (event i is identical at every rate
  // that includes it).
  Rng rng(seed ^ 0x5ca1ab1e0ddba11ull);
  const uint64_t lo = requests / 8;
  const uint64_t hi = (3 * requests) / 4;
  for (uint32_t i = 0; i < events; ++i) {
    ShardFaultEvent event;
    // Weighted kinds: half the campaign is crashes (where the recovery
    // policies differ most), the rest split across hang/epc_storm/poison.
    const uint64_t k = rng.NextBounded(8);
    if (k < 4) {
      event.kind = ShardFaultKind::kCrash;
    } else if (k < 6) {
      event.kind = ShardFaultKind::kHang;
    } else if (k < 7) {
      event.kind = ShardFaultKind::kEpcStorm;
    } else {
      event.kind = ShardFaultKind::kPoison;
    }
    event.shard = static_cast<uint32_t>(rng.NextBounded(shards));
    event.at_request = lo + rng.NextBounded(hi - lo + 1);
    plan.events.push_back(event);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const ShardFaultEvent& a, const ShardFaultEvent& b) {
              return a.at_request != b.at_request ? a.at_request < b.at_request
                                                  : a.shard < b.shard;
            });
  return plan;
}

}  // namespace sgxb
