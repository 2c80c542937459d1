#include "src/ir/opt/pipeline.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/check.h"

namespace sgxb {

CheckSchemeLowering TaggedSchemeCheckLowering(uint32_t min_object_bytes) {
  CheckSchemeLowering s;
  s.interpose_alloc = true;
  s.mask_geps = true;
  s.set_store_imm2 = true;
  s.supports_elide_safe = true;
  s.supports_hoist = true;
  s.supports_elide_redundant = true;
  s.supports_pattern = true;
  s.min_object_bytes = min_object_bytes;
  return s;
}

CheckSchemeLowering AsanCheckLowering() {
  CheckSchemeLowering s;
  s.has_range_check = false;
  s.interpose_alloc = true;
  s.set_store_imm2 = true;
  // The historical ASan lowering checks every access unconditionally; only
  // the (default-off) redundant-check elimination is legal on top of it -
  // a dominating shadow check on the same pointer proves the same bytes
  // addressable.
  s.supports_elide_redundant = true;
  return s;
}

CheckSchemeLowering MpxCheckLowering() {
  CheckSchemeLowering s;
  s.check_op = IrOp::kMpxCheck;
  s.has_range_check = false;
  // MPX instruments accesses only: allocations are not interposed, and the
  // is-store bit is not part of bndcl/bndcu.
  s.interpose_alloc = false;
  s.set_store_imm2 = false;
  s.instrument_ptr_mem = true;
  s.supports_elide_redundant = true;
  return s;
}

namespace {

bool ConstValueOf(const IrDefMap& defs, ValueId v, int64_t* out) {
  auto it = defs.find(v);
  if (it == defs.end() || it->second.op != IrOp::kConst) {
    return false;
  }
  *out = it->second.imm;
  return true;
}

}  // namespace

CheckPassStats RunCheckPipeline(IrFunction& fn, const CheckSchemeLowering& scheme,
                                const CheckPassConfig& config) {
  CheckPassStats stats;
  const auto defs = BuildIrDefs(fn);

  // A pass runs only when the run asked for it AND the scheme's encoding
  // makes it legal.
  const bool elide_safe = config.elide_safe && scheme.supports_elide_safe;
  const bool elide_infield = config.elide_infield && scheme.min_object_bytes > 0;
  const bool hoist = config.hoist_loops && scheme.supports_hoist && scheme.has_range_check;
  const bool pattern =
      config.pattern_loops && scheme.supports_pattern && scheme.has_range_check;

  const std::vector<LoopInfo> loops =
      hoist || pattern ? FindCountedLoops(fn) : std::vector<LoopInfo>{};
  const std::vector<LoopInfo> ne_loops =
      pattern ? FindMonotonicNeLoops(fn) : std::vector<LoopInfo>{};

  // Map: block -> loop whose body contains it (canonical loops don't share
  // body blocks in builder output).
  std::unordered_map<uint32_t, const LoopInfo*> loop_of_block;
  for (const auto& loop : loops) {
    for (uint32_t b : loop.body_blocks) {
      loop_of_block[b] = &loop;
    }
  }
  std::unordered_map<uint32_t, const LoopInfo*> ne_loop_of_block;
  for (const auto& loop : ne_loops) {
    for (uint32_t b : loop.body_blocks) {
      ne_loop_of_block[b] = &loop;
    }
  }

  // Hoisted range checks to add to preheaders: (preheader, base, bound,
  // scale, offset+size).
  struct RangeCheck {
    uint32_t preheader;
    ValueId base;
    ValueId bound;
    int64_t scale;
    int64_t tail;
  };
  std::vector<RangeCheck> range_checks;
  // Deduplicate hoisted checks per (preheader, base): one range check covers
  // all accesses to the same array in the loop (keep the max tail).
  auto add_range_check = [&](const RangeCheck& rc) {
    for (auto& existing : range_checks) {
      if (existing.preheader == rc.preheader && existing.base == rc.base &&
          existing.bound == rc.bound && existing.scale == rc.scale) {
        existing.tail = std::max(existing.tail, rc.tail);
        return;
      }
    }
    range_checks.push_back(rc);
  };

  // Matches the access pointer against gep(base, iv) for a loop containing
  // `block`; fills the un-tailed range check on success.
  auto match_iv_gep = [&](const LoopInfo& loop, const IrInstr& access, RangeCheck* rc,
                          const IrInstr** gep_out) {
    const ValueId ptr = access.op == IrOp::kLoad ? access.args[0] : access.args[1];
    auto def_it = defs.find(ptr);
    if (def_it == defs.end() || def_it->second.op != IrOp::kGep) {
      return false;
    }
    const IrInstr& gep = def_it->second;
    if (gep.args[1] != loop.iv) {
      return false;  // index is not the affine IV
    }
    // Base must be defined before the loop header's phi (loop-invariant).
    if (gep.args[0] >= loop.iv) {
      return false;
    }
    rc->preheader = loop.preheader;
    rc->base = gep.args[0];
    rc->bound = loop.bound;
    rc->scale = gep.imm;
    *gep_out = &def_it->second;
    return true;
  };

  // Decide, per access, whether its check can be hoisted (SS4.4 SCEV).
  auto hoistable = [&](uint32_t block, const IrInstr& access, RangeCheck* rc) {
    if (!hoist) {
      return false;
    }
    auto it = loop_of_block.find(block);
    if (it == loop_of_block.end()) {
      return false;
    }
    const LoopInfo& loop = *it->second;
    const IrInstr* gep = nullptr;
    if (!match_iv_gep(loop, access, rc, &gep)) {
      return false;
    }
    const int64_t stride = gep->imm * loop.step;
    if (stride <= 0 || stride > static_cast<int64_t>(config.max_hoist_stride)) {
      return false;  // SS4.4 restriction
    }
    // The last iteration uses iv = bound - step, so the furthest byte touched
    // is (bound - step)*scale + offset + size = bound*scale + tail with
    // tail = offset + size - step*scale.
    rc->tail = gep->imm2 + IrTypeSize(access.type) - loop.step * gep->imm;
    return true;
  };

  // Pattern-based loop optimization (ShadowBound PatternOpt): one range
  // check per array even when the SCEV window rejects the loop. Two legal
  // shapes, both requiring a provable final IV value so the hoisted extent
  // is exact (no false positives, no missed detections):
  //   (a) kSLt counted loops whose stride exceeds the SS4.4 window, with
  //       constant start/bound: max_iv = start + floor((bound-1-start)/step)*step.
  //   (b) monotonic kNe loops (FindMonotonicNeLoops proved divisibility):
  //       max_iv = bound - step, the same extent formula as SCEV hoisting.
  auto pattern_hoistable = [&](uint32_t block, const IrInstr& access, RangeCheck* rc) {
    if (!pattern) {
      return false;
    }
    if (auto it = loop_of_block.find(block); it != loop_of_block.end()) {
      const LoopInfo& loop = *it->second;
      const IrInstr* gep = nullptr;
      int64_t start = 0;
      int64_t bound = 0;
      if (match_iv_gep(loop, access, rc, &gep) && gep->imm * loop.step > 0 &&
          ConstValueOf(defs, loop.start, &start) &&
          ConstValueOf(defs, loop.bound, &bound) && bound > start) {
        const int64_t max_iv = start + ((bound - 1 - start) / loop.step) * loop.step;
        rc->tail = (max_iv - bound) * gep->imm + gep->imm2 + IrTypeSize(access.type);
        return true;
      }
    }
    if (auto it = ne_loop_of_block.find(block); it != ne_loop_of_block.end()) {
      const LoopInfo& loop = *it->second;
      const IrInstr* gep = nullptr;
      if (match_iv_gep(loop, access, rc, &gep) && gep->imm * loop.step > 0) {
        rc->tail = gep->imm2 + IrTypeSize(access.type) - loop.step * gep->imm;
        return true;
      }
    }
    return false;
  };

  // Rewrite each block: tag allocations, mask geps, insert checks.
  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    std::vector<IrInstr> out;
    out.reserve(fn.blocks[b].instrs.size() * 2);
    for (auto& instr : fn.blocks[b].instrs) {
      switch (instr.op) {
        case IrOp::kMalloc:
        case IrOp::kAlloca:
        case IrOp::kFree:
          if (scheme.interpose_alloc) {
            instr.symbol = kSchemeAllocSymbol;
          }
          out.push_back(instr);
          break;
        case IrOp::kGep: {
          if (!scheme.mask_geps) {
            out.push_back(instr);
            break;
          }
          // Rename the gep result and re-tag via kMaskPtr under the original
          // id, so existing uses see the masked pointer.
          IrInstr gep = instr;
          const ValueId original = gep.id;
          gep.id = fn.num_values++;
          out.push_back(gep);
          IrInstr mask;
          mask.id = original;
          mask.op = IrOp::kMaskPtr;
          mask.type = IrType::kPtr;
          mask.args = {gep.id, gep.args[0]};
          out.push_back(mask);
          ++stats.geps_masked;
          break;
        }
        case IrOp::kLoad:
        case IrOp::kStore: {
          const ValueId ptr = instr.op == IrOp::kLoad ? instr.args[0] : instr.args[1];
          RangeCheck rc;
          if (elide_safe && IsSafeIrAccess(defs, instr)) {
            ++stats.checks_elided_safe;
          } else if (elide_infield &&
                     IsInFieldIrAccess(defs, instr, scheme.min_object_bytes)) {
            ++stats.checks_elided_infield;
          } else if (hoistable(b, instr, &rc)) {
            add_range_check(rc);
            ++stats.checks_hoisted;
          } else if (pattern_hoistable(b, instr, &rc)) {
            add_range_check(rc);
            ++stats.checks_pattern_hoisted;
          } else {
            IrInstr check;
            check.op = scheme.check_op;
            check.args = {ptr};
            check.imm = IrTypeSize(instr.type);
            check.imm2 =
                scheme.set_store_imm2 && instr.op == IrOp::kStore ? 1 : 0;
            out.push_back(check);
            ++stats.checks_inserted;
          }
          out.push_back(instr);
          if (scheme.instrument_ptr_mem && instr.type == IrType::kPtr) {
            if (instr.op == IrOp::kLoad) {
              // Loaded a pointer: fetch its bounds from the tables.
              IrInstr ldx;
              ldx.op = IrOp::kMpxLdx;
              ldx.args = {instr.id, instr.args[0]};
              out.push_back(ldx);
              ++stats.ptr_loads_instrumented;
            } else {
              IrInstr stx;
              stx.op = IrOp::kMpxStx;
              stx.args = {instr.args[0], instr.args[1]};
              out.push_back(stx);
              ++stats.ptr_stores_instrumented;
            }
          }
          break;
        }
        default:
          out.push_back(instr);
          break;
      }
    }
    fn.blocks[b].instrs = std::move(out);
  }

  // Materialize hoisted range checks in preheaders, before the terminator:
  //   extent = bound * scale + tail ; check.range base, extent
  for (const auto& rc : range_checks) {
    auto& instrs = fn.blocks[rc.preheader].instrs;
    CHECK(!instrs.empty());
    std::vector<IrInstr> seq;
    IrInstr c1;
    c1.id = fn.num_values++;
    c1.op = IrOp::kConst;
    c1.imm = rc.scale;
    seq.push_back(c1);
    IrInstr mul;
    mul.id = fn.num_values++;
    mul.op = IrOp::kMul;
    mul.args = {rc.bound, c1.id};
    seq.push_back(mul);
    IrInstr c2;
    c2.id = fn.num_values++;
    c2.op = IrOp::kConst;
    c2.imm = rc.tail;
    seq.push_back(c2);
    IrInstr add;
    add.id = fn.num_values++;
    add.op = IrOp::kAdd;
    add.args = {mul.id, c2.id};
    seq.push_back(add);
    IrInstr check;
    check.op = IrOp::kSchemeCheckRange;
    check.args = {rc.base, add.id};
    seq.push_back(check);
    instrs.insert(instrs.end() - 1, seq.begin(), seq.end());
  }

  // Post-pass: redundant-check elimination via dominating checks.
  if (config.elide_redundant && scheme.supports_elide_redundant) {
    stats.checks_elided_redundant = EliminateRedundantChecks(fn, scheme.check_op);
    stats.checks_inserted -= stats.checks_elided_redundant;
  }

  return stats;
}

uint32_t EliminateRedundantChecks(IrFunction& fn, IrOp check_op) {
  const DominatorTree dom(fn);
  uint32_t removed = 0;
  // Final available-check map per block: SSA pointer -> widest size checked.
  // A block inherits its idom's final map: every instruction of the idom
  // executes before any instruction of a dominated block (the branch is the
  // idom's last instruction), and the relation is transitive up the chain.
  std::vector<std::unordered_map<ValueId, int64_t>> avail(fn.blocks.size());
  for (uint32_t b : dom.rpo()) {
    auto& map = avail[b];
    if (dom.idom(b) != DominatorTree::kNone) {
      map = avail[dom.idom(b)];  // idom precedes b in RPO: already final
    }
    auto& instrs = fn.blocks[b].instrs;
    std::vector<IrInstr> out;
    out.reserve(instrs.size());
    for (auto& instr : instrs) {
      if (instr.op == check_op) {
        const ValueId ptr = instr.args[0];
        auto it = map.find(ptr);
        if (it != map.end() && it->second >= instr.imm) {
          ++removed;  // dominated by an equal-or-wider check: delete
          continue;
        }
        int64_t& widest = map[ptr];
        widest = std::max(widest, instr.imm);
      }
      out.push_back(instr);
    }
    instrs = std::move(out);
  }
  return removed;
}

}  // namespace sgxb
