/**
 * @file
 * Certificate enforcement implementation.
 */

#include "core/contract.hh"

#include "common/logging.hh"
#include "gpu/warp.hh"
#include "isa/opcode.hh"

namespace bvf::core
{

void
ContractProbe::onIssue(int smId, int pc, const isa::Instruction &instr,
                       const gpu::Warp &warp, std::uint32_t guard,
                       std::uint64_t cycle)
{
    (void)smId;
    (void)cycle;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(warp.blockId()))
         << 32)
        | static_cast<std::uint32_t>(warp.warpIdInBlock());
    WarpTally &tally = tallies_[key];

    // A memory instruction that stalls structurally re-fires the probe
    // on its retry; two consecutive probe firings from one warp at one
    // memory pc are the same architectural issue (a genuine loop
    // revisit always issues the backward branch in between).
    const bool retry =
        isa::isMemoryOp(instr.op) && tally.lastPc == pc;
    tally.lastPc = pc;
    if (retry)
        return;

    ++tally.issued;
    if (tally.issued > maxIssued_)
        maxIssued_ = tally.issued;
    fatal_if(tally.issued > cert_.warpTripBound,
             "verifier contract violated: warp %d of block %d issued "
             "%llu instructions, certificate bound %llu (pc %d)",
             warp.warpIdInBlock(), warp.blockId(),
             static_cast<unsigned long long>(tally.issued),
             static_cast<unsigned long long>(cert_.warpTripBound), pc);

    if (!isa::isMemoryOp(instr.op) || guard == 0)
        return;

    // The scoreboard held this warp until the address register was
    // written back, so reg(lane, srcA) is the architectural value.
    const analysis::FootprintBounds &fp = [&]() -> const auto & {
        switch (instr.op) {
          case isa::Opcode::Lds:
          case isa::Opcode::Sts: return cert_.shared;
          case isa::Opcode::Ldc: return cert_.constant;
          case isa::Opcode::Ldt: return cert_.texture;
          default: return cert_.global;
        }
    }();
    for (int lane = 0; lane < gpu::warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t addr = warp.laneAddress(lane, instr);
        ++checkedAccesses_;
        fatal_if(!fp.contains(addr),
                 "verifier contract violated: %s at pc %d touches byte "
                 "%u outside the proven footprint [%u, %u]",
                 isa::opcodeName(instr.op).c_str(), pc, addr, fp.lo,
                 fp.hi);
    }
}

} // namespace bvf::core
