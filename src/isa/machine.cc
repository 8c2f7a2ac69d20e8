/**
 * @file
 * Warp state, SIMT stack and per-lane execution.
 */

#include "isa/machine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace bvf::isa
{

void
WarpState::init(int warpIdInBlock, int blockId, int blockThreads)
{
    warpIdInBlock_ = warpIdInBlock;
    blockId_ = blockId;
    done_ = false;

    const int first_thread = warpIdInBlock * warpSize;
    const int live = std::max(0, std::min(warpSize,
                                          blockThreads - first_thread));
    existMask_ = live == warpSize ? fullMask
                                  : ((1u << live) - 1u);
    panic_if(live == 0, "warp with no live threads");

    stack_.clear();
    stack_.push_back(SimtEntry{0, existMask_, -1});

    regs_.fill(0);
    preds_.fill(false);
}

std::uint32_t
WarpState::guardMask(const Instruction &instr) const
{
    std::uint32_t mask = activeMask();
    if (!readsGuard(instr))
        return mask;
    std::uint32_t pass = 0;
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((mask >> lane) & 1u))
            continue;
        bool p = predicate(lane, instr.pred);
        if (instr.predNegate)
            p = !p;
        if (p)
            pass |= 1u << lane;
    }
    return pass;
}

void
WarpState::diverge(std::uint32_t takenMask, int target, int fallthrough,
                   int reconv)
{
    SimtEntry &top = stack_.back();
    const std::uint32_t mask = top.mask;
    const std::uint32_t not_taken = mask & ~takenMask;
    panic_if((takenMask & ~mask) != 0, "taken lanes outside active mask");
    panic_if(takenMask == 0 || not_taken == 0,
             "diverge() requires an actually divergent branch");

    // The current entry becomes the reconvergence point; the two sides
    // execute above it (taken side first).
    top.pc = reconv;
    stack_.push_back(SimtEntry{fallthrough, not_taken, reconv});
    stack_.push_back(SimtEntry{target, takenMask, reconv});
}

bool
WarpState::branch(const Instruction &instr, std::uint32_t guard)
{
    if (guard == 0) {
        advancePc();
        return false;
    }
    if (guard == activeMask()) {
        setPc(instr.imm);
        return false;
    }
    diverge(guard, instr.imm, pc() + 1, instr.reconv);
    return true;
}

void
WarpState::reconvergeIfNeeded()
{
    while (stack_.size() > 1 && stack_.back().pc == stack_.back().rpc)
        stack_.pop_back();
}

Word
WarpState::specialValue(int lane, SpecialReg sr,
                        const LaunchDims &launch) const
{
    switch (sr) {
      case SpecialReg::LaneId:
        return static_cast<Word>(lane);
      case SpecialReg::WarpId:
        return static_cast<Word>(warpIdInBlock_);
      case SpecialReg::TidX:
        return static_cast<Word>(warpIdInBlock_ * warpSize + lane);
      case SpecialReg::CtaIdX:
        return static_cast<Word>(blockId_);
      case SpecialReg::NTidX:
        return static_cast<Word>(launch.blockThreads);
      case SpecialReg::GridDimX:
        return static_cast<Word>(launch.gridBlocks);
    }
    panic("unknown special register");
}

void
WarpState::executeAlu(const Instruction &instr, std::uint32_t guard,
                      const LaunchDims &launch)
{
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        if (instr.op == Opcode::S2R) {
            setReg(lane, instr.dst,
                   specialValue(lane, static_cast<SpecialReg>(instr.flags),
                                launch));
            continue;
        }
        const Word b = instr.immB ? static_cast<Word>(instr.imm)
                                  : reg(lane, instr.srcB);
        const Word result = evalLane(instr.op, reg(lane, instr.srcA), b,
                                     reg(lane, instr.dst), instr.flags);
        if (instr.op == Opcode::SetP) {
            setPredicate(lane, instr.dst, result != 0);
            continue;
        }
        setReg(lane, instr.dst, result);
    }
}

} // namespace bvf::isa
