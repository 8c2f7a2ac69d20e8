/**
 * @file
 * The functional BVFK machine, defined once: one warp's architectural
 * state and the memory-space address rules.
 *
 * The cycle-level SM (gpu/sm.cc, whose gpu::Warp adds only scoreboard
 * and timing state) and the reference interpreter the translation
 * validator runs (analysis/equiv.cc) both execute on a WarpState and
 * address memory through the functions below, so they agree on
 * registers, predicates, guard masks, S2R values, SIMT divergence and
 * reconvergence, and on what every out-of-segment access does.
 */

#ifndef BVF_ISA_MACHINE_HH
#define BVF_ISA_MACHINE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace bvf::isa
{

/** Lanes per warp. */
constexpr int warpSize = 32;

/** Full active mask. */
constexpr std::uint32_t fullMask = 0xffffffffu;

/** One SIMT stack entry. */
struct SimtEntry
{
    int pc = 0;                    //!< next instruction index
    std::uint32_t mask = fullMask; //!< lanes active in this entry
    int rpc = -1;                  //!< reconvergence pc (-1 = none)
};

/**
 * One warp's architectural state: per-lane registers and predicates,
 * the SIMT reconvergence stack, and its place in the launch.
 */
class WarpState
{
  public:
    /**
     * Initialize for execution: pc 0, zero registers, false predicates.
     *
     * @param warpIdInBlock warp index within its thread block
     * @param blockId block index within the grid
     * @param blockThreads threads per block (to mask the tail warp)
     */
    void init(int warpIdInBlock, int blockId, int blockThreads);

    bool done() const { return done_; }
    void setDone() { done_ = true; }

    /** Current pc (top of SIMT stack). */
    int pc() const { return stack_.back().pc; }

    /** Current active mask. */
    std::uint32_t activeMask() const { return stack_.back().mask; }

    /** Advance the top-of-stack pc (sequential flow). */
    void advancePc() { ++stack_.back().pc; }

    /** Set the top-of-stack pc (uniform branch). */
    void setPc(int pc) { stack_.back().pc = pc; }

    /**
     * Handle a divergent branch: @p takenMask lanes jump to @p target,
     * the rest fall through to @p fallthrough; all reconverge at
     * @p reconv.
     */
    void diverge(std::uint32_t takenMask, int target, int fallthrough,
                 int reconv);

    /**
     * Execute branch @p instr whose guard passes the lanes in @p guard:
     * none falls through, all active lanes jump, anything else splits
     * the warp until the reconvergence point. Returns whether it split.
     */
    bool branch(const Instruction &instr, std::uint32_t guard);

    /** Pop reconverged entries; call before each fetch. */
    void reconvergeIfNeeded();

    /** SIMT stack depth (for tests). */
    std::size_t stackDepth() const { return stack_.size(); }

    // --- register state ----------------------------------------------

    /** Value of register @p r in lane @p lane. */
    Word
    reg(int lane, int r) const
    {
        return regs_[static_cast<std::size_t>(r * warpSize + lane)];
    }

    void
    setReg(int lane, int r, Word value)
    {
        regs_[static_cast<std::size_t>(r * warpSize + lane)] = value;
    }

    /** Whole-warp view of register @p r (32 consecutive words). */
    std::span<const Word>
    regBlock(int r) const
    {
        return {&regs_[static_cast<std::size_t>(r * warpSize)],
                static_cast<std::size_t>(warpSize)};
    }

    bool
    predicate(int lane, int p) const
    {
        return preds_[static_cast<std::size_t>(p * warpSize + lane)];
    }

    void
    setPredicate(int lane, int p, bool v)
    {
        preds_[static_cast<std::size_t>(p * warpSize + lane)] = v;
    }

    /** Guard mask: active lanes passing the instruction's guard. */
    std::uint32_t guardMask(const Instruction &instr) const;

    /** Byte address a memory instruction accesses in @p lane. */
    std::uint32_t
    laneAddress(int lane, const Instruction &instr) const
    {
        return reg(lane, instr.srcA) + static_cast<std::uint32_t>(instr.imm);
    }

    /** Special register @p sr as lane @p lane of this warp reads it. */
    Word specialValue(int lane, SpecialReg sr,
                      const LaunchDims &launch) const;

    /**
     * Execute data-path instruction @p instr (ALU, S2R or SetP) in the
     * lanes of @p guard: the register or predicate write, per lane
     * through evalLane (isa/semantics.hh).
     */
    void executeAlu(const Instruction &instr, std::uint32_t guard,
                    const LaunchDims &launch);

    int warpIdInBlock() const { return warpIdInBlock_; }
    int blockId() const { return blockId_; }

    /** Lanes that exist (partial tail warps of odd-sized blocks). */
    std::uint32_t existMask() const { return existMask_; }

  private:
    int warpIdInBlock_ = 0;
    int blockId_ = 0;
    bool done_ = false;
    std::uint32_t existMask_ = fullMask;
    std::vector<SimtEntry> stack_;
    std::array<Word, static_cast<std::size_t>(numRegisters) * warpSize>
        regs_{};
    std::array<bool, static_cast<std::size_t>(numPredicates) * warpSize>
        preds_{};
};

// --- memory-space address rules --------------------------------------

/** Global word at byte address @p addr; outside the segment reads 0. */
inline Word
readGlobal(std::span<const Word> image, std::uint32_t addr)
{
    if (addr < globalSegmentBase)
        return 0;
    const std::size_t idx = (addr - globalSegmentBase) / 4;
    return idx < image.size() ? image[idx] : Word(0);
}

/** Write a global word; a write outside the segment is dropped. */
inline void
writeGlobal(std::span<Word> image, std::uint32_t addr, Word value)
{
    if (addr < globalSegmentBase)
        return;
    const std::size_t idx = (addr - globalSegmentBase) / 4;
    if (idx < image.size())
        image[idx] = value;
}

/**
 * Word index of shared byte offset @p addr in a @p words-word segment:
 * the offset wraps around the segment (index 0 when it is empty).
 */
inline std::size_t
sharedIndex(std::uint32_t addr, std::size_t words)
{
    return words ? (addr / 4) % words : 0;
}

/** Shared word at byte offset @p addr; an empty segment reads 0. */
inline Word
readShared(std::span<const Word> shared, std::uint32_t addr)
{
    return shared.empty() ? 0 : shared[sharedIndex(addr, shared.size())];
}

/** Write a shared word; a write to an empty segment is dropped. */
inline void
writeShared(std::span<Word> shared, std::uint32_t addr, Word value)
{
    if (!shared.empty())
        shared[sharedIndex(addr, shared.size())] = value;
}

/**
 * Constant/texture byte address @p addr as the access resolves it:
 * modulo the image size, then word-aligned.
 */
inline std::uint32_t
imageAddress(std::uint32_t addr, std::size_t imageWords)
{
    if (imageWords != 0)
        addr %= static_cast<std::uint32_t>(imageWords * 4);
    return addr & ~3u;
}

/** Constant/texture word at resolved address @p addr (0 past the image). */
inline Word
imageWord(std::span<const Word> image, std::uint32_t addr)
{
    const std::size_t idx = addr / 4;
    return idx < image.size() ? image[idx] : Word(0);
}

} // namespace bvf::isa

#endif // BVF_ISA_MACHINE_HH
