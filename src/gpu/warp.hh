/**
 * @file
 * Warp execution state in the SM: the functional warp (isa/machine.hh)
 * plus the scoreboard and scheduling state the timing model adds.
 */

#ifndef BVF_GPU_WARP_HH
#define BVF_GPU_WARP_HH

#include <array>
#include <cstdint>

#include "isa/machine.hh"

namespace bvf::gpu
{

using isa::fullMask;
using isa::warpSize;

/** Per-warp architectural and micro-architectural state. */
class Warp : public isa::WarpState
{
  public:
    /** Initialize for execution (see isa::WarpState::init). */
    void init(int warpIdInBlock, int blockId, int blockThreads);

    // --- scoreboard ----------------------------------------------------

    /** Cycle at which register @p r becomes readable. */
    std::uint64_t
    regReadyCycle(int r) const
    {
        return regReady_[static_cast<std::size_t>(r)];
    }

    void
    setRegReadyCycle(int r, std::uint64_t cycle)
    {
        regReady_[static_cast<std::size_t>(r)] = cycle;
    }

    std::uint64_t
    predReadyCycle(int p) const
    {
        return predReady_[static_cast<std::size_t>(p)];
    }

    void
    setPredReadyCycle(int p, std::uint64_t cycle)
    {
        predReady_[static_cast<std::size_t>(p)] = cycle;
    }

    /** Outstanding load count (loads keep the register busy). */
    int pendingLoads = 0;

    /** Waiting at a block barrier. */
    bool atBarrier = false;

    /** Last cycle this warp issued (GTO greedy state). */
    std::uint64_t lastIssueCycle = 0;

  private:
    std::array<std::uint64_t, isa::numRegisters> regReady_{};
    std::array<std::uint64_t, isa::numPredicates> predReady_{};
};

} // namespace bvf::gpu

#endif // BVF_GPU_WARP_HH
