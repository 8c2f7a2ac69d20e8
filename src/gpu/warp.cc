/**
 * @file
 * Warp scoreboard reset.
 */

#include "gpu/warp.hh"

namespace bvf::gpu
{

void
Warp::init(int warpIdInBlock, int blockId, int blockThreads)
{
    WarpState::init(warpIdInBlock, blockId, blockThreads);
    pendingLoads = 0;
    atBarrier = false;
    lastIssueCycle = 0;
    regReady_.fill(0);
    predReady_.fill(0);
}

} // namespace bvf::gpu
