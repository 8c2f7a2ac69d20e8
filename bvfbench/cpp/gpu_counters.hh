/**
 * @file
 * Exact simulator work counters, summed over the runs of one pass.
 * They repeat bit for bit across runs of the same code, so they are
 * the counters a simulator-only speedup must leave unchanged.
 */

#ifndef BVFBENCH_GPU_COUNTERS_HH
#define BVFBENCH_GPU_COUNTERS_HH

#include <cstdint>

#include "gpu/gpu.hh"
#include "outcome.hh"

namespace bvfbench
{

struct GpuCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t issued = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t nocPackets = 0;
    std::uint64_t nocFlits = 0;
    std::uint64_t nocLatency = 0; //!< summed packet transit cycles

    void
    add(const bvf::gpu::GpuStats &g)
    {
        cycles += g.cycles;
        issued += g.sm.issued;
        idleCycles += g.sm.idleCycles;
        l2Hits += g.l2Hits;
        l2Misses += g.l2Misses;
        dramRowHits += g.dramRowHits;
        dramRowMisses += g.dramRowMisses;
        nocPackets += g.noc.packets;
        nocFlits += g.noc.flits;
        nocLatency += g.noc.totalLatency;
    }

    /** The gpu.* and noc.* per-layer metrics. */
    void
    report(Outcome &out) const
    {
        auto ratio = [](std::uint64_t num, std::uint64_t den) {
            return den == 0 ? 0.0
                            : static_cast<double>(num)
                                  / static_cast<double>(den);
        };
        out.add("gpu.cycles", static_cast<double>(cycles), "count");
        out.add("gpu.issued", static_cast<double>(issued), "count");
        out.add("gpu.idle_cycles", static_cast<double>(idleCycles), "count");
        out.add("gpu.l2_miss_ratio", ratio(l2Misses, l2Hits + l2Misses),
                "ratio");
        out.add("gpu.dram_row_hit_ratio",
                ratio(dramRowHits, dramRowHits + dramRowMisses), "ratio");
        out.add("noc.flits", static_cast<double>(nocFlits), "count");
        out.add("noc.mean_latency_cycles", ratio(nocLatency, nocPackets),
                "cycles");
    }

    bool operator==(const GpuCounters &) const = default;
};

} // namespace bvfbench

#endif // BVFBENCH_GPU_COUNTERS_HH
