/**
 * @file
 * The benchmark's workloads and the split of the 58-app suite between
 * the two campaign workloads.
 *
 * The split is by stall profile at the commit that defined the
 * benchmark: campaign-stall holds the 17 apps that take at least 0.7
 * simulated cycles per issued warp-instruction, campaign-dense the
 * other 41. On stall-heavy apps host time goes to the GPU cycle loop
 * (warp polling, MSHR-full replays); on issue-dense apps it goes to the
 * energy accountant and its coders. The lists are fixed here rather
 * than recomputed from a run, so a simulator change cannot move an app
 * between workloads and change what a workload measures.
 */

#ifndef BVFBENCH_SUITE_SPLIT_HH
#define BVFBENCH_SUITE_SPLIT_HH

#include <string>
#include <string_view>
#include <vector>

#include "workload/app_spec.hh"

namespace bvfbench
{

/** The benchmark's workloads. */
enum class Workload
{
    CampaignStall,
    CampaignDense,
    KernelService,
};

/** Every workload, in the order BENCHMARK.json lists them. */
constexpr Workload kAllWorkloads[] = {
    Workload::CampaignStall, Workload::CampaignDense,
    Workload::KernelService};

/** Command-line name, e.g. "campaign-stall". */
std::string_view workloadName(Workload w);

/** Parse a command-line name; false when unknown. */
bool parseWorkload(std::string_view name, Workload &out);

/** Abbreviations of campaign-stall's apps, in suite order. */
const std::vector<std::string> &stallApps();

/** Abbreviations of campaign-dense's apps, in suite order. */
const std::vector<std::string> &denseApps();

/** The app specs one campaign workload simulates, in suite order. */
std::vector<bvf::workload::AppSpec> campaignApps(Workload w);

} // namespace bvfbench

#endif // BVFBENCH_SUITE_SPLIT_HH
