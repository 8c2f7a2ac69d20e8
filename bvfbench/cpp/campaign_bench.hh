/**
 * @file
 * The campaign workloads: a serial campaign over one half of the suite.
 *
 * The untraced pass is one campaign::CampaignRunner::run (jobs = 1)
 * over the workload's apps.
 *
 * The traced run goes app by app: a one-app CampaignRunner::run, and
 * a reproduction of ExperimentDriver::runProgram's composition (build
 * the program, accountant behind the GPU, run, finalize, price) with a
 * timing decorator between the GPU and the accountant. All of them
 * must render identical report bytes.
 */

#ifndef BVFBENCH_CAMPAIGN_BENCH_HH
#define BVFBENCH_CAMPAIGN_BENCH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/experiment.hh"
#include "gpu_counters.hh"
#include "outcome.hh"
#include "suite_split.hh"
#include "trace.hh"

namespace bvfbench
{

/** Deterministic work counters of one traced pass, summed over apps. */
struct CampaignCounters
{
    GpuCounters gpu;
    std::uint64_t accountantWords = 0; //!< words handed to the accountant
    std::uint64_t accountantCalls = 0;

    bool operator==(const CampaignCounters &) const = default;
};

/** One untraced campaign pass. */
struct CampaignPass
{
    double wallS = 0;
    bvf::campaign::CampaignReport report;
};

/** Per-layer host time of one traced pass [s]. */
struct CampaignLayers
{
    double buildS = 0;      //!< workload::buildProgram
    double gpuRunS = 0;     //!< gpu::Gpu::run, sink calls included
    double accountantS = 0; //!< sink calls into the accountant + finalize
    double evaluateS = 0;   //!< ExperimentDriver::evaluate
};

/** One traced campaign pass. */
struct TracedPass
{
    double wallS = 0;
    bvf::campaign::CampaignReport report;
    CampaignLayers layers;
    double gpuSinkS = 0; //!< part of gpuRunS spent inside sink calls
    CampaignCounters counters;
};

/** An untraced and a traced pass, run app by app in pairs. */
struct PairedPasses
{
    CampaignPass untraced; //!< report of one-app CampaignRunner runs
    TracedPass traced;
    std::vector<double> overheadRatios; //!< per app: traced / untraced
};

/** Serial campaign over @p apps. */
CampaignPass runCampaignPass(const bvf::core::ExperimentDriver &driver,
                             std::span<const bvf::workload::AppSpec> apps);

/**
 * Each app of @p apps as a one-app serial campaign and through the
 * traced composition, back to back; @p tracedFirst puts the traced run
 * first for even-numbered apps and second for odd ones (the reverse
 * without it), so drift of the host over a pass cancels out of the
 * ratios.
 */
PairedPasses runPairedPasses(const bvf::core::ExperimentDriver &driver,
                             std::span<const bvf::workload::AppSpec> apps,
                             SpanLog &log, bool tracedFirst);

/** Seconds to build every app's program (the campaign's set-up). */
double buildAllPrograms(std::span<const bvf::workload::AppSpec> apps);

/** Per-app BVF chip saving (AllCoders vs Baseline), campaign order. */
std::vector<double> chipSavings(const bvf::campaign::CampaignReport &r);

/**
 * Run campaign workload @p w for about @p seconds of passes, checking
 * every report against reference/<workload>.txt under
 * @p referenceDir. With @p traced, each pass pairs an untraced and a
 * traced run of every app (runPairedPasses) and the per-layer metrics
 * are reported; with @p recordReference the reference file is
 * rewritten from this run.
 */
Outcome runCampaignWorkload(Workload w, double seconds, bool traced,
                            SpanLog &log, const std::string &referenceDir,
                            bool recordReference);

} // namespace bvfbench

#endif // BVFBENCH_CAMPAIGN_BENCH_HH
