/**
 * @file
 * Workload names and the suite split.
 */

#include "suite_split.hh"

#include "common/logging.hh"

namespace bvfbench
{

std::string_view
workloadName(Workload w)
{
    switch (w) {
      case Workload::CampaignStall:
        return "campaign-stall";
      case Workload::CampaignDense:
        return "campaign-dense";
      case Workload::KernelService:
        return "kernel-service";
    }
    return "?";
}

bool
parseWorkload(std::string_view name, Workload &out)
{
    for (const Workload w : kAllWorkloads) {
        if (workloadName(w) == name) {
            out = w;
            return true;
        }
    }
    return false;
}

const std::vector<std::string> &
stallApps()
{
    static const std::vector<std::string> apps = {
        "BFS", "BTR", "GAU", "HWL", "KMN", "NN",  "SRD", "HIS", "SPM",
        "TRA", "MDS", "QTC", "LBF", "BH",  "MST", "SP",  "SSP"};
    return apps;
}

const std::vector<std::string> &
denseApps()
{
    static const std::vector<std::string> apps = {
        "BCK", "CFD", "HSP", "MD",  "LUD", "NW",  "PAT", "CUT", "LBM",
        "MRQ", "SAD", "SGE", "STE", "BLA", "CON", "DXT", "FWT", "MMU",
        "MGS", "OFT", "IMD", "RED", "SCP", "SCN", "FFT", "S3D", "SRT",
        "TRI", "ATA", "BIC", "COR", "COV", "GEM", "GES", "MVT", "SYR",
        "SYK", "2DC", "CP",  "LIB", "NQU"};
    return apps;
}

std::vector<bvf::workload::AppSpec>
campaignApps(Workload w)
{
    panic_if(w == Workload::KernelService,
             "kernel-service is not a campaign workload");
    const auto &abbrs =
        w == Workload::CampaignStall ? stallApps() : denseApps();
    std::vector<bvf::workload::AppSpec> apps;
    apps.reserve(abbrs.size());
    for (const std::string &abbr : abbrs)
        apps.push_back(bvf::workload::findApp(abbr));
    return apps;
}

} // namespace bvfbench
