/**
 * @file
 * Full-pipeline example: simulate one application on the Table 3 GPU,
 * account all coding scenarios, and print a chip energy report with a
 * per-unit breakdown -- the per-app slice of the paper's Figures 16/18.
 *
 * Usage: chip_power_report [--node 28|40] [APP_ABBR] [28|40]
 *
 * The technology node may be given either as the --node flag or as a
 * bare 28/40 token (the historical positional form).
 */

#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "core/experiment.hh"
#include "core/setup.hh"

using namespace bvf;

namespace
{

struct Options
{
    std::string abbr = "ATA";
    circuit::TechNode node = circuit::TechNode::N28;
};

Options
parse(int argc, char **argv)
{
    Options opt;
    bool have_app = false;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--node") {
            opt.node = core::parseChoice(arg, args.value(arg),
                                         core::kNodeChoices);
        } else if (arg.rfind("--", 0) == 0) {
            cli::dieUsage("unknown option '" + arg + "'");
        } else if (const auto node =
                       core::lookupChoice(core::kNodeChoices, arg)) {
            opt.node = *node;
        } else if (!have_app) {
            opt.abbr = arg;
            have_app = true;
        } else {
            cli::dieUsage("unexpected argument '" + arg +
                          "': usage is [--node 28|40] [APP_ABBR]");
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parse(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("chip_power_report", e);
    }

    const auto &spec = workload::findApp(opt.abbr);
    std::printf("simulating %s (%s) on the Table 3 GPU...\n",
                spec.name.c_str(), spec.abbr.c_str());

    core::ExperimentDriver driver(gpu::baselineConfig());
    const core::AppRun run = driver.runApp(spec);

    std::printf("  cycles: %llu   instructions: %llu   "
                "NoC flits: %llu\n",
                static_cast<unsigned long long>(run.gpuStats.cycles),
                static_cast<unsigned long long>(run.gpuStats.sm.issued),
                static_cast<unsigned long long>(run.gpuStats.noc.flits));

    core::Pricing pricing;
    pricing.node = opt.node;
    const core::AppEnergy energy = driver.evaluate(run, pricing);

    const auto &base = energy.at(coder::Scenario::Baseline);
    const auto &bvf = energy.at(coder::Scenario::AllCoders);

    TextTable table(strFormat("Chip energy breakdown, %s, %s",
                              spec.abbr.c_str(),
                              circuit::techNodeName(pricing.node).c_str()));
    table.header({"Component", "Baseline[uJ]", "BVF[uJ]", "Delta"});
    for (const auto &[unit, e] : base.units) {
        const auto &be = bvf.units.at(unit);
        table.row({coder::unitName(unit),
                   TextTable::num(e.total() * 1e6, 3),
                   TextTable::num(be.total() * 1e6, 3),
                   TextTable::pct(1.0 - be.total() / e.total())});
    }
    table.row({"NoC", TextTable::num(base.nocDynamic * 1e6, 3),
               TextTable::num(bvf.nocDynamic * 1e6, 3),
               TextTable::pct(1.0 - bvf.nocDynamic / base.nocDynamic)});
    table.row({"Compute", TextTable::num(base.computeDynamic * 1e6, 3),
               TextTable::num(bvf.computeDynamic * 1e6, 3), "0.0%"});
    table.row({"Other dyn", TextTable::num(base.otherDynamic * 1e6, 3),
               TextTable::num(bvf.otherDynamic * 1e6, 3), "0.0%"});
    table.row({"Other leak", TextTable::num(base.otherLeakage * 1e6, 3),
               TextTable::num(bvf.otherLeakage * 1e6, 3), "0.0%"});
    table.row({"Coders", "0.000",
               TextTable::num(bvf.coderOverhead * 1e6, 3), "-"});
    table.row({"CHIP", TextTable::num(base.chipTotal() * 1e6, 3),
               TextTable::num(bvf.chipTotal() * 1e6, 3),
               TextTable::pct(1.0 - bvf.chipTotal() / base.chipTotal())});
    table.print();

    std::printf("\nBVF-coverable units: %.1f%% of baseline chip energy; "
                "reduced %.1f%% by the coders\n",
                100.0 * base.bvfUnitsTotal() / base.chipTotal(),
                100.0 * (1.0 - bvf.bvfUnitsTotal()
                                   / base.bvfUnitsTotal()));
    return 0;
}
