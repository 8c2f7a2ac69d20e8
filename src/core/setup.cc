/**
 * @file
 * Run setup implementation: the name tables and the one mapping to the
 * simulator.
 */

#include "core/setup.hh"

#include "fault/fault_model.hh"

namespace bvf::core
{

constexpr std::array<Choice<isa::GpuArch>, 4> kArchChoices{{
    {"fermi", isa::GpuArch::Fermi},
    {"kepler", isa::GpuArch::Kepler},
    {"maxwell", isa::GpuArch::Maxwell},
    {"pascal", isa::GpuArch::Pascal},
}};

constexpr std::array<Choice<gpu::SchedulerPolicy>, 3> kSchedChoices{{
    {"gto", gpu::SchedulerPolicy::Gto},
    {"lrr", gpu::SchedulerPolicy::Lrr},
    {"two", gpu::SchedulerPolicy::TwoLevel},
}};

constexpr std::array<Choice<circuit::TechNode>, 2> kNodeChoices{{
    {"28", circuit::TechNode::N28},
    {"40", circuit::TechNode::N40},
}};

constexpr std::array<Choice<PStateLevel>, 3> kPStateChoices{{
    {"700", PStateLevel::Nominal},
    {"500", PStateLevel::Mid},
    {"300", PStateLevel::Low},
}};

constexpr std::array<Choice<circuit::CellKind>, 5> kCellChoices{{
    {"bvf8t", circuit::CellKind::SramBvf8T},
    {"bvf6t", circuit::CellKind::SramBvf6T},
    {"8t", circuit::CellKind::Sram8T},
    {"6t", circuit::CellKind::Sram6T},
    {"edram", circuit::CellKind::Edram3T},
}};

gpu::GpuConfig
RunSetup::machine() const
{
    gpu::GpuConfig config = gpu::baselineConfig();
    config.arch = arch;
    config.scheduler = sched;
    return config;
}

RunOptions
RunSetup::runOptions() const
{
    RunOptions run;
    run.dynamicIsa = dynamicIsa;
    run.vsRegisterPivot = vsPivot;
    run.fault.ecc = ecc ? fault::EccScheme::Secded72_64
                        : fault::EccScheme::None;
    return run;
}

Pricing
RunSetup::pricing() const
{
    static const gpu::PState *const pstates[] = {
        &gpu::pstateNominal(), &gpu::pstateMid(), &gpu::pstateLow()};
    Pricing p;
    p.node = node;
    p.pstate = *pstates[static_cast<std::size_t>(pstate)];
    p.cellKind = cell;
    p.ecc = ecc;
    p.cellsPerBitline = cellsBitline;
    return p;
}

RunPlan
RunSetup::campaignPlan() const
{
    RunPlan plan{runOptions(), pricing()};
    fault::FaultConfig &f = plan.run.fault;
    f.seed = faultSeed;
    f.softErrorRate = softErrorRate;
    f.readDisturbRate = fault::readDisturbFlipProbability(
        cell, node, plan.pricing.pstate.vdd, cellsBitline);
    f.enabled = softErrorRate > 0.0 || f.readDisturbRate > 0.0;
    plan.pricing.allowUnreliableCells = f.readDisturbRate > 0.0;
    return plan;
}

bool
parseSetupFlag(const std::string &arg, cli::ArgStream &args,
               RunSetup &setup)
{
    if (arg == "--arch")
        setup.arch = parseChoice(arg, args.value(arg), kArchChoices);
    else if (arg == "--sched")
        setup.sched = parseChoice(arg, args.value(arg), kSchedChoices);
    else if (arg == "--pivot")
        setup.vsPivot =
            cli::parseInteger(arg, args.value(arg), 0, kMaxVsPivot);
    else if (arg == "--dynamic-isa")
        setup.dynamicIsa = true;
    else if (arg == "--node")
        setup.node = parseChoice(arg, args.value(arg), kNodeChoices);
    else if (arg == "--pstate")
        setup.pstate = parseChoice(arg, args.value(arg), kPStateChoices);
    else if (arg == "--cell")
        setup.cell = parseChoice(arg, args.value(arg), kCellChoices);
    else if (arg == "--ecc")
        setup.ecc = true;
    else if (arg == "--cells-bitline")
        setup.cellsBitline =
            cli::parseInteger(arg, args.value(arg), 1, kMaxCellsBitline);
    else
        return false;
    return true;
}

} // namespace bvf::core
