/**
 * @file
 * Experiment driver implementation.
 */

#include "core/experiment.hh"

#include <optional>

#include "common/logging.hh"
#include "core/static_check.hh"
#include "workload/kernel_builder.hh"

namespace bvf::core
{

using coder::Scenario;
using coder::UnitId;

namespace
{

/**
 * The one checked run: @p run with fatal() trapped, any failure
 * returned as Failed, or as Timeout when options.cancel has expired.
 */
template <typename Fn>
Result<AppRun>
checkedRun(const RunOptions &options, Fn run)
{
    try {
        ScopedFatalTrap trap;
        return run();
    } catch (const std::exception &e) {
        const bool timedOut = options.cancel && options.cancel->expired();
        return Error{timedOut ? ErrorCode::Timeout : ErrorCode::Failed,
                     e.what()};
    }
}

} // namespace

ExperimentDriver::ExperimentDriver(gpu::GpuConfig config)
    : config_(std::move(config))
{
}

std::map<UnitId, std::uint64_t>
ExperimentDriver::unitCapacities() const
{
    const auto sms = static_cast<std::uint64_t>(config_.numSms);
    std::map<UnitId, std::uint64_t> caps;
    caps[UnitId::Reg] = sms * config_.regFileBytes * 8;
    caps[UnitId::Sme] = sms * config_.sharedMemBytes * 8;
    caps[UnitId::L1D] = sms * config_.l1dBytes * 8;
    caps[UnitId::L1I] = sms * config_.l1iBytes * 8;
    caps[UnitId::L1C] = sms * config_.l1cBytes * 8;
    caps[UnitId::L1T] = sms * config_.l1tBytes * 8;
    caps[UnitId::Ifb] =
        sms * static_cast<std::uint64_t>(config_.maxWarpsPerSm) * 64 * 8;
    caps[UnitId::L2] =
        static_cast<std::uint64_t>(config_.l2TotalBytes()) * 8;
    return caps;
}

AppRun
ExperimentDriver::runApp(const workload::AppSpec &spec,
                         bool dynamicIsa) const
{
    RunOptions options;
    options.dynamicIsa = dynamicIsa;
    return runApp(spec, options);
}

AppRun
ExperimentDriver::runApp(const workload::AppSpec &spec,
                         const RunOptions &options) const
{
    AppRun run = runProgram(workload::buildProgram(spec), options);
    run.name = spec.name;
    run.abbr = spec.abbr;
    run.memoryIntensive = spec.memoryIntensive;
    return run;
}

AppRun
ExperimentDriver::runProgram(isa::Program program,
                             const RunOptions &options) const
{
    AppRun run;
    run.name = program.name;
    run.abbr = program.name;
    const std::string label = program.name.empty() ? "kernel"
                                                   : program.name;

    AccountantOptions opts;
    opts.arch = config_.arch;
    opts.vsRegisterPivot = options.vsRegisterPivot;
    opts.eccAccounting = options.fault.ecc == fault::EccScheme::Secded72_64;
    if (options.dynamicIsa) {
        // The "assembler" profiles this binary and programs the mask
        // register at launch (Section 4.3, dynamic method).
        const isa::InstructionEncoder encoder(config_.arch);
        const auto binary = encoder.encode(program.body);
        opts.dynamicIsaMask = isa::extractPreferenceMask(binary);
    }
    run.accountant = std::make_shared<EnergyAccountant>(unitCapacities(),
                                                        opts);

    // The static report must be built before the program is moved into
    // the machine; the knobs must mirror the accountant's exactly or the
    // proven intervals would describe a different encoding.
    std::optional<StaticReport> staticReport;
    if (options.checkStatic) {
        fatal_if(options.fault.anyFaults(),
                 "--check-static is incompatible with fault injection");
        fatal_if(opts.eccAccounting,
                 "--check-static is incompatible with ECC accounting");
        staticReport = analyzeStatic(program, config_,
                                     run.accountant->isaMask(),
                                     options.vsRegisterPivot);
    }

    // The fault layer sits between the machine and the accountant, so
    // the accountant prices what a faulty array would actually deliver.
    // With faults disabled no layer is inserted and the access stream
    // is untouched.
    sram::AccessSink *sink = run.accountant.get();
    if (options.fault.anyFaults()) {
        run.faults = std::make_shared<fault::FaultSink>(*run.accountant,
                                                        options.fault);
        sink = run.faults.get();
    }

    gpu::Gpu machine(config_, std::move(program), *sink);
    machine.setCancellation(options.cancel);
    if (options.probe)
        machine.setExecProbe(options.probe);
    if (options.uniformDispatch)
        machine.setUniformDispatch(true);
    run.gpuStats = machine.run();
    run.accountant->finalize(run.gpuStats.cycles);

    if (staticReport) {
        const auto violations = crossCheckRun(*staticReport,
                                              *run.accountant);
        for (const std::string &v : violations)
            warn("%s: %s", label.c_str(), v.c_str());
        fatal_if(!violations.empty(),
                 "static cross-check failed for %s: %zu observed ratios "
                 "escaped their proven intervals",
                 label.c_str(), violations.size());
    }
    return run;
}

Result<AppRun>
ExperimentDriver::runProgramChecked(isa::Program program,
                                    const RunOptions &options) const
{
    return checkedRun(options,
                      [&] { return runProgram(std::move(program), options); });
}

Result<AppRun>
ExperimentDriver::runAppChecked(const workload::AppSpec &spec,
                                const RunOptions &options) const
{
    return checkedRun(options, [&] { return runApp(spec, options); });
}

std::vector<AppRun>
ExperimentDriver::runSuite() const
{
    SuiteResult result = runSuiteChecked();
    for (const AppFailure &f : result.failures) {
        warn("skipping %s (%s): %s", f.name.c_str(), f.abbr.c_str(),
             f.error.describe().c_str());
    }
    return std::move(result.runs);
}

SuiteResult
ExperimentDriver::runSuiteChecked(std::span<const workload::AppSpec> apps,
                                  const RunOptions &options) const
{
    SuiteResult result;
    for (const workload::AppSpec &spec : apps) {
        inform("simulating %s (%s)", spec.name.c_str(), spec.abbr.c_str());
        Error last{ErrorCode::Failed, "unknown failure"};
        int attempts = 0;
        bool done = false;
        for (int attempt = 0; attempt < 2 && !done; ++attempt) {
            ++attempts;
            workload::AppSpec trial = spec;
            trial.seedSalt = spec.seedSalt + attempt;
            if (attempt > 0) {
                warn("retrying %s with fresh seed", spec.abbr.c_str());
            }
            auto attempted = runAppChecked(trial, options);
            if (attempted.ok()) {
                result.runs.push_back(std::move(attempted.value()));
                done = true;
            } else {
                last = attempted.error();
            }
        }
        if (!done)
            result.failures.push_back({spec.name, spec.abbr, last,
                                       attempts});
    }
    return result;
}

SuiteResult
ExperimentDriver::runSuiteChecked(const RunOptions &options) const
{
    return runSuiteChecked(workload::evaluationSuite(), options);
}

AppEnergy
ExperimentDriver::evaluate(const AppRun &run, const Pricing &pricing) const
{
    power::ChipModelOptions array_opts;
    array_opts.ecc = pricing.ecc;
    array_opts.cellsPerBitline = pricing.cellsPerBitline;
    array_opts.allowUnreliableCells = pricing.allowUnreliableCells;
    power::ChipPowerModel model(pricing.node, pricing.pstate.vdd,
                                pricing.pstate.frequency, pricing.cellKind,
                                config_, array_opts);
    AppEnergy out;
    out.abbr = run.abbr;
    out.memoryIntensive = run.memoryIntensive;
    for (const Scenario s : coder::allScenarios) {
        const auto &noc = run.accountant->noc(s);
        out.byScenario[static_cast<std::size_t>(coder::scenarioIndex(s))] =
            model.evaluate(run.accountant->unitStats(s), noc.toggles,
                           noc.flits, run.gpuStats,
                           s != Scenario::Baseline);
    }
    return out;
}

std::vector<AppEnergy>
ExperimentDriver::evaluate(const std::vector<AppRun> &runs,
                           const Pricing &pricing) const
{
    std::vector<AppEnergy> out;
    out.reserve(runs.size());
    for (const AppRun &run : runs)
        out.push_back(evaluate(run, pricing));
    return out;
}

double
ExperimentDriver::meanChipRatio(const std::vector<AppEnergy> &energies,
                                Scenario scenario)
{
    fatal_if(energies.empty(), "no energies to average");
    double sum = 0.0;
    for (const AppEnergy &e : energies) {
        sum += e.at(scenario).chipTotal()
               / e.at(Scenario::Baseline).chipTotal();
    }
    return sum / static_cast<double>(energies.size());
}

double
ExperimentDriver::meanBvfUnitsRatio(const std::vector<AppEnergy> &energies,
                                    Scenario scenario)
{
    fatal_if(energies.empty(), "no energies to average");
    double sum = 0.0;
    for (const AppEnergy &e : energies) {
        sum += e.at(scenario).bvfUnitsTotal()
               / e.at(Scenario::Baseline).bvfUnitsTotal();
    }
    return sum / static_cast<double>(energies.size());
}

} // namespace bvf::core
