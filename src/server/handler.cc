/**
 * @file
 * Request handler implementation.
 */

#include "server/handler.hh"

#include <exception>

#include "analysis/advisor.hh"
#include "analysis/interpreter.hh"
#include "coder/bvf_space.hh"
#include "coder/isa_coder.hh"
#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "core/static_check.hh"
#include "isa/encoding.hh"
#include "workload/kernel_builder.hh"

namespace bvf::server
{

namespace
{

core::RunOptions
runOptionsFor(const AppQuery &q)
{
    core::RunOptions run;
    run.dynamicIsa = q.dynamicIsa != 0;
    run.vsRegisterPivot = static_cast<int>(q.vsPivot);
    return run;
}

/**
 * Run @p body with fatal() trapped; any failure becomes an
 * ErrorResponse frame instead of an exception or process exit.
 */
template <typename Fn>
Frame
guarded(Fn &&body)
{
    try {
        ScopedFatalTrap trap;
        return body();
    } catch (const FatalError &e) {
        return errorFrame(Error{ErrorCode::InvalidArgument, e.what()});
    } catch (const std::exception &e) {
        return errorFrame(Error{ErrorCode::Failed, e.what()});
    }
}

} // namespace

gpu::GpuConfig
machineFor(std::uint8_t arch, std::uint8_t sched)
{
    static constexpr gpu::SchedulerPolicy policies[] = {
        gpu::SchedulerPolicy::Gto, gpu::SchedulerPolicy::Lrr,
        gpu::SchedulerPolicy::TwoLevel};
    gpu::GpuConfig config = gpu::baselineConfig();
    config.arch = isa::allGpuArchs()[arch];
    config.scheduler = policies[sched];
    return config;
}

core::Pricing
pricingFor(std::uint8_t node, std::uint8_t pstate, circuit::CellKind cell,
           bool ecc, std::uint32_t cellsBitline)
{
    core::Pricing pricing;
    pricing.node = node == 0 ? circuit::TechNode::N28 : circuit::TechNode::N40;
    pricing.pstate = pstate == 0   ? gpu::pstateNominal()
                     : pstate == 1 ? gpu::pstateMid()
                                   : gpu::pstateLow();
    pricing.cellKind = cell;
    pricing.ecc = ecc;
    pricing.cellsPerBitline = static_cast<int>(cellsBitline);
    return pricing;
}

Frame
errorFrame(const Error &error)
{
    WireError wire;
    wire.code = static_cast<std::uint8_t>(error.code);
    wire.message = error.message;
    Frame frame;
    frame.type = MsgType::ErrorResponse;
    frame.payload = wire.encode();
    return frame;
}

Frame
RequestHandler::handlePing(const Frame &request) const
{
    const auto decoded = Ping::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    Frame out;
    out.type = MsgType::PingResponse;
    out.payload = decoded.value().encode();
    return out;
}

Frame
RequestHandler::handleEvalCoder(const Frame &request) const
{
    const auto decoded = EvalCoderRequest::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    const EvalCoderRequest &req = decoded.value();

    return guarded([&] {
        EvalCoderResponse resp;
        resp.encoded = req.words;
        resp.totalBits = req.words.size() * 64;
        for (const std::uint64_t w : req.words)
            resp.onesBefore += static_cast<std::uint64_t>(hammingWeight64(w));

        if (req.coder == CoderKind::Isa) {
            const Word64 mask =
                req.isaMask ? req.isaMask
                            : isa::paperIsaMask(isa::allGpuArchs()[req.arch]);
            const coder::IsaCoder isaCoder(mask);
            isaCoder.encodeSpan(resp.encoded);
        } else if (req.coder != CoderKind::Identity) {
            // 32-bit coders see each u64 as two little-endian words.
            std::vector<Word> words;
            words.reserve(req.words.size() * 2);
            for (const std::uint64_t w : req.words) {
                words.push_back(static_cast<Word>(w));
                words.push_back(static_cast<Word>(w >> 32));
            }
            if (req.coder == CoderKind::Nv) {
                coder::NvCoder{}.encodeSpan(words);
            } else {
                coder::VsCoder(static_cast<int>(req.vsPivot))
                    .encode(words);
            }
            for (std::size_t i = 0; i < resp.encoded.size(); ++i) {
                resp.encoded[i] =
                    static_cast<std::uint64_t>(words[2 * i])
                    | (static_cast<std::uint64_t>(words[2 * i + 1])
                       << 32);
            }
        }

        for (const std::uint64_t w : resp.encoded)
            resp.onesAfter += static_cast<std::uint64_t>(hammingWeight64(w));

        Frame out;
        out.type = MsgType::EvalCoderResponse;
        out.payload = resp.encode();
        return out;
    });
}

Frame
RequestHandler::handleBitDensity(const Frame &request) const
{
    const auto decoded = BitDensityRequest::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    const AppQuery &q = decoded.value().query;

    return guarded([&] {
        const workload::AppSpec &spec = workload::findApp(q.abbr);
        const core::ExperimentDriver driver(machineFor(q.arch, q.sched));
        const auto run = driver.runAppChecked(spec, runOptionsFor(q));
        if (!run.ok())
            return errorFrame(run.error());

        BitDensityResponse resp;
        resp.cycles = run.value().gpuStats.cycles;
        resp.instructions = run.value().gpuStats.sm.issued;
        const core::EnergyAccountant &acc = *run.value().accountant;
        for (const coder::UnitId unit : coder::allUnits()) {
            if (unit == coder::UnitId::Noc)
                continue;
            BitDensityResponse::Unit u;
            u.unit = static_cast<std::uint8_t>(unit);
            bool any = false;
            for (const coder::Scenario s : coder::allScenarios) {
                const auto stats = acc.unitStats(s);
                const auto it = stats.find(unit);
                if (it == stats.end())
                    continue;
                BitStats all = it->second.reads;
                all.merge(it->second.writes);
                if (all.bits())
                    any = true;
                u.density[static_cast<std::size_t>(
                    coder::scenarioIndex(s))] = all.oneRatio();
            }
            if (any)
                resp.units.push_back(u);
        }
        for (const coder::Scenario s : coder::allScenarios) {
            const auto &noc = acc.noc(s);
            resp.nocDensity[static_cast<std::size_t>(
                coder::scenarioIndex(s))] =
                noc.payloadBits
                    ? static_cast<double>(noc.payloadOnes)
                          / static_cast<double>(noc.payloadBits)
                    : 0.0;
        }

        Frame out;
        out.type = MsgType::BitDensityResponse;
        out.payload = resp.encode();
        return out;
    });
}

Frame
RequestHandler::handleChipEnergy(const Frame &request) const
{
    const auto decoded = ChipEnergyRequest::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    const ChipEnergyRequest &req = decoded.value();

    return guarded([&] {
        const workload::AppSpec &spec = workload::findApp(req.query.abbr);
        const core::ExperimentDriver driver(
            machineFor(req.query.arch, req.query.sched));
        const auto run =
            driver.runAppChecked(spec, runOptionsFor(req.query));
        if (!run.ok())
            return errorFrame(run.error());

        const core::Pricing pricing = pricingFor(
            req.node, req.pstate, static_cast<circuit::CellKind>(req.cell),
            req.ecc != 0, req.cellsBitline);

        const core::AppEnergy energy =
            driver.evaluate(run.value(), pricing);

        ChipEnergyResponse resp;
        resp.cycles = run.value().gpuStats.cycles;
        resp.instructions = run.value().gpuStats.sm.issued;
        for (const coder::Scenario s : coder::allScenarios) {
            const auto idx =
                static_cast<std::size_t>(coder::scenarioIndex(s));
            resp.chipEnergy[idx] = energy.at(s).chipTotal();
            resp.bvfUnitsEnergy[idx] = energy.at(s).bvfUnitsTotal();
        }

        Frame out;
        out.type = MsgType::ChipEnergyResponse;
        out.payload = resp.encode();
        return out;
    });
}

Frame
RequestHandler::handleStaticQuery(const Frame &request) const
{
    const auto decoded = StaticQueryRequest::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    const AppQuery &q = decoded.value().query;

    return guarded([&] {
        const workload::AppSpec &spec = workload::findApp(q.abbr);
        const gpu::GpuConfig config = machineFor(q.arch, q.sched);
        const isa::Program program = workload::buildProgram(spec);

        Word64 isaMask = 0;
        if (q.dynamicIsa) {
            const isa::InstructionEncoder encoder(config.arch);
            isaMask =
                isa::extractPreferenceMask(encoder.encode(program.body));
        }
        const core::StaticReport report = core::analyzeStatic(
            program, config, isaMask, static_cast<int>(q.vsPivot));

        StaticQueryResponse resp;
        resp.bestStatic = static_cast<std::uint8_t>(
            coder::scenarioIndex(report.prediction.bestStatic));
        for (const auto &[unit, bounds] : report.prediction.units) {
            StaticQueryResponse::Unit u;
            u.unit = static_cast<std::uint8_t>(unit);
            for (const coder::Scenario s : coder::allScenarios) {
                const auto idx =
                    static_cast<std::size_t>(coder::scenarioIndex(s));
                u.bounds[idx] = {bounds[idx].lo, bounds[idx].hi,
                                 static_cast<std::uint8_t>(
                                     bounds[idx].any ? 1 : 0)};
            }
            resp.units.push_back(u);
        }
        for (const coder::Scenario s : coder::allScenarios) {
            const auto idx =
                static_cast<std::size_t>(coder::scenarioIndex(s));
            resp.noc[idx] = {report.prediction.noc[idx].lo,
                             report.prediction.noc[idx].hi,
                             static_cast<std::uint8_t>(
                                 report.prediction.noc[idx].any ? 1 : 0)};
        }

        Frame out;
        out.type = MsgType::StaticQueryResponse;
        out.payload = resp.encode();
        return out;
    });
}

Frame
RequestHandler::handleStaticAdvice(const Frame &request) const
{
    const auto decoded = StaticAdviceRequest::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    const AppQuery &q = decoded.value().query;

    return guarded([&] {
        const workload::AppSpec &spec = workload::findApp(q.abbr);
        const gpu::GpuConfig config = machineFor(q.arch, q.sched);
        const isa::Program program = workload::buildProgram(spec);

        analysis::AdvisorOptions opts;
        opts.arch = config.arch;
        opts.lineBytes = config.lineBytes;
        const analysis::StaticAdvice advice = analysis::adviseProgram(
            program, analysis::analyzeProgram(program), opts);

        const auto wireBound = [](const analysis::DensityBound &b) {
            return StaticAdviceResponse::Bound{
                b.lo, b.hi, static_cast<std::uint8_t>(b.any ? 1 : 0)};
        };

        StaticAdviceResponse resp;
        resp.bestPivot = static_cast<std::uint8_t>(advice.pivot.bestPivot);
        resp.provenSlack = advice.pivot.provenSlack;
        resp.affineSources =
            static_cast<std::uint32_t>(advice.pivot.affineSources);
        resp.totalSources =
            static_cast<std::uint32_t>(advice.pivot.totalSources);
        for (std::size_t p = 0; p < 32; ++p) {
            resp.pivotBounds[p] = wireBound(advice.pivot.bounds[p]);
            resp.pivotScores[p] = advice.pivot.score[p];
        }
        resp.defaultMask = advice.isa.defaultMask;
        resp.specializedMask = advice.isa.specializedMask;
        const auto any =
            static_cast<std::uint8_t>(advice.isa.anyInstruction ? 1 : 0);
        resp.defaultDensity = {advice.isa.defaultDensity.lo,
                               advice.isa.defaultDensity.hi, any};
        resp.specializedDensity = {advice.isa.specializedDensity.lo,
                                   advice.isa.specializedDensity.hi, any};
        resp.bestScenario = static_cast<std::uint8_t>(
            coder::scenarioIndex(advice.bestScenario));
        for (const analysis::UnitPick &pick : advice.unitPicks) {
            StaticAdviceResponse::UnitPick u;
            u.unit = static_cast<std::uint8_t>(pick.unit);
            u.pick = static_cast<std::uint8_t>(
                coder::scenarioIndex(pick.pick));
            u.proven = static_cast<std::uint8_t>(pick.proven ? 1 : 0);
            u.nv = wireBound(pick.nv);
            u.vs = wireBound(pick.vs);
            resp.unitPicks.push_back(u);
        }

        Frame out;
        out.type = MsgType::StaticAdviceResponse;
        out.payload = resp.encode();
        return out;
    });
}

Frame
RequestHandler::handleSubmitKernel(const Frame &request) const
{
    const auto decoded = SubmitKernelRequest::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    const SubmitKernelRequest &req = decoded.value();

    return guarded([&] {
        const auto outcome =
            kernels_->submit(req.bytecode, req.optimize != 0);
        if (!outcome.ok())
            return errorFrame(outcome.error());
        const SubmitOutcome &sub = outcome.value();

        SubmitKernelResponse resp;
        resp.admitted = sub.admitted ? 1 : 0;
        resp.digest = sub.digest;
        resp.optimizeRequested = req.optimize;
        resp.optimized = sub.optimized ? 1 : 0;
        resp.optimizedDigest = sub.optimizedDigest;
        resp.tripBound = sub.certificate.warpTripBound;
        resp.globalLo = sub.certificate.global.lo;
        resp.globalHi = sub.certificate.global.hi;
        for (const analysis::Rejection &rej : sub.rejections) {
            if (resp.rejections.size() >= kMaxWireRejections)
                break;
            SubmitKernelResponse::WireRejection wire;
            wire.reason = static_cast<std::uint8_t>(rej.reason);
            wire.pc = static_cast<std::uint32_t>(rej.pc);
            wire.message = rej.message.substr(0, 4096);
            resp.rejections.push_back(std::move(wire));
        }

        Frame out;
        out.type = MsgType::SubmitKernelResponse;
        out.payload = resp.encode();
        return out;
    });
}

Frame
RequestHandler::handleEvalSubmitted(const Frame &request) const
{
    const auto decoded = EvalSubmittedRequest::decode(request.payload);
    if (!decoded.ok())
        return errorFrame(decoded.error());
    const EvalSubmittedRequest &req = decoded.value();

    const auto stored = kernels_->find(req.digest);
    if (!stored) {
        return errorFrame(Error{
            ErrorCode::InvalidArgument,
            strFormat("no admitted kernel under digest '%s'",
                      req.digest.c_str())});
    }

    return guarded([&] {
        const core::ExperimentDriver driver(
            machineFor(req.arch, req.sched));

        // The certificate is enforced while the kernel runs: the probe
        // fatal()s -- trapped by guarded() -- on any trip-count or
        // footprint escape, which would be a verifier soundness bug.
        core::ContractProbe probe(stored->certificate);
        core::RunOptions options;
        options.dynamicIsa = req.dynamicIsa != 0;
        options.vsRegisterPivot = static_cast<int>(req.vsPivot);
        options.probe = &probe;
        // A certificate proving uniform control flow unlocks the SM's
        // specialized dispatch loop (results are byte-identical).
        options.uniformDispatch =
            stored->certificate.uniformControlFlow;

        const auto run =
            driver.runProgramChecked(stored->program, options);
        if (!run.ok())
            return errorFrame(run.error());

        const core::Pricing pricing = pricingFor(
            req.node, req.pstate, static_cast<circuit::CellKind>(req.cell),
            req.ecc != 0, req.cellsBitline);

        const core::AppEnergy energy =
            driver.evaluate(run.value(), pricing);

        EvalSubmittedResponse resp;
        resp.cycles = run.value().gpuStats.cycles;
        resp.instructions = run.value().gpuStats.sm.issued;
        resp.maxWarpIssue = probe.maxIssued();
        resp.checkedAccesses = probe.checkedAccesses();
        for (const coder::Scenario s : coder::allScenarios) {
            const auto idx =
                static_cast<std::size_t>(coder::scenarioIndex(s));
            resp.chipEnergy[idx] = energy.at(s).chipTotal();
            resp.bvfUnitsEnergy[idx] = energy.at(s).bvfUnitsTotal();
        }

        Frame out;
        out.type = MsgType::EvalSubmittedResponse;
        out.payload = resp.encode();
        return out;
    });
}

Frame
RequestHandler::handle(const Frame &request) const
{
    switch (request.type) {
      case MsgType::PingRequest:
        return handlePing(request);
      case MsgType::EvalCoderRequest:
        return handleEvalCoder(request);
      case MsgType::BitDensityRequest:
        return handleBitDensity(request);
      case MsgType::ChipEnergyRequest:
        return handleChipEnergy(request);
      case MsgType::StaticQueryRequest:
        return handleStaticQuery(request);
      case MsgType::StaticAdviceRequest:
        return handleStaticAdvice(request);
      case MsgType::SubmitKernelRequest:
        return handleSubmitKernel(request);
      case MsgType::EvalSubmittedRequest:
        return handleEvalSubmitted(request);
      default:
        return errorFrame(Error{
            ErrorCode::InvalidArgument,
            strFormat("frame type %s is not a request",
                      msgTypeName(request.type).c_str())});
    }
}

} // namespace bvf::server
