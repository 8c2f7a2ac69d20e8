/**
 * @file
 * Request handler implementation.
 */

#include "server/handler.hh"

#include <exception>
#include <optional>

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

/**
 * Price @p run under @p setup into @p resp's cycle, instruction and
 * per-scenario energy tables.
 */
template <typename Resp>
void
priceInto(Resp &resp, const core::ExperimentDriver &driver,
          const core::AppRun &run, const core::RunSetup &setup)
{
    const core::AppEnergy energy = driver.evaluate(run, setup.pricing());
    resp.cycles = run.gpuStats.cycles;
    resp.instructions = run.gpuStats.sm.issued;
    for (const coder::Scenario s : coder::allScenarios) {
        const auto idx = static_cast<std::size_t>(coder::scenarioIndex(s));
        resp.chipEnergy[idx] = energy.at(s).chipTotal();
        resp.bvfUnitsEnergy[idx] = energy.at(s).bvfUnitsTotal();
    }
}

/**
 * A request's own failure as its response carries it. parseFrame has
 * already checked the frame's CRC, so a decoder's Corrupt, Truncated
 * or Unsupported (or the kernel decoder's, on submitted bytecode) is
 * the content's fault, not wire damage: it goes out as InvalidArgument
 * with the same message, which the fleet records as the job's verdict
 * instead of striking the worker that answered.
 */
Error
requestError(Error e)
{
    if (e.code == ErrorCode::Corrupt || e.code == ErrorCode::Truncated
        || e.code == ErrorCode::Unsupported)
        e.code = ErrorCode::InvalidArgument;
    return e;
}

} // namespace

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

template <typename Req>
Frame
RequestHandler::serve(const Frame &request, MsgType responseType) const
{
    try {
        ScopedFatalTrap trap;
        const auto req = Req::decode(request.payload);
        if (!req.ok())
            return errorFrame(requestError(req.error()));
        const auto resp = run(req.value());
        if (!resp.ok())
            return errorFrame(requestError(resp.error()));
        return Frame{responseType, resp.value().encode()};
    } catch (const FatalError &e) {
        return errorFrame(Error{ErrorCode::InvalidArgument, e.what()});
    } catch (const std::exception &e) {
        return errorFrame(Error{ErrorCode::Failed, e.what()});
    }
}

Frame
RequestHandler::handle(const Frame &request) const
{
    std::optional<Frame> out;
    forEachMsg([&]<typename Req, typename Resp>(const MsgRow<Req, Resp> &r) {
        if constexpr (!std::is_void_v<Req>) {
            if (r.request == request.type)
                out = serve<Req>(request, r.response);
        }
    });
    if (out)
        return std::move(*out);
    return errorFrame(Error{ErrorCode::InvalidArgument,
                            strFormat("frame type %s is not a request",
                                      msgTypeName(request.type).c_str())});
}

Result<Ping>
RequestHandler::run(const Ping &req) const
{
    return req;
}

Result<EvalCoderResponse>
RequestHandler::run(const EvalCoderRequest &req) const
{
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
        if (req.coder == CoderKind::Nv)
            coder::NvCoder{}.encodeSpan(words);
        else
            coder::VsCoder(static_cast<int>(req.vsPivot)).encode(words);
        for (std::size_t i = 0; i < resp.encoded.size(); ++i) {
            resp.encoded[i] =
                static_cast<std::uint64_t>(words[2 * i])
                | (static_cast<std::uint64_t>(words[2 * i + 1]) << 32);
        }
    }

    for (const std::uint64_t w : resp.encoded)
        resp.onesAfter += static_cast<std::uint64_t>(hammingWeight64(w));
    return resp;
}

Result<BitDensityResponse>
RequestHandler::run(const BitDensityRequest &req) const
{
    const core::RunSetup setup = fromWire(req.query);
    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const core::ExperimentDriver driver(setup.machine());
    const auto run = driver.runAppChecked(spec, setup.runOptions());
    if (!run.ok())
        return run.error();

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
            u.density[static_cast<std::size_t>(coder::scenarioIndex(s))] =
                all.oneRatio();
        }
        if (any)
            resp.units.push_back(u);
    }
    for (const coder::Scenario s : coder::allScenarios) {
        const auto &noc = acc.noc(s);
        resp.nocDensity[static_cast<std::size_t>(coder::scenarioIndex(s))] =
            noc.payloadBits ? static_cast<double>(noc.payloadOnes)
                                  / static_cast<double>(noc.payloadBits)
                            : 0.0;
    }
    return resp;
}

Result<ChipEnergyResponse>
RequestHandler::run(const ChipEnergyRequest &req) const
{
    const core::RunSetup setup = fromWire(req);
    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const core::ExperimentDriver driver(setup.machine());
    const auto run = driver.runAppChecked(spec, setup.runOptions());
    if (!run.ok())
        return run.error();

    ChipEnergyResponse resp;
    priceInto(resp, driver, run.value(), setup);
    return resp;
}

Result<StaticQueryResponse>
RequestHandler::run(const StaticQueryRequest &req) const
{
    const core::RunSetup setup = fromWire(req.query);
    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const gpu::GpuConfig config = setup.machine();
    const isa::Program program = workload::buildProgram(spec);

    Word64 isaMask = 0;
    if (setup.dynamicIsa) {
        const isa::InstructionEncoder encoder(config.arch);
        isaMask = isa::extractPreferenceMask(encoder.encode(program.body));
    }
    const core::StaticReport report =
        core::analyzeStatic(program, config, isaMask, setup.vsPivot);

    const auto wireBound = [](const auto &b) {
        return StaticQueryResponse::Bound{
            b.lo, b.hi, static_cast<std::uint8_t>(b.any ? 1 : 0)};
    };
    StaticQueryResponse resp;
    resp.bestStatic = static_cast<std::uint8_t>(
        coder::scenarioIndex(report.prediction.bestStatic));
    for (const auto &[unit, bounds] : report.prediction.units) {
        StaticQueryResponse::Unit u;
        u.unit = static_cast<std::uint8_t>(unit);
        for (std::size_t i = 0; i < kScenarioSlots; ++i)
            u.bounds[i] = wireBound(bounds[i]);
        resp.units.push_back(u);
    }
    for (std::size_t i = 0; i < kScenarioSlots; ++i)
        resp.noc[i] = wireBound(report.prediction.noc[i]);
    return resp;
}

Result<StaticAdviceResponse>
RequestHandler::run(const StaticAdviceRequest &req) const
{
    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const gpu::GpuConfig config = fromWire(req.query).machine();
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
    resp.totalSources = static_cast<std::uint32_t>(advice.pivot.totalSources);
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
        u.pick = static_cast<std::uint8_t>(coder::scenarioIndex(pick.pick));
        u.proven = static_cast<std::uint8_t>(pick.proven ? 1 : 0);
        u.nv = wireBound(pick.nv);
        u.vs = wireBound(pick.vs);
        resp.unitPicks.push_back(u);
    }
    return resp;
}

Result<SubmitKernelResponse>
RequestHandler::run(const SubmitKernelRequest &req) const
{
    const auto outcome = kernels_->submit(req.bytecode, req.optimize != 0);
    if (!outcome.ok())
        return outcome.error();
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
        wire.message = rej.message.substr(0, kMaxString);
        resp.rejections.push_back(std::move(wire));
    }
    return resp;
}

Result<EvalSubmittedResponse>
RequestHandler::run(const EvalSubmittedRequest &req) const
{
    const auto stored = kernels_->find(req.digest);
    if (!stored) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("no admitted kernel under digest '%s'",
                               req.digest.c_str())};
    }

    const core::RunSetup setup = fromWire(req);
    const core::ExperimentDriver driver(setup.machine());
    // The certificate is enforced while the kernel runs: the probe
    // fatal()s -- trapped by serve() -- on any trip-count or footprint
    // escape, which would be a verifier soundness bug.
    core::ContractProbe probe(stored->certificate);
    core::RunOptions options = setup.runOptions();
    options.probe = &probe;
    // A certificate proving uniform control flow unlocks the SM's
    // specialized dispatch loop (results are byte-identical).
    options.uniformDispatch = stored->certificate.uniformControlFlow;

    const auto run = driver.runProgramChecked(stored->program, options);
    if (!run.ok())
        return run.error();

    EvalSubmittedResponse resp;
    priceInto(resp, driver, run.value(), setup);
    resp.maxWarpIssue = probe.maxIssued();
    resp.checkedAccesses = probe.checkedAccesses();
    return resp;
}

} // namespace bvf::server
