/**
 * @file
 * Kernel-service workload.
 */

#include "service_bench.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "analysis/equiv.hh"
#include "analysis/optimizer.hh"
#include "common/rng.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "fleet/coordinator.hh"
#include "fleet/worker_client.hh"
#include "gpu_counters.hh"
#include "isa/bytecode.hh"
#include "kernel_pool.hh"
#include "server/kernel_store.hh"
#include "server/server.hh"
#include "server/transport.hh"
#include "stats.hh"

namespace bvfbench
{

namespace
{

using namespace std::chrono_literals;
namespace analysis = bvf::analysis;
namespace fleet = bvf::fleet;
namespace server = bvf::server;

/** Evaluation configs the clients rotate through (arch, scheduler). */
struct EvalConfig
{
    std::uint8_t arch;  //!< isa::allGpuArchs() index
    std::uint8_t sched; //!< Gto, Lrr, TwoLevel
};
constexpr EvalConfig kEvalConfigs[] = {{3, 0}, {1, 1}, {2, 2}};
constexpr int kNumConfigs = 3;

/** Priced on the paper's BVF-8T arrays (circuit::CellKind index 2). */
constexpr std::uint8_t kEvalCell = 2;

constexpr auto kRequestDeadline = 30000ms;
constexpr int kClients = static_cast<int>(kWorkers);
constexpr int kPings = 400;

server::EvalSubmittedRequest
evalRequest(const std::string &digest, int config)
{
    server::EvalSubmittedRequest req;
    req.digest = digest;
    req.arch = kEvalConfigs[config].arch;
    req.sched = kEvalConfigs[config].sched;
    req.cell = kEvalCell;
    return req;
}

/** Two workers, the coordinator and the serve-style front end. */
class Fleet
{
  public:
    Fleet() = default;
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    ~Fleet()
    {
        front_.reset();
        if (coordinator_)
            coordinator_->stop();
        coordinator_.reset();
        workers_.clear();
    }

    bvf::Result<void>
    start()
    {
        // The ring routes by fixed logical ids (see workerRouteId); the
        // dial seam maps each to the port its worker really bound.
        fleet::FleetOptions options;
        std::vector<int> ports;
        for (std::size_t i = 0; i < kWorkers; ++i) {
            server::ServerOptions o;
            o.workers = 1;
            workers_.push_back(std::make_unique<server::Server>(o));
            if (auto s = workers_.back()->start(); !s.ok())
                return s.error();
            ports.push_back(workers_.back()->port());
            fleet::WorkerAddress logical;
            logical.port = static_cast<int>(i) + 1;
            panic_if(logical.id() != workerRouteId(i),
                     "logical worker id %s", logical.id().c_str());
            options.workers.push_back(logical);
        }
        options.dialFactory = [ports](std::size_t i,
                                      const fleet::WorkerAddress &) {
            return fleet::WorkerClient::DialFn(
                [port = ports[i]](std::chrono::milliseconds deadline) {
                    return server::SocketTransport::dialTcp("127.0.0.1", port,
                                                            deadline);
                });
        };
        coordinator_ = std::make_unique<fleet::Coordinator>(options);
        coordinator_->start();

        server::ServerOptions o;
        o.workers = kClients;
        o.handler = coordinator_->proxyHandler();
        front_ = std::make_unique<server::Server>(o);
        return front_->start();
    }

    fleet::WorkerAddress
    frontAddress() const
    {
        fleet::WorkerAddress a;
        a.port = front_->port();
        return a;
    }

    fleet::WorkerAddress
    workerAddress(int i) const
    {
        fleet::WorkerAddress a;
        a.port = workers_[static_cast<std::size_t>(i)]->port();
        return a;
    }

    const fleet::Coordinator &coordinator() const { return *coordinator_; }

  private:
    std::vector<std::unique_ptr<server::Server>> workers_;
    std::unique_ptr<fleet::Coordinator> coordinator_;
    std::unique_ptr<server::Server> front_;
};

/** One ping round trip; true when answered with the nonce echoed. */
bool
ping(fleet::WorkerClient &client, std::uint64_t nonce)
{
    server::Ping p;
    p.nonce = nonce;
    auto reply = client.request({server::MsgType::PingRequest, p.encode()},
                                kRequestDeadline);
    if (!reply.ok() || reply.value().type != server::MsgType::PingResponse)
        return false;
    const auto echoed = server::Ping::decode(reply.value().payload);
    return echoed.ok() && echoed.value().nonce == nonce;
}

/** In-process answer to one pool kernel's submission. */
struct KernelTruth
{
    std::string submitPayload; //!< expected SubmitKernelResponse bytes
    std::string mismatch; //!< the pool kernel is not what it claims
};

/**
 * Every request of the pool answered in process, through the same
 * public calls a worker makes, optionally timed per layer.
 */
struct LayerPass
{
    std::vector<KernelTruth> kernels;
    /** Expected EvalSubmittedResponse bytes by (kernel, config). */
    std::map<std::pair<std::size_t, int>, std::string> evals;
    /** In-process service time by (kernel, config) [s]. */
    std::map<std::pair<std::size_t, int>, double> evalServiceS;

    double wallS = 0;
    double decodeS = 0;
    double verifyS = 0;
    double optimizeS = 0; //!< optimizeProgram, validation included
    double validateS = 0;
    double encodeS = 0; //!< encodeProgram of optimized programs
    double evalS = 0;
    std::size_t evalCount = 0;
    /** Per kernel: in-process submit service time [s]. */
    std::vector<double> submitServiceS;

    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t rewrites = 0;
    GpuCounters gpu;
};

/**
 * Expected submit response, mirroring RequestHandler. @p optBytecode
 * is the optimized program's encoding; empty when none was stored.
 */
std::string
expectedSubmit(const std::string &bytecode, const analysis::Verdict &verdict,
               const std::string &optBytecode)
{
    server::SubmitKernelResponse resp;
    resp.admitted = verdict.admitted ? 1 : 0;
    resp.digest = verdict.admitted ? server::kernelDigest(bytecode) : "";
    resp.optimizeRequested = 1;
    resp.tripBound = verdict.certificate.warpTripBound;
    resp.globalLo = verdict.certificate.global.lo;
    resp.globalHi = verdict.certificate.global.hi;
    for (const analysis::Rejection &rej : verdict.rejections) {
        if (resp.rejections.size() >= server::kMaxWireRejections)
            break;
        server::SubmitKernelResponse::WireRejection wire;
        wire.reason = static_cast<std::uint8_t>(rej.reason);
        wire.pc = static_cast<std::uint32_t>(rej.pc);
        wire.message = rej.message.substr(0, 4096);
        resp.rejections.push_back(std::move(wire));
    }
    if (!optBytecode.empty()) {
        resp.optimized = 1;
        resp.optimizedDigest = server::kernelDigest(optBytecode);
    }
    return resp.encode();
}

/** Expected eval response, mirroring RequestHandler; "" on failure. */
std::string
expectedEval(const server::StoredKernel &stored, int config,
             GpuCounters &counters)
{
    const server::EvalSubmittedRequest req = evalRequest("", config);
    bvf::gpu::GpuConfig machine = bvf::gpu::baselineConfig();
    machine.arch = bvf::isa::allGpuArchs()[req.arch];
    static constexpr bvf::gpu::SchedulerPolicy kPolicies[] = {
        bvf::gpu::SchedulerPolicy::Gto, bvf::gpu::SchedulerPolicy::Lrr,
        bvf::gpu::SchedulerPolicy::TwoLevel};
    machine.scheduler = kPolicies[req.sched];
    const bvf::core::ExperimentDriver driver(machine);

    bvf::core::ContractProbe probe(stored.certificate);
    bvf::core::RunOptions options;
    options.dynamicIsa = req.dynamicIsa != 0;
    options.vsRegisterPivot = static_cast<int>(req.vsPivot);
    options.probe = &probe;
    options.uniformDispatch = stored.certificate.uniformControlFlow;
    const auto run = driver.runProgramChecked(stored.program, options);
    if (!run.ok())
        return "";

    bvf::core::Pricing pricing;
    pricing.node = bvf::circuit::TechNode::N28;
    pricing.pstate = bvf::gpu::pstateNominal();
    pricing.cellKind = static_cast<bvf::circuit::CellKind>(req.cell);
    pricing.ecc = false;
    pricing.cellsPerBitline = static_cast<int>(req.cellsBitline);
    bvf::core::AppEnergy energy;
    try {
        bvf::ScopedFatalTrap trap;
        energy = driver.evaluate(run.value(), pricing);
    } catch (const std::exception &) {
        return "";
    }

    const bvf::gpu::GpuStats &g = run.value().gpuStats;
    counters.add(g);

    server::EvalSubmittedResponse resp;
    resp.cycles = g.cycles;
    resp.instructions = g.sm.issued;
    resp.maxWarpIssue = probe.maxIssued();
    resp.checkedAccesses = probe.checkedAccesses();
    for (const bvf::coder::Scenario s : bvf::coder::allScenarios) {
        const auto idx =
            static_cast<std::size_t>(bvf::coder::scenarioIndex(s));
        resp.chipEnergy[idx] = energy.at(s).chipTotal();
        resp.bvfUnitsEnergy[idx] = energy.at(s).bvfUnitsTotal();
    }
    return resp.encode();
}

/** One pool kernel's submit and its evaluations, in process. */
void
answerKernel(LayerPass &pass, std::size_t i, const PoolKernel &k,
             KernelTruth &truth, SpanLog *log, int parent)
{
    auto timed = [&](const char *name, auto &&call, double &total) {
        const auto t0 = Clock::now();
        auto result = call();
        const auto t1 = Clock::now();
        if (log)
            log->add(name, k.name, t0, t1, parent);
        total += secondsBetween(t0, t1);
        return result;
    };

    auto serviceS = [&] {
        return pass.decodeS + pass.verifyS + pass.optimizeS
               + pass.encodeS;
    };
    const double before = serviceS();
    auto decoded = timed(
        "isa.decode", [&] { return bvf::isa::decodeProgram(k.bytecode); },
        pass.decodeS);
    if (!decoded.ok()) {
        truth.mismatch = k.name + " does not decode: "
                         + decoded.error().describe();
        return;
    }
    const analysis::Verdict verdict = timed(
        "analysis.verify",
        [&] { return analysis::verifyProgram(decoded.value()); },
        pass.verifyS);
    if (!verdict.admitted) {
        ++pass.rejected;
        truth.submitPayload = expectedSubmit(k.bytecode, verdict, "");
        pass.submitServiceS[i] = serviceS() - before;
        const auto want = expectedRejection(k.kind);
        bool found = false;
        for (const analysis::Rejection &r : verdict.rejections)
            found = found || (want && r.reason == *want);
        if (!found) {
            truth.mismatch =
                k.name + " was rejected without its expected reason";
        }
        return;
    }
    ++pass.admitted;
    if (expectedRejection(k.kind))
        truth.mismatch = k.name + " is hostile but was admitted";

    const analysis::OptimizeResult opt = timed(
        "analysis.optimize",
        [&] { return analysis::optimizeProgram(decoded.value()); },
        pass.optimizeS);
    const bool optimized = opt.accepted && opt.changed;
    std::string optBytecode;
    if (optimized) {
        // The worker encodes the optimized program to name it.
        optBytecode = timed(
            "isa.encode",
            [&] { return bvf::isa::encodeProgram(opt.program); },
            pass.encodeS);
    }
    pass.submitServiceS[i] = serviceS() - before;
    if (optimized) {
        pass.rewrites += opt.stats.total();
        // The validation optimizeProgram ran, repeated on the same
        // inputs so its share of the optimizer's time shows.
        const analysis::EquivVerdict eq = timed(
            "analysis.validate",
            [&] {
                return analysis::validateTranslation(
                    decoded.value(), opt.program, opt.sourcePc);
            },
            pass.validateS);
        if (!eq.equivalent)
            truth.mismatch = k.name + " failed re-validation";
    }
    truth.submitPayload = expectedSubmit(k.bytecode, verdict, optBytecode);
    const server::StoredKernel stored{std::move(decoded.value()),
                                      verdict.certificate};

    for (int c = 0; c < kNumConfigs; ++c) {
        double evalS = 0;
        std::string payload = timed(
            "core.eval",
            [&] { return expectedEval(stored, c, pass.gpu); },
            evalS);
        pass.evalS += evalS;
        pass.evalServiceS[{i, c}] = evalS;
        ++pass.evalCount;
        if (payload.empty())
            truth.mismatch = k.name + " does not evaluate in process";
        pass.evals[{i, c}] = std::move(payload);
    }
}

/**
 * Answer pool kernel @p i's requests in process into @p pass; returns
 * the seconds taken. With @p log, each call into a layer is recorded
 * as a span under the kernel's span.
 */
double
answerInProcess(LayerPass &pass, const std::vector<PoolKernel> &pool,
                std::size_t i, SpanLog *log)
{
    const PoolKernel &k = pool[i];
    const auto kernelStart = Clock::now();
    const int parent =
        log ? log->add("service.kernel", k.name, kernelStart, kernelStart)
            : -1;
    answerKernel(pass, i, k, pass.kernels[i], log, parent);
    const auto kernelEnd = Clock::now();
    if (log)
        log->setEnd(parent, kernelEnd);
    const double s = secondsBetween(kernelStart, kernelEnd);
    pass.wallS += s;
    return s;
}

LayerPass
emptyLayerPass(std::size_t kernels)
{
    LayerPass pass;
    pass.kernels.resize(kernels);
    pass.submitServiceS.assign(kernels, 0.0);
    return pass;
}

/** Answer every pool request in process. */
LayerPass
runLayerPass(const std::vector<PoolKernel> &pool)
{
    LayerPass pass = emptyLayerPass(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
        answerInProcess(pass, pool, i, nullptr);
    return pass;
}

/**
 * Answer every pool request in process twice, kernel by kernel:
 * untraced into @p untraced, with spans into @p traced and @p log,
 * alternating which goes first. @p overheadRatios gets each kernel's
 * traced / untraced seconds.
 */
void
runPairedLayerPasses(const std::vector<PoolKernel> &pool, SpanLog &log,
                     LayerPass &untraced, LayerPass &traced,
                     std::vector<double> &overheadRatios)
{
    untraced = emptyLayerPass(pool.size());
    traced = emptyLayerPass(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        double tracedS = 0;
        double untracedS = 0;
        if (i % 2 == 0) {
            tracedS = answerInProcess(traced, pool, i, &log);
            untracedS = answerInProcess(untraced, pool, i, nullptr);
        } else {
            untracedS = answerInProcess(untraced, pool, i, nullptr);
            tracedS = answerInProcess(traced, pool, i, &log);
        }
        overheadRatios.push_back(tracedS / untracedS);
    }
}

/** One client request as the client saw it. */
struct Request
{
    bool submit = true;
    std::size_t kernel = 0;
    int config = 0;
    double ms = 0;
    bool ok = false;     //!< a well-formed answer of the expected type
    std::string payload; //!< response payload, or why it failed
};

/**
 * Send one request and keep the answer, timed as the client sees it.
 * Anything but a response of type @p answer is a failed request.
 */
Request
exchange(fleet::WorkerClient &client, server::MsgType type,
         std::string payload, server::MsgType answer)
{
    Request r;
    const auto t0 = Clock::now();
    auto reply = client.request({type, std::move(payload)}, kRequestDeadline);
    r.ms = 1e3 * secondsBetween(t0, Clock::now());
    if (!reply.ok()) {
        r.payload = reply.error().describe();
    } else if (reply.value().type != answer) {
        const auto error = server::WireError::decode(reply.value().payload);
        r.payload = server::msgTypeName(reply.value().type)
                    + (error.ok() ? ": " + error.value().message : "");
    } else {
        r.ok = true;
        r.payload = std::move(reply.value().payload);
    }
    return r;
}

/**
 * One client's walk over the pool: submit every kernel of @p order,
 * evaluating each admitted one under the next config of the rotation.
 * Returns false when @p deadline cut the walk short.
 */
bool
clientWalk(fleet::WorkerClient &client, const std::vector<PoolKernel> &pool,
           const std::vector<std::size_t> &order, int &nextConfig,
           Clock::time_point deadline, std::vector<Request> &out)
{
    for (const std::size_t i : order) {
        if (Clock::now() >= deadline)
            return false;
        server::SubmitKernelRequest submit;
        submit.bytecode = pool[i].bytecode;
        submit.optimize = 1;
        Request req = exchange(client, server::MsgType::SubmitKernelRequest,
                               submit.encode(),
                               server::MsgType::SubmitKernelResponse);
        req.kernel = i;
        std::string digest;
        if (req.ok) {
            const auto decoded =
                server::SubmitKernelResponse::decode(req.payload);
            if (decoded.ok() && decoded.value().admitted)
                digest = decoded.value().digest;
        }
        out.push_back(std::move(req));
        if (digest.empty())
            continue;

        const int config = nextConfig;
        nextConfig = (nextConfig + 1) % kNumConfigs;
        Request eval = exchange(client, server::MsgType::EvalSubmittedRequest,
                                evalRequest(digest, config).encode(),
                                server::MsgType::EvalSubmittedResponse);
        eval.submit = false;
        eval.kernel = i;
        eval.config = config;
        out.push_back(std::move(eval));
    }
    return true;
}

/**
 * Seeded permutation, for one walk, of the pool kernels client
 * @p client owns: those the ring routes to worker @p client.
 */
std::vector<std::size_t>
walkOrder(const std::vector<PoolKernel> &pool, std::uint64_t seed, int walk,
          int client)
{
    bvf::Rng rng(seed * 0x9e3779b97f4a7c15ull
                  + static_cast<std::uint64_t>(walk) * 131
                  + static_cast<std::uint64_t>(client));
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i].worker == static_cast<std::size_t>(client))
            order.push_back(i);
    }
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.nextBounded(i + 1)]);
    return order;
}

/** Print a latency percentile with its sample counts, or its refusal. */
void
reportPercentile(const char *what, const std::vector<double> &samples,
                 double p)
{
    const auto v = percentile(samples, p);
    if (!v.ok()) {
        note("%-14s not reported: %s", what, v.error().describe().c_str());
        return;
    }
    note("%-14s %10.3f ms  (p%g of %zu samples, %zu beyond)", what,
         v.value(), p * 100.0, samples.size(),
         samplesBeyond(samples.size(), p));
}

/** Direct-to-worker and through-the-front ping p50s [us]. */
std::pair<double, double>
pingLatencies(const Fleet &fleetUnderTest, Outcome &out)
{
    fleet::WorkerClient direct(fleetUnderTest.workerAddress(0));
    fleet::WorkerClient front(fleetUnderTest.frontAddress());
    std::vector<double> directUs;
    std::vector<double> frontUs;
    for (int i = 0; i < kPings; ++i) {
        // Interleaved so both see the same background activity.
        for (auto *c : {&direct, &front}) {
            const auto t0 = Clock::now();
            const bool ok = ping(*c, static_cast<std::uint64_t>(i) + 1);
            const double us = 1e6 * secondsBetween(t0, Clock::now());
            if (!ok)
                out.mismatch("ping unanswered");
            (c == &direct ? directUs : frontUs).push_back(us);
        }
    }
    return {percentile(directUs, 0.5).valueOr(0.0),
            percentile(frontUs, 0.5).valueOr(0.0)};
}

} // namespace

Outcome
runKernelService(std::uint64_t seed, double seconds, bool traced,
                 SpanLog &log)
{
    Outcome out;

    // Set-up: building the planned pool plus fleet start, repeated; the
    // last fleet serves the run. Planning searches a seed-dependent
    // number of redraws, so it stays outside the timed part.
    constexpr int kSetupReps = 7;
    const KernelPoolPlan plan = planKernelPool(seed);
    std::vector<double> setupS;
    std::vector<PoolKernel> pool;
    std::unique_ptr<Fleet> fleetUnderTest;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        fleetUnderTest.reset();
        const auto t0 = Clock::now();
        std::vector<PoolKernel> fresh = buildKernelPool(plan);
        auto started = std::make_unique<Fleet>();
        if (auto s = started->start(); !s.ok()) {
            out.mismatch("fleet did not start: " + s.error().describe());
            return out;
        }
        fleet::WorkerClient warm(started->frontAddress());
        if (!ping(warm, 1))
            out.mismatch("fleet front end does not answer");
        setupS.push_back(secondsBetween(t0, Clock::now()));
        if (rep > 0) {
            bool same = fresh.size() == pool.size();
            for (std::size_t i = 0; same && i < fresh.size(); ++i)
                same = fresh[i].bytecode == pool[i].bytecode;
            if (!same)
                out.mismatch("kernel pool is not a pure function of the seed");
        }
        pool = std::move(fresh);
        fleetUnderTest = std::move(started);
    }
    if (plannedResidentKernels(pool) >= server::KernelStore::kMaxResident)
        out.mismatch("pool would overflow a worker's kernel store");

    std::size_t poolBytes = 0;
    for (const PoolKernel &k : pool)
        poolBytes += k.bytecode.size();
    note("setup_s %.3f s: median of %zu pool builds + fleet starts "
         "(%.3f .. %.3f s)",
         median(setupS), setupS.size(),
         *std::min_element(setupS.begin(), setupS.end()),
         *std::max_element(setupS.begin(), setupS.end()));
    note("kernel pool: %zu kernels (%zu hostile), %.1f MB of bytecode, "
         "seed %llu",
         pool.size(), kHostileKernels, poolBytes / 1e6,
         static_cast<unsigned long long>(seed));

    // Closed loop: each client walks seeded permutations of its half of
    // the pool, back to back, until the window is spent. Client c owns
    // the kernels routed to worker c, so the two loops never queue
    // behind each other and a latency percentile measures service and
    // transport, not which requests happened to collide.
    std::vector<std::unique_ptr<fleet::WorkerClient>> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<fleet::WorkerClient>(
            fleetUnderTest->frontAddress()));
    }
    std::vector<std::vector<Request>> requests(kClients);
    const auto loopStart = Clock::now();
    const auto deadline =
        loopStart + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            const auto ci = static_cast<std::size_t>(c);
            int nextConfig = c % kNumConfigs;
            for (int walk = 0;
                 clientWalk(*clients[ci], pool,
                            walkOrder(pool, seed, walk, c),
                            nextConfig, deadline, requests[ci]);
                 ++walk) {
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double loopS = secondsBetween(loopStart, Clock::now());
    const fleet::FleetStats fleetStats =
        fleetUnderTest->coordinator().stats();

    std::pair<double, double> pings{0.0, 0.0};
    if (traced)
        pings = pingLatencies(*fleetUnderTest, out);
    clients.clear();
    fleetUnderTest.reset();

    // Check every answer against the same request answered in process;
    // in the traced run that pass is also the per-layer measurement.
    LayerPass untracedPass;
    LayerPass truth;
    std::vector<double> overheadRatios;
    if (traced)
        runPairedLayerPasses(pool, log, untracedPass, truth, overheadRatios);
    else
        truth = runLayerPass(pool);
    for (const KernelTruth &k : truth.kernels) {
        if (!k.mismatch.empty())
            out.mismatch(k.mismatch);
    }

    std::vector<double> submitMs;
    std::vector<double> evalMs;
    double submitQueueS = 0;
    double evalQueueS = 0;
    std::size_t totalRequests = 0;
    for (const std::vector<Request> &mine : requests) {
        for (const Request &r : mine) {
            ++totalRequests;
            ++out.attempted;
            const KernelTruth &k = truth.kernels[r.kernel];
            const std::string *want = &k.submitPayload;
            if (!r.submit) {
                const auto it = truth.evals.find({r.kernel, r.config});
                want = it == truth.evals.end() ? nullptr : &it->second;
            }
            const bool match = r.ok && want && !want->empty()
                               && r.payload == *want
                               && k.mismatch.empty();
            if (!match) {
                ++out.failed;
                out.mismatch(bvf::strFormat(
                    "%s of %s%s: %s", r.submit ? "submit" : "eval",
                    pool[r.kernel].name.c_str(),
                    r.submit ? "" : bvf::strFormat(" config %d", r.config).c_str(),
                    r.ok ? "response differs from the in-process answer"
                         : r.payload.c_str()));
                continue;
            }
            if (r.submit) {
                submitMs.push_back(r.ms);
                submitQueueS += r.ms / 1e3 - truth.submitServiceS[r.kernel];
            } else {
                evalMs.push_back(r.ms);
                evalQueueS += r.ms / 1e3
                              - truth.evalServiceS.at({r.kernel, r.config});
            }
        }
    }
    if (fleetStats.overloaded != 0)
        out.mismatch("the coordinator answered Overloaded");

    // A pass: every pool kernel submitted once, by its client.
    const double passes = static_cast<double>(submitMs.size())
                          / static_cast<double>(pool.size());
    note("closed loop: %d clients, %.2f passes over the pool in %.2f s, "
         "%zu requests (%zu submits, %zu evals), %.1f requests/s",
         kClients, passes, loopS, totalRequests, submitMs.size(),
         evalMs.size(), static_cast<double>(totalRequests) / loopS);
    reportPercentile("submit_p50_ms", submitMs, 0.50);
    reportPercentile("submit_p95_ms", submitMs, 0.95);
    reportPercentile("eval_p50_ms", evalMs, 0.50);
    // The tail the sample supports: p99 when at least 1000 evaluations
    // completed, else the highest step below it with 10 beyond.
    for (const double p : {0.99, 0.98, 0.975, 0.95, 0.9}) {
        if (samplesBeyond(evalMs.size(), p) >= kMinBeyond || p == 0.9) {
            reportPercentile(p == 0.99 ? "eval_p99_ms" : "eval_tail_ms",
                             evalMs, p);
            break;
        }
    }
    note("failed_frac    %.6f  (%llu of %llu requests)",
         out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
         static_cast<unsigned long long>(out.failed),
         static_cast<unsigned long long>(out.attempted));
    note("verdicts: %llu admitted, %llu rejected with their expected "
         "reason; %llu rewrites shipped",
         static_cast<unsigned long long>(truth.admitted),
         static_cast<unsigned long long>(truth.rejected),
         static_cast<unsigned long long>(truth.rewrites));

    out.add("wall_s", passes > 0 ? loopS / passes : 0.0, "s");
    out.add("setup_s", median(setupS), "s");
    if (!traced)
        return out;

    // Per-layer metrics: means per submitted kernel (analysis) and per
    // evaluation (core), from the in-process pass.
    const double n = static_cast<double>(pool.size());
    const double verifyMs = 1e3 * truth.verifyS / n;
    const double validateMs = 1e3 * truth.validateS / n;
    const double optimizeSelfMs =
        1e3 * (truth.optimizeS - truth.validateS) / n;
    const double encodeMs = 1e3 * truth.encodeS / n;
    const double decodeMs = 1e3 * truth.decodeS / n;
    const double analysisMs = verifyMs + optimizeSelfMs + validateMs;
    double submitMean = 0;
    for (const double ms : submitMs)
        submitMean += ms;
    submitMean = submitMs.empty() ? 0.0 : submitMean / submitMs.size();
    note("analysis is %.1f%% of a worker's submit time and %.1f%% of the "
         "client-observed mean submit latency (%.3f ms)",
         100.0 * analysisMs / (decodeMs + analysisMs + encodeMs),
         submitMean > 0 ? 100.0 * analysisMs / submitMean : 0.0, submitMean);
    out.add("isa.decode_ms", decodeMs, "ms");
    out.add("isa.encode_ms", encodeMs, "ms");
    out.add("analysis.verify_ms", verifyMs, "ms");
    out.add("analysis.optimize_self_ms", optimizeSelfMs, "ms");
    out.add("analysis.validate_ms", validateMs, "ms");
    out.add("analysis.submit_share_pct",
            100.0 * analysisMs / (decodeMs + analysisMs + encodeMs), "%");
    out.add("core.eval_ms",
            truth.evalCount ? 1e3 * truth.evalS / truth.evalCount : 0.0,
            "ms");
    out.add("server.ping_us", pings.first, "us");
    out.add("fleet.hop_us", pings.second - pings.first, "us");
    out.add("server.queue_ms",
            totalRequests
                ? 1e3 * (submitQueueS + evalQueueS)
                      / static_cast<double>(submitMs.size() + evalMs.size())
                : 0.0,
            "ms");

    truth.gpu.report(out);
    out.add("analysis.admitted", static_cast<double>(truth.admitted), "count");
    out.add("analysis.rejected", static_cast<double>(truth.rejected), "count");
    out.add("analysis.rewrites", static_cast<double>(truth.rewrites), "count");
    out.add("fleet.failovers", static_cast<double>(fleetStats.failovers),
            "count");
    out.add("fleet.overloaded", static_cast<double>(fleetStats.overloaded),
            "count");

    // Counters must repeat exactly between the two in-process passes.
    if (untracedPass.admitted != truth.admitted
        || untracedPass.rejected != truth.rejected
        || untracedPass.rewrites != truth.rewrites
        || !(untracedPass.gpu == truth.gpu)
        || untracedPass.evals != truth.evals)
        out.mismatch("in-process counters differ between repeats");

    const double spans = truth.decodeS + truth.verifyS + truth.optimizeS
                         + truth.validateS + truth.encodeS + truth.evalS;
    const Quartiles overhead = quartiles(overheadRatios);
    note("trace.overhead_pct %.2f%%: median of %zu per-kernel "
         "traced/untraced pairs (quartiles %.2f%% .. %.2f%%)",
         100.0 * (overhead.median - 1.0), overheadRatios.size(),
         100.0 * (overhead.q1 - 1.0), 100.0 * (overhead.q3 - 1.0));
    out.add("trace.overhead_pct", 100.0 * (overhead.median - 1.0), "%");
    out.add("trace.coverage_pct", 100.0 * spans / truth.wallS, "%");
    return out;
}

} // namespace bvfbench
