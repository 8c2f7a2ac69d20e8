/**
 * @file
 * Campaign workload passes.
 */

#include "campaign_bench.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "reference.hh"
#include "stats.hh"
#include "workload/kernel_builder.hh"

namespace bvfbench
{

using bvf::campaign::AppResult;
using bvf::campaign::AppStatus;
using bvf::campaign::CampaignReport;
using bvf::coder::Scenario;

namespace
{

/**
 * Times every call into the wrapped sink and counts the words handed
 * over. Two clock reads per call is the tracing overhead the traced
 * pass reports as trace.overhead_pct.
 */
class TimingSink final : public bvf::sram::AccessSink
{
  public:
    explicit TimingSink(bvf::sram::AccessSink &inner) : inner_(inner) {}

    void
    onAccess(bvf::coder::UnitId unit, bvf::sram::AccessType type,
             std::span<const bvf::Word> block, std::uint32_t activeMask,
             std::uint64_t cycle) override
    {
        const auto t0 = Clock::now();
        inner_.onAccess(unit, type, block, activeMask, cycle);
        record(t0, block.size());
    }

    void
    onFetch(bvf::coder::UnitId unit, bvf::sram::AccessType type,
            std::span<const bvf::Word64> instrs,
            std::uint64_t cycle) override
    {
        const auto t0 = Clock::now();
        inner_.onFetch(unit, type, instrs, cycle);
        record(t0, instrs.size());
    }

    void
    onNocPacket(int channel, std::span<const bvf::Word> payload,
                bool instrStream, std::uint64_t cycle) override
    {
        const auto t0 = Clock::now();
        inner_.onNocPacket(channel, payload, instrStream, cycle);
        record(t0, payload.size());
    }

    double seconds() const { return seconds_; }
    std::uint64_t words() const { return words_; }
    std::uint64_t calls() const { return calls_; }

  private:
    void
    record(Clock::time_point t0, std::size_t words)
    {
        seconds_ += secondsBetween(t0, Clock::now());
        words_ += words;
        ++calls_;
    }

    bvf::sram::AccessSink &inner_;
    double seconds_ = 0;
    std::uint64_t words_ = 0;
    std::uint64_t calls_ = 0;
};

/** The runner's per-app bookkeeping, copied from a completed energy. */
AppResult
completedResult(const bvf::workload::AppSpec &spec,
                const bvf::core::AppRun &run,
                const bvf::core::AppEnergy &energy)
{
    AppResult r;
    r.name = spec.name;
    r.abbr = spec.abbr;
    r.status = AppStatus::Completed;
    r.attempts = 1;
    r.cycles = run.gpuStats.cycles;
    r.instructions = run.gpuStats.sm.issued;
    for (const Scenario s : bvf::coder::allScenarios) {
        const auto idx =
            static_cast<std::size_t>(bvf::coder::scenarioIndex(s));
        r.chipEnergy[idx] = energy.at(s).chipTotal();
        r.bvfUnitsEnergy[idx] = energy.at(s).bvfUnitsTotal();
    }
    return r;
}

/** Counters CampaignRunner::run derives from its ordered results. */
void
countResults(CampaignReport &report)
{
    for (const AppResult &r : report.results) {
        if (r.status == AppStatus::Completed)
            ++report.completed;
        else
            ++report.quarantined;
        if (r.attempts > 1)
            ++report.retried;
    }
}

AppResult
failedResult(const bvf::workload::AppSpec &spec, bvf::Error error)
{
    AppResult r;
    r.name = spec.name;
    r.abbr = spec.abbr;
    r.status = AppStatus::Quarantined;
    r.error = std::move(error);
    return r;
}

/** The exact counters, by the names the reference file uses. */
std::vector<std::pair<std::string, std::uint64_t>>
namedCounters(const CampaignCounters &c)
{
    const GpuCounters &g = c.gpu;
    return {{"gpu.cycles", g.cycles},
            {"gpu.issued", g.issued},
            {"gpu.idle_cycles", g.idleCycles},
            {"gpu.l2_hits", g.l2Hits},
            {"gpu.l2_misses", g.l2Misses},
            {"gpu.dram_row_hits", g.dramRowHits},
            {"gpu.dram_row_misses", g.dramRowMisses},
            {"noc.packets", g.nocPackets},
            {"noc.flits", g.nocFlits},
            {"noc.latency_cycles", g.nocLatency},
            {"core.accountant_words", c.accountantWords},
            {"core.accountant_calls", c.accountantCalls}};
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

} // namespace

CampaignPass
runCampaignPass(const bvf::core::ExperimentDriver &driver,
                std::span<const bvf::workload::AppSpec> apps)
{
    bvf::campaign::CampaignOptions options;
    options.jobs = 1;
    bvf::campaign::CampaignRunner runner(driver, options);

    CampaignPass pass;
    const auto start = Clock::now();
    auto report = runner.run(apps);
    pass.wallS = secondsBetween(start, Clock::now());
    // Only journal I/O fails a whole campaign, and this one has none.
    panic_if(!report.ok(), "campaign failed: %s",
             report.error().describe().c_str());
    pass.report = std::move(report.value());
    return pass;
}

namespace
{

/** @p spec through the traced composition, appended to @p pass. */
void
tracedApp(const bvf::core::ExperimentDriver &driver,
          const bvf::workload::AppSpec &spec, TracedPass &pass, SpanLog &log)
{
    const bvf::core::Pricing pricing; // the campaign default
    const auto appStart = Clock::now();
    const int app = log.add("campaign.app", spec.abbr, appStart, appStart);
    auto child = [&](const char *name, Clock::time_point t0,
                     double innerS = 0) {
        const auto t1 = Clock::now();
        log.add(name, spec.abbr, t0, t1, app, innerS);
        return secondsBetween(t0, t1);
    };
    try {
        bvf::ScopedFatalTrap trap;

        auto t0 = Clock::now();
        bvf::isa::Program program = bvf::workload::buildProgram(spec);
        pass.layers.buildS += child("workload.build", t0);

        // ExperimentDriver::runProgram's composition under the
        // campaign's default RunOptions, with the decorator between
        // the machine and the accountant.
        bvf::core::AccountantOptions opts;
        opts.arch = driver.config().arch;
        bvf::core::AppRun run;
        run.name = spec.name;
        run.abbr = spec.abbr;
        run.memoryIntensive = spec.memoryIntensive;
        run.accountant = std::make_shared<bvf::core::EnergyAccountant>(
            driver.unitCapacities(), opts);
        TimingSink sink(*run.accountant);
        bvf::gpu::Gpu machine(driver.config(), std::move(program), sink);

        t0 = Clock::now();
        run.gpuStats = machine.run();
        pass.layers.gpuRunS += child("gpu.run", t0, sink.seconds());
        pass.gpuSinkS += sink.seconds();

        t0 = Clock::now();
        run.accountant->finalize(run.gpuStats.cycles);
        pass.layers.accountantS +=
            sink.seconds() + child("core.accountant.finalize", t0);

        t0 = Clock::now();
        const bvf::core::AppEnergy energy = driver.evaluate(run, pricing);
        pass.layers.evaluateS += child("power.evaluate", t0);

        pass.report.results.push_back(completedResult(spec, run, energy));

        pass.counters.gpu.add(run.gpuStats);
        pass.counters.accountantWords += sink.words();
        pass.counters.accountantCalls += sink.calls();
    } catch (const std::exception &e) {
        pass.report.results.push_back(failedResult(
            spec, bvf::Error{bvf::ErrorCode::Failed, e.what()}));
    }
    log.setEnd(app, Clock::now());
}

} // namespace

PairedPasses
runPairedPasses(const bvf::core::ExperimentDriver &driver,
                std::span<const bvf::workload::AppSpec> apps, SpanLog &log,
                bool tracedFirst)
{
    bvf::campaign::CampaignOptions options;
    options.jobs = 1;
    bvf::campaign::CampaignRunner runner(driver, options);
    PairedPasses p;
    p.untraced.report.configCrc = runner.configDigest(apps);
    p.traced.report.configCrc = p.untraced.report.configCrc;

    for (std::size_t i = 0; i < apps.size(); ++i) {
        auto untraced = [&] {
            const auto t0 = Clock::now();
            auto one = runner.run(apps.subspan(i, 1));
            const double s = secondsBetween(t0, Clock::now());
            panic_if(!one.ok(), "campaign failed: %s",
                     one.error().describe().c_str());
            p.untraced.report.results.push_back(one.value().results.front());
            p.untraced.wallS += s;
            return s;
        };
        auto traced = [&] {
            const auto t0 = Clock::now();
            tracedApp(driver, apps[i], p.traced, log);
            const double s = secondsBetween(t0, Clock::now());
            p.traced.wallS += s;
            return s;
        };
        double untracedS = 0;
        double tracedS = 0;
        if ((i % 2 == 0) == tracedFirst) {
            tracedS = traced();
            untracedS = untraced();
        } else {
            untracedS = untraced();
            tracedS = traced();
        }
        p.overheadRatios.push_back(tracedS / untracedS);
    }
    countResults(p.untraced.report);
    countResults(p.traced.report);
    return p;
}

double
buildAllPrograms(std::span<const bvf::workload::AppSpec> apps)
{
    const auto t0 = Clock::now();
    std::size_t instructions = 0;
    for (const bvf::workload::AppSpec &spec : apps)
        instructions += bvf::workload::buildProgram(spec).body.size();
    const double s = secondsBetween(t0, Clock::now());
    panic_if(instructions == 0, "built programs are empty");
    return s;
}

std::vector<double>
chipSavings(const CampaignReport &report)
{
    const auto base = static_cast<std::size_t>(
        bvf::coder::scenarioIndex(Scenario::Baseline));
    const auto all = static_cast<std::size_t>(
        bvf::coder::scenarioIndex(Scenario::AllCoders));
    std::vector<double> out;
    for (const AppResult &r : report.results) {
        if (r.status == AppStatus::Completed)
            out.push_back(1.0 - r.chipEnergy[all] / r.chipEnergy[base]);
    }
    return out;
}

Outcome
runCampaignWorkload(Workload w, double seconds, bool traced, SpanLog &log,
                    const std::string &referenceDir, bool recordReference)
{
    Outcome out;
    const std::vector<bvf::workload::AppSpec> apps = campaignApps(w);
    const bvf::core::ExperimentDriver driver(bvf::gpu::baselineConfig());
    const std::string name(workloadName(w));
    const std::string refPath = referenceDir + "/" + name + ".txt";
    Reference ref;
    if (!recordReference) {
        auto loaded = loadReference(refPath);
        if (!loaded.ok())
            out.mismatch("no reference: " + loaded.error().describe());
        else
            ref = std::move(loaded.value());
    }

    // Set-up: building every app's program, repeated until the builds
    // cover 1.5 s (at least 5 of them), so the median of the builds is
    // not one scheduler hiccup.
    std::vector<double> setupS;
    for (double total = 0; setupS.size() < 5 || total < 1.5;) {
        setupS.push_back(buildAllPrograms(apps));
        total += setupS.back();
    }
    note("setup_s %.3f s: median of %zu builds of every program "
         "(%.3f .. %.3f s)",
         median(setupS), setupS.size(),
         *std::min_element(setupS.begin(), setupS.end()),
         *std::max_element(setupS.begin(), setupS.end()));

    // Passes until the window is spent; at least one. The traced run
    // pairs every app's untraced and traced run, alternating which goes
    // first, so host drift cancels out of the overhead ratios.
    std::vector<CampaignPass> passes;
    std::vector<TracedPass> tracedPasses;
    std::vector<double> overheadRatios;
    const auto start = Clock::now();
    for (;;) {
        const double elapsed = secondsBetween(start, Clock::now());
        const double typical =
            passes.empty() ? 0.0
                           : elapsed / static_cast<double>(passes.size());
        if (!passes.empty() && elapsed + typical > seconds)
            break;
        if (!traced) {
            passes.push_back(runCampaignPass(driver, apps));
            continue;
        }
        PairedPasses p =
            runPairedPasses(driver, apps, log, passes.size() % 2 == 0);
        passes.push_back(std::move(p.untraced));
        tracedPasses.push_back(std::move(p.traced));
        overheadRatios.insert(overheadRatios.end(), p.overheadRatios.begin(),
                              p.overheadRatios.end());
    }

    // Correctness: every report renders the reference bytes, traced and
    // untraced alike, and the traced counters repeat exactly.
    const std::string report = passes.front().report.render();
    const std::string digest = reportDigest(report);
    // Returns the apps of the pass counted failed.
    auto checkReport = [&](const CampaignReport &r, const char *what) {
        out.attempted += r.results.size();
        std::size_t failed = static_cast<std::size_t>(r.quarantined);
        const std::string bytes = r.render();
        if (r.quarantined > 0)
            out.mismatch(bvf::strFormat("%s pass quarantined %d app(s)",
                                        what, r.quarantined));
        const bool same = bytes == report
                          && (recordReference || digest == ref["report"]);
        if (!same) {
            failed = r.results.size();
            out.mismatch(bvf::strFormat(
                "%s report %s differs from reference %s", what,
                reportDigest(bytes).c_str(), ref["report"].c_str()));
        }
        out.failed += failed;
        return failed;
    };
    for (const CampaignPass &p : passes)
        checkReport(p.report, "untraced");
    for (const TracedPass &p : tracedPasses) {
        const std::size_t failed = checkReport(p.report, "traced");
        bool same = p.counters == tracedPasses.front().counters;
        for (const auto &[key, value] : namedCounters(p.counters)) {
            const std::string got = bvf::strFormat(
                "%llu", static_cast<unsigned long long>(value));
            if (!recordReference && ref[key] != got) {
                same = false;
                out.mismatch(bvf::strFormat("counter %s = %s, reference %s",
                                            key.c_str(), got.c_str(),
                                            ref[key].c_str()));
            }
        }
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const AppResult &t = p.report.results[i];
            const AppResult &u = passes.front().report.results[i];
            same = same && t.cycles == u.cycles
                   && t.instructions == u.instructions;
        }
        if (!same) {
            // Counters that move between repeats or away from the
            // reference make every app of the pass suspect.
            out.failed += apps.size() - failed;
            out.mismatch("traced counters differ from the untraced run, "
                         "an earlier repeat or the reference");
        }
    }

    // Accuracy beside speed: the suite-mean chip saving at 28 nm.
    const std::vector<double> savings = chipSavings(passes.front().report);
    double savingSum = 0;
    for (const double s : savings)
        savingSum += s;
    note("%s: %zu apps, report %s (reference %s)", name.c_str(),
         apps.size(), digest.c_str(),
         recordReference ? "being recorded" : ref["report"].c_str());
    note("BVF chip saving at 28 nm, all coders vs baseline: %.2f%% mean over "
         "this workload's %zu apps",
         100.0 * savingSum / static_cast<double>(savings.size()),
         savings.size());
    const Workload other = w == Workload::CampaignStall
                               ? Workload::CampaignDense
                               : Workload::CampaignStall;
    const auto otherRef = loadReference(
        referenceDir + "/" + std::string(workloadName(other)) + ".txt");
    if (otherRef.ok() && otherRef.value().count("saving_sum")
        && otherRef.value().count("saving_apps")) {
        const double otherSum =
            std::strtod(otherRef.value().at("saving_sum").c_str(), nullptr);
        const double otherApps =
            std::strtod(otherRef.value().at("saving_apps").c_str(), nullptr);
        note("  58-app suite mean (this run + %s's recorded %.0f apps): "
             "%.2f%%; EXPERIMENTS.md 22.8%%, paper 21%%",
             std::string(workloadName(other)).c_str(), otherApps,
             100.0 * (savingSum + otherSum)
                 / (static_cast<double>(savings.size()) + otherApps));
    }
    note("  modelled caches start empty for each app (no warm-up); "
         "statistics cover the whole kernel");

    if (recordReference) {
        Reference fresh;
        fresh["report"] = digest;
        fresh["saving_sum"] = bvf::strFormat("%a", savingSum);
        fresh["saving_apps"] = bvf::strFormat("%zu", savings.size());
        if (!tracedPasses.empty()) {
            for (const auto &[key, value] :
                 namedCounters(tracedPasses.front().counters))
                fresh[key] = bvf::strFormat(
                    "%llu", static_cast<unsigned long long>(value));
        } else {
            out.mismatch("--record-reference needs the traced run");
        }
        const std::string header = bvf::strFormat(
            "# Reference outputs of the %s workload.\n"
            "# Regenerate after a change that alters modelled results:\n"
            "#   python3 bvfbench/run.py --workload %s --seed 1 "
            "--seconds 1 --trace 1 --record-reference\n",
            name.c_str(), name.c_str());
        if (auto saved = saveReference(refPath, header, fresh); !saved.ok())
            out.mismatch("cannot record reference: "
                         + saved.error().describe());
    }

    std::vector<double> walls;
    std::string wallList;
    for (const CampaignPass &p : passes) {
        walls.push_back(p.wallS);
        wallList += bvf::strFormat(" %.3f", p.wallS);
    }
    note("wall_s %.3f s: median of %zu serial passes (%s s)%s",
         median(walls), walls.size(), wallList.c_str() + 1,
         traced ? ", each the sum of one-app campaigns" : "");
    if (!traced) {
        out.add("wall_s", median(walls), "s");
        out.add("setup_s", median(setupS), "s");
        return out;
    }

    // Per-layer metrics: means over the traced passes.
    const double n = static_cast<double>(tracedPasses.size());
    CampaignLayers layers;
    double sinkS = 0;
    std::vector<double> tracedWalls;
    for (const TracedPass &p : tracedPasses) {
        layers.buildS += p.layers.buildS / n;
        layers.gpuRunS += p.layers.gpuRunS / n;
        layers.accountantS += p.layers.accountantS / n;
        layers.evaluateS += p.layers.evaluateS / n;
        sinkS += p.gpuSinkS / n;
        tracedWalls.push_back(p.wallS);
    }
    const double tracedWall = mean(tracedWalls);
    const double gpuSelf = layers.gpuRunS - sinkS;
    const double accountantSelf = layers.accountantS;
    const double named = layers.buildS + layers.gpuRunS
                         + (layers.accountantS - sinkS) + layers.evaluateS;
    const CampaignCounters &c = tracedPasses.front().counters;
    out.add("workload.build_s", layers.buildS, "s");
    out.add("gpu.self_s", gpuSelf, "s");
    out.add("gpu.ns_per_cycle",
            1e9 * gpuSelf / static_cast<double>(c.gpu.cycles), "ns");
    out.add("gpu.ns_per_inst",
            1e9 * gpuSelf / static_cast<double>(c.gpu.issued), "ns");
    out.add("core.accountant_self_s", accountantSelf, "s");
    out.add("core.accountant_ns_per_word",
            1e9 * accountantSelf / static_cast<double>(c.accountantWords),
            "ns");
    out.add("core.accountant_share_pct", 100.0 * accountantSelf / tracedWall,
            "%");
    out.add("power.evaluate_s", layers.evaluateS, "s");
    out.add("campaign.other_s", tracedWall - named, "s");
    c.gpu.report(out);
    out.add("core.accountant_words", static_cast<double>(c.accountantWords),
            "count");
    const Quartiles overhead = quartiles(overheadRatios);
    note("trace.overhead_pct %.2f%%: median of %zu per-app traced/untraced "
         "pairs (quartiles %.2f%% .. %.2f%%)",
         100.0 * (overhead.median - 1.0), overheadRatios.size(),
         100.0 * (overhead.q1 - 1.0), 100.0 * (overhead.q3 - 1.0));
    out.add("trace.overhead_pct", 100.0 * (overhead.median - 1.0), "%");
    out.add("trace.coverage_pct", 100.0 * named / tracedWall, "%");
    return out;
}

} // namespace bvfbench
