/**
 * @file
 * bvfbench: the repository benchmark.
 *
 *   bvfbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--reference-dir DIR] [--spans FILE] [--record-reference]
 *
 * Workloads: campaign-stall, campaign-dense, kernel-service (see
 * BENCHMARK.json for why each exists). Human-readable report lines
 * start with '#'; the last line of standard output is one JSON object
 * with the keys correct, attempted, failed and metrics. With --trace 0
 * the metrics are the end-to-end ones, with --trace 1 the per-layer
 * ones, and a layer a workload bypasses reads 0. Exit status is 0 when
 * a result was printed, 2 on a usage error.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign_bench.hh"
#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "service_bench.hh"

namespace
{

using namespace bvfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, reported by every workload. */
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Every per-layer metric; 0 where the workload bypasses the layer. */
constexpr MetricSpec kPerLayer[] = {
    {"workload.build_s", "s"},
    {"gpu.self_s", "s"},
    {"gpu.ns_per_cycle", "ns"},
    {"gpu.ns_per_inst", "ns"},
    {"core.accountant_self_s", "s"},
    {"core.accountant_ns_per_word", "ns"},
    {"core.accountant_share_pct", "%"},
    {"power.evaluate_s", "s"},
    {"campaign.other_s", "s"},
    {"isa.decode_ms", "ms"},
    {"isa.encode_ms", "ms"},
    {"analysis.verify_ms", "ms"},
    {"analysis.optimize_self_ms", "ms"},
    {"analysis.validate_ms", "ms"},
    {"analysis.submit_share_pct", "%"},
    {"core.eval_ms", "ms"},
    {"server.ping_us", "us"},
    {"fleet.hop_us", "us"},
    {"server.queue_ms", "ms"},
    {"gpu.cycles", "count"},
    {"gpu.issued", "count"},
    {"gpu.idle_cycles", "count"},
    {"gpu.l2_miss_ratio", "ratio"},
    {"gpu.dram_row_hit_ratio", "ratio"},
    {"noc.flits", "count"},
    {"noc.mean_latency_cycles", "cycles"},
    {"core.accountant_words", "count"},
    {"analysis.admitted", "count"},
    {"analysis.rejected", "count"},
    {"analysis.rewrites", "count"},
    {"fleet.failovers", "count"},
    {"fleet.overloaded", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

struct Options
{
    Workload workload = Workload::CampaignStall;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string referenceDir = "bvfbench/reference";
    std::string spansPath;
    bool recordReference = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "bvfbench: %s\n"
                 "usage: bvfbench --workload campaign-stall|campaign-dense|"
                 "kernel-service --seed N --seconds S --trace 0|1\n"
                 "                [--reference-dir DIR] [--spans FILE] "
                 "[--record-reference]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        auto number = [&](const std::string &text) {
            char *end = nullptr;
            const double v = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !(v >= 0))
                usage(arg + ": not a non-negative number: " + text);
            return v;
        };
        if (arg == "--workload") {
            const std::string name = value();
            if (!parseWorkload(name, o.workload))
                usage("unknown workload '" + name + "'");
            haveWorkload = true;
        } else if (arg == "--seed") {
            const std::string text = value();
            char *end = nullptr;
            o.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || *end != '\0')
                usage("--seed: not an unsigned integer: " + text);
        } else if (arg == "--seconds") {
            o.seconds = number(value());
        } else if (arg == "--trace") {
            const std::string text = value();
            if (text != "0" && text != "1")
                usage("--trace takes 0 or 1");
            o.trace = text == "1";
        } else if (arg == "--reference-dir") {
            o.referenceDir = value();
        } else if (arg == "--spans") {
            o.spansPath = value();
        } else if (arg == "--record-reference") {
            o.recordReference = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (o.recordReference
        && (o.workload == Workload::KernelService || !o.trace))
        usage("--record-reference needs a campaign workload and --trace 1");
    return o;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The result line: every metric of the run's kind, in spec order. */
std::string
resultJson(const Outcome &out, bool trace)
{
    std::string metrics;
    auto emit = [&](const MetricSpec &spec) {
        double value = 0;
        bool found = false;
        for (const Metric &m : out.metrics) {
            if (m.name == spec.name) {
                value = m.value;
                found = true;
            }
        }
        panic_if(!trace && !found, "end-to-end metric %s was not measured",
                 spec.name);
        if (!metrics.empty())
            metrics += ", ";
        metrics += bvf::strFormat("%s: {\"value\": %.17g, \"unit\": %s}",
                                  bvf::jsonQuote(spec.name).c_str(), value,
                                  bvf::jsonQuote(spec.unit).c_str());
    };
    if (trace) {
        for (const MetricSpec &spec : kPerLayer)
            emit(spec);
    } else {
        for (const MetricSpec &spec : kEndToEnd)
            emit(spec);
    }
    return bvf::strFormat("{\"correct\": %s, \"attempted\": %llu, "
                          "\"failed\": %llu, \"metrics\": {%s}}",
                          out.correct ? "true" : "false",
                          static_cast<unsigned long long>(out.attempted),
                          static_cast<unsigned long long>(out.failed),
                          metrics.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    bvf::setLogLevel(bvf::LogLevel::Warn);

    SpanLog log;
    Outcome out =
        o.workload == Workload::KernelService
            ? runKernelService(o.seed, o.seconds, o.trace, log)
            : runCampaignWorkload(o.workload, o.seconds, o.trace, log,
                                  o.referenceDir, o.recordReference);
    out.add("peak_rss_mb", peakRssMb(), "MB");
    if (out.attempted == 0) {
        out.attempted = 1;
        out.failed = 1;
        out.mismatch("the run attempted nothing");
    }

    if (o.trace && !o.spansPath.empty()) {
        if (auto w = bvf::atomicWriteFile(o.spansPath, log.toJsonLines());
            !w.ok())
            std::fprintf(stderr, "bvfbench: cannot write spans: %s\n",
                         w.error().describe().c_str());
    }
    std::printf("%s\n", resultJson(out, o.trace).c_str());
    return 0;
}
