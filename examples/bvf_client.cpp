/**
 * @file
 * bvf_client: command-line client for the bvfd daemon.
 *
 * Speaks the CRC32-framed binary protocol (src/server/protocol.hh)
 * over TCP or a Unix socket and prints human-readable results. The
 * ping command doubles as a pipelining demo: all N requests are
 * written back to back before the first response is read, exercising
 * the daemon's in-order batched execution.
 *
 * Usage:
 *   bvf_client (--port N [--host H] | --unix PATH) COMMAND ...
 *
 * Commands:
 *   ping [N]                   N pipelined echo probes (default 1)
 *   eval-coder KIND HEX...     run a coder over raw 64-bit words;
 *                              KIND = identity|nv|vs|isa
 *   density APP                per-unit encoded bit-1 density
 *   energy APP                 per-scenario chip energy
 *   static APP                 static predictor bounds (no simulation)
 *   advise APP                 static coder advice: VS pivot ranking,
 *                              specialized ISA mask, unit picks
 *   submit FILE                submit an untrusted kernel (BVFK
 *                              bytecode, or assembly text which is
 *                              assembled client-side) for static
 *                              admission; --eval also simulates it
 *   eval DIGEST                simulate + price a previously admitted
 *                              kernel by its digest
 *   metrics                    scrape the /metrics exposition
 *
 * Options:
 *   --host H      TCP host (default 127.0.0.1)
 *   --port N      TCP port of the daemon
 *   --unix PATH   connect over a Unix socket instead
 *   --arch fermi|kepler|maxwell|pascal   (default pascal)
 *   --sched gto|lrr|two                  (default gto)
 *   --pivot N     VS register pivot      (default 21)
 *   --dynamic-isa per-app ISA mask
 *   --mask HEX    explicit ISA mask for eval-coder isa
 *   --node 28|40  --pstate 700|500|300  --cell bvf8t|bvf6t|8t|6t|edram
 *   --ecc         --cells-bitline N     (energy command)
 *   --retries N      transport retries after the first attempt
 *                    (default 0; each reconnects from scratch)
 *   --backoff-ms N   first retry delay, doubled per retry (default 100)
 *   --deadline-ms N  per-response wait budget (default 0 = forever)
 *
 * Transport failures -- connection refused, daemon hung up, response
 * deadline expired, torn frame -- are retried; an ErrorResponse is the
 * daemon's answer and is never retried.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fstream>
#include <sstream>

#include "analysis/verifier.hh"
#include "circuit/mem_cell.hh"
#include "coder/bvf_space.hh"
#include "coder/scenario.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "server/protocol.hh"
#include "server/transport.hh"

using namespace bvf;
using namespace bvf::server;

namespace
{

struct Options
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string unixPath;
    std::string command;
    std::vector<std::string> args;

    AppQuery query;
    std::uint64_t isaMask = 0;
    std::uint8_t node = 0;
    std::uint8_t pstate = 0;
    std::uint8_t cell = static_cast<std::uint8_t>(
        circuit::CellKind::SramBvf8T);
    std::uint8_t ecc = 0;
    std::uint32_t cellsBitline = 128;

    int retries = 0;      //!< transport retries after the first try
    int backoffMs = 100;  //!< first retry delay, doubled per retry
    int deadlineMs = 0;   //!< per-response wait budget; 0 = forever

    bool evalAfterSubmit = false; //!< submit --eval
};

/**
 * A failure of the pipe, not of the request: connect refused, daemon
 * hung up, deadline expired, torn frame. Retryable on a fresh
 * connection -- unlike an ErrorResponse, which is an answer.
 */
struct TransportError
{
    std::string what;
};

std::uint64_t
parseHex64(const std::string &flag, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 16);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        cli::dieUsage(strFormat(
            "invalid value '%s' for %s: expected a hex 64-bit word",
            value.c_str(), flag.c_str()));
    }
    return parsed;
}

Options
parse(int argc, char **argv)
{
    Options o;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--host") {
            o.host = args.value(arg);
        } else if (arg == "--port") {
            o.port = cli::parseInteger(arg, args.value(arg), 1, 65535);
        } else if (arg == "--unix") {
            o.unixPath = args.value(arg);
        } else if (arg == "--arch") {
            const auto v = args.value(arg);
            if (v == "fermi")
                o.query.arch = 0;
            else if (v == "kepler")
                o.query.arch = 1;
            else if (v == "maxwell")
                o.query.arch = 2;
            else if (v == "pascal")
                o.query.arch = 3;
            else
                cli::badChoice(arg, v, "fermi, kepler, maxwell, pascal");
        } else if (arg == "--sched") {
            const auto v = args.value(arg);
            if (v == "gto")
                o.query.sched = 0;
            else if (v == "lrr")
                o.query.sched = 1;
            else if (v == "two")
                o.query.sched = 2;
            else
                cli::badChoice(arg, v, "gto, lrr, two");
        } else if (arg == "--pivot") {
            o.query.vsPivot = static_cast<std::uint32_t>(
                cli::parseInteger(arg, args.value(arg), 0, 31));
        } else if (arg == "--dynamic-isa") {
            o.query.dynamicIsa = 1;
        } else if (arg == "--mask") {
            o.isaMask = parseHex64(arg, args.value(arg));
        } else if (arg == "--node") {
            const auto v = args.value(arg);
            if (v == "28")
                o.node = 0;
            else if (v == "40")
                o.node = 1;
            else
                cli::badChoice(arg, v, "28, 40");
        } else if (arg == "--pstate") {
            const auto v = args.value(arg);
            if (v == "700")
                o.pstate = 0;
            else if (v == "500")
                o.pstate = 1;
            else if (v == "300")
                o.pstate = 2;
            else
                cli::badChoice(arg, v, "700, 500, 300");
        } else if (arg == "--cell") {
            const auto v = args.value(arg);
            if (v == "6t")
                o.cell = 0;
            else if (v == "8t")
                o.cell = 1;
            else if (v == "bvf8t")
                o.cell = 2;
            else if (v == "bvf6t")
                o.cell = 3;
            else if (v == "edram")
                o.cell = 4;
            else
                cli::badChoice(arg, v, "bvf8t, bvf6t, 8t, 6t, edram");
        } else if (arg == "--ecc") {
            o.ecc = 1;
        } else if (arg == "--eval") {
            o.evalAfterSubmit = true;
        } else if (arg == "--cells-bitline") {
            o.cellsBitline = static_cast<std::uint32_t>(
                cli::parseInteger(arg, args.value(arg), 1, 8192));
        } else if (arg == "--retries") {
            o.retries = cli::parseInteger(arg, args.value(arg), 0, 100);
        } else if (arg == "--backoff-ms") {
            o.backoffMs =
                cli::parseInteger(arg, args.value(arg), 0, 60000);
        } else if (arg == "--deadline-ms") {
            o.deadlineMs =
                cli::parseInteger(arg, args.value(arg), 0, 3600000);
        } else if (arg.rfind("--", 0) == 0) {
            cli::dieUsage("unknown option '" + arg + "'");
        } else if (o.command.empty()) {
            o.command = arg;
        } else {
            o.args.push_back(arg);
        }
    }
    if (o.command.empty()) {
        cli::dieUsage("no command (ping, eval-coder, density, energy, "
                      "static, advise, submit, eval, metrics)");
    }
    if (o.command == "submit" && o.args.size() != 1)
        cli::dieUsage("submit needs exactly one kernel file");
    if (o.command == "eval" && o.args.size() != 1)
        cli::dieUsage("eval needs exactly one kernel digest");
    if (o.evalAfterSubmit && o.command != "submit")
        cli::dieUsage("--eval only applies to the submit command");
    if (o.port == 0 && o.unixPath.empty())
        cli::dieUsage("--port N or --unix PATH is required");
    return o;
}

/** Send @p bytes whole; throws TransportError on failure. */
void
sendBytes(Transport &t, std::string_view bytes)
{
    auto sent = t.send(bytes, std::chrono::milliseconds{0});
    if (!sent.ok())
        throw TransportError{sent.error().describe()};
}

/**
 * Read the next frame, waiting at most deadlineMs (per response) when
 * nonzero. Every failure mode here -- timeout, hangup, torn frame --
 * is a TransportError: the stream is unusable and only a fresh
 * connection can help.
 */
Frame
nextFrame(const Options &o, Transport &t, std::string &buf)
{
    const std::chrono::milliseconds budget{o.deadlineMs > 0 ? o.deadlineMs
                                                            : -1};
    auto frame = readFrame(t, buf, budget, systemClock());
    if (!frame.ok())
        throw TransportError{frame.error().describe()};
    return std::move(frame.value());
}

/** Fail loudly when @p frame is an ErrorResponse. */
void
rejectError(const Frame &frame)
{
    if (frame.type != MsgType::ErrorResponse)
        return;
    const auto wire = WireError::decode(frame.payload);
    fatal_if(wire.ok(), "daemon refused the request: [%u] %s",
             static_cast<unsigned>(wire.value().code),
             wire.value().message.c_str());
    fatal("daemon refused the request (undecodable error payload)");
}

/** Send one request and read its (non-error) response. */
Frame
roundTrip(const Options &o, Transport &t, MsgType type,
          const std::string &payload)
{
    sendBytes(t, encodeFrame(type, payload));
    std::string buf;
    Frame frame = nextFrame(o, t, buf);
    rejectError(frame);
    return frame;
}

int
cmdPing(const Options &o, Transport &t)
{
    int count = 1;
    if (!o.args.empty())
        count = cli::parseInteger("ping count", o.args[0], 1, 100000);

    // Pipelining demo: the whole batch goes out before any read.
    std::string batch;
    for (int i = 0; i < count; ++i) {
        Ping ping;
        ping.nonce = 0x1000u + static_cast<std::uint64_t>(i);
        batch += encodeFrame(MsgType::PingRequest, ping.encode());
    }
    sendBytes(t, batch);

    std::string buf;
    for (int i = 0; i < count; ++i) {
        const Frame frame = nextFrame(o, t, buf);
        rejectError(frame);
        fatal_if(frame.type != MsgType::PingResponse,
                 "expected ping-response, got %s",
                 msgTypeName(frame.type).c_str());
        const auto pong = Ping::decode(frame.payload);
        fatal_if(!pong.ok(), "bad ping-response: %s",
                 pong.error().describe().c_str());
        fatal_if(pong.value().nonce != 0x1000u + static_cast<std::uint64_t>(i),
                 "ping %d answered out of order (nonce %llu)", i,
                 static_cast<unsigned long long>(pong.value().nonce));
    }
    std::printf("%d ping(s) echoed in order\n", count);
    return 0;
}

int
cmdEvalCoder(const Options &o, Transport &t)
{
    if (o.args.size() < 2) {
        cli::dieUsage(
            "eval-coder needs a coder kind and at least one hex word");
    }
    EvalCoderRequest req;
    const std::string &kind = o.args[0];
    if (kind == "identity")
        req.coder = CoderKind::Identity;
    else if (kind == "nv")
        req.coder = CoderKind::Nv;
    else if (kind == "vs")
        req.coder = CoderKind::Vs;
    else if (kind == "isa")
        req.coder = CoderKind::Isa;
    else
        cli::badChoice("eval-coder", kind, "identity, nv, vs, isa");
    req.arch = o.query.arch;
    req.vsPivot = o.query.vsPivot;
    req.isaMask = o.isaMask;
    for (std::size_t i = 1; i < o.args.size(); ++i)
        req.words.push_back(parseHex64("eval-coder word", o.args[i]));

    const Frame frame =
        roundTrip(o, t, MsgType::EvalCoderRequest, req.encode());
    const auto resp = EvalCoderResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad eval-coder response: %s",
             resp.error().describe().c_str());
    const EvalCoderResponse &r = resp.value();
    std::printf("coder %s: %llu bits, ones %llu -> %llu (density "
                "%.4f -> %.4f)\n",
                kind.c_str(),
                static_cast<unsigned long long>(r.totalBits),
                static_cast<unsigned long long>(r.onesBefore),
                static_cast<unsigned long long>(r.onesAfter),
                static_cast<double>(r.onesBefore)
                    / static_cast<double>(r.totalBits),
                static_cast<double>(r.onesAfter)
                    / static_cast<double>(r.totalBits));
    for (std::size_t i = 0; i < r.encoded.size(); ++i) {
        std::printf("  %016llx -> %016llx\n",
                    static_cast<unsigned long long>(req.words[i]),
                    static_cast<unsigned long long>(r.encoded[i]));
    }
    return 0;
}

AppQuery
queryFor(const Options &o)
{
    fatal_if(o.args.empty(), "%s needs an application abbreviation",
             o.command.c_str());
    AppQuery q = o.query;
    q.abbr = o.args[0];
    return q;
}

int
cmdDensity(const Options &o, Transport &t)
{
    BitDensityRequest req;
    req.query = queryFor(o);
    const Frame frame =
        roundTrip(o, t, MsgType::BitDensityRequest, req.encode());
    const auto resp = BitDensityResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad density response: %s",
             resp.error().describe().c_str());
    const BitDensityResponse &r = resp.value();
    std::printf("%s: %llu cycles, %llu instructions\n",
                req.query.abbr.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    std::printf("%-10s", "unit");
    for (const auto s : coder::allScenarios)
        std::printf(" %10s", coder::scenarioName(s).c_str());
    std::printf("\n");
    for (const auto &u : r.units) {
        std::printf("%-10s",
                    coder::unitName(static_cast<coder::UnitId>(u.unit))
                        .c_str());
        for (const double d : u.density)
            std::printf(" %10.4f", d);
        std::printf("\n");
    }
    std::printf("%-10s", "NoC");
    for (const double d : r.nocDensity)
        std::printf(" %10.4f", d);
    std::printf("\n");
    return 0;
}

int
cmdEnergy(const Options &o, Transport &t)
{
    ChipEnergyRequest req;
    req.query = queryFor(o);
    req.node = o.node;
    req.pstate = o.pstate;
    req.cell = o.cell;
    req.ecc = o.ecc;
    req.cellsBitline = o.cellsBitline;
    const Frame frame =
        roundTrip(o, t, MsgType::ChipEnergyRequest, req.encode());
    const auto resp = ChipEnergyResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad energy response: %s",
             resp.error().describe().c_str());
    const ChipEnergyResponse &r = resp.value();
    std::printf("%s: %llu cycles, %llu instructions\n",
                req.query.abbr.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    const auto base = static_cast<std::size_t>(
        coder::scenarioIndex(coder::Scenario::Baseline));
    for (const auto s : coder::allScenarios) {
        const auto idx =
            static_cast<std::size_t>(coder::scenarioIndex(s));
        std::printf("  %-10s chip %10.3f uJ (%+6.2f%%)  bvf-units "
                    "%10.3f uJ\n",
                    coder::scenarioName(s).c_str(),
                    r.chipEnergy[idx] * 1e6,
                    100.0 * (r.chipEnergy[idx] / r.chipEnergy[base] - 1.0),
                    r.bvfUnitsEnergy[idx] * 1e6);
    }
    return 0;
}

int
cmdStatic(const Options &o, Transport &t)
{
    StaticQueryRequest req;
    req.query = queryFor(o);
    const Frame frame =
        roundTrip(o, t, MsgType::StaticQueryRequest, req.encode());
    const auto resp = StaticQueryResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad static response: %s",
             resp.error().describe().c_str());
    const StaticQueryResponse &r = resp.value();
    auto printBounds = [](const std::string &name, const auto &bounds) {
        std::printf("%-10s", name.c_str());
        for (const auto &b : bounds) {
            if (b.any)
                std::printf(" [%5.3f,%5.3f]", b.lo, b.hi);
            else
                std::printf(" %13s", "idle");
        }
        std::printf("\n");
    };
    std::printf("%-10s", "unit");
    for (const auto s : coder::allScenarios)
        std::printf(" %13s", coder::scenarioName(s).c_str());
    std::printf("\n");
    for (const auto &u : r.units) {
        printBounds(
            coder::unitName(static_cast<coder::UnitId>(u.unit)),
            u.bounds);
    }
    printBounds("NoC", r.noc);
    std::printf("best static scenario: %s\n",
                coder::scenarioName(coder::allScenarios[r.bestStatic])
                    .c_str());
    return 0;
}

int
cmdAdvise(const Options &o, Transport &t)
{
    StaticAdviceRequest req;
    req.query = queryFor(o);
    const Frame frame =
        roundTrip(o, t, MsgType::StaticAdviceRequest, req.encode());
    const auto resp = StaticAdviceResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad advice response: %s",
             resp.error().describe().c_str());
    const StaticAdviceResponse &r = resp.value();
    std::printf("%s: VS register pivot %u (proven slack %.4f, %u/%u "
                "lane-affine sources)\n",
                req.query.abbr.c_str(),
                static_cast<unsigned>(r.bestPivot), r.provenSlack,
                r.affineSources, r.totalSources);
    const auto &best = r.pivotBounds[r.bestPivot];
    if (best.any) {
        std::printf("  advised-pivot density [%.4f, %.4f], score %.4f\n",
                    best.lo, best.hi, r.pivotScores[r.bestPivot]);
    }
    std::printf("ISA mask: 0x%016llx%s\n",
                static_cast<unsigned long long>(r.specializedMask),
                r.specializedMask == r.defaultMask ? " (= Table 2)" : "");
    if (r.defaultDensity.any) {
        std::printf("  coded density [%.4f, %.4f] vs Table 2 "
                    "[%.4f, %.4f]\n",
                    r.specializedDensity.lo, r.specializedDensity.hi,
                    r.defaultDensity.lo, r.defaultDensity.hi);
    }
    for (const auto &u : r.unitPicks) {
        std::printf("  %-4s %s (%s)  NV [%.4f, %.4f]  VS [%.4f, %.4f]\n",
                    coder::unitName(static_cast<coder::UnitId>(u.unit))
                        .c_str(),
                    coder::scenarioName(coder::allScenarios[u.pick])
                        .c_str(),
                    u.proven ? "proven" : "heuristic", u.nv.lo, u.nv.hi,
                    u.vs.lo, u.vs.hi);
    }
    std::printf("best scenario under advised wiring: %s\n",
                coder::scenarioName(coder::allScenarios[r.bestScenario])
                    .c_str());
    return 0;
}

/**
 * Load the kernel to submit: a BVFK bytecode file is sent verbatim;
 * anything else is treated as assembly text and assembled client-side.
 */
std::string
loadKernelBytecode(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open kernel file '%s'", path.c_str());
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string bytes = raw.str();
    fatal_if(bytes.empty(), "kernel file '%s' is empty", path.c_str());
    if (bytes.size() >= 4 && bytes.compare(0, 4, "BVFK") == 0)
        return bytes;
    const auto parsed = isa::parseAsm(bytes);
    fatal_if(!parsed.ok(), "%s: %s", path.c_str(),
             parsed.error().describe().c_str());
    return isa::encodeProgram(parsed.value());
}

void
printEnergyTable(const std::array<double, kScenarioSlots> &chip,
                 const std::array<double, kScenarioSlots> &bvfUnits)
{
    const auto base = static_cast<std::size_t>(
        coder::scenarioIndex(coder::Scenario::Baseline));
    for (const auto s : coder::allScenarios) {
        const auto idx =
            static_cast<std::size_t>(coder::scenarioIndex(s));
        std::printf("  %-10s chip %10.3f uJ (%+6.2f%%)  bvf-units "
                    "%10.3f uJ\n",
                    coder::scenarioName(s).c_str(), chip[idx] * 1e6,
                    100.0 * (chip[idx] / chip[base] - 1.0),
                    bvfUnits[idx] * 1e6);
    }
}

/** Send one EvalSubmitted request and print the result. */
int
evalByDigest(const Options &o, Transport &t, const std::string &digest)
{
    EvalSubmittedRequest req;
    req.digest = digest;
    req.arch = o.query.arch;
    req.sched = o.query.sched;
    req.vsPivot = o.query.vsPivot;
    req.dynamicIsa = o.query.dynamicIsa;
    req.node = o.node;
    req.pstate = o.pstate;
    req.cell = o.cell;
    req.ecc = o.ecc;
    req.cellsBitline = o.cellsBitline;
    const Frame frame =
        roundTrip(o, t, MsgType::EvalSubmittedRequest, req.encode());
    const auto resp = EvalSubmittedResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad eval-submitted response: %s",
             resp.error().describe().c_str());
    const EvalSubmittedResponse &r = resp.value();
    std::printf("%s: %llu cycles, %llu instructions\n", digest.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    std::printf("  contract: max warp issue %llu, %llu accesses "
                "checked\n",
                static_cast<unsigned long long>(r.maxWarpIssue),
                static_cast<unsigned long long>(r.checkedAccesses));
    printEnergyTable(r.chipEnergy, r.bvfUnitsEnergy);
    return 0;
}

int
cmdSubmit(const Options &o, Transport &t)
{
    SubmitKernelRequest req;
    req.bytecode = loadKernelBytecode(o.args[0]);
    const Frame frame =
        roundTrip(o, t, MsgType::SubmitKernelRequest, req.encode());
    const auto resp = SubmitKernelResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad submit response: %s",
             resp.error().describe().c_str());
    const SubmitKernelResponse &r = resp.value();
    if (!r.admitted) {
        std::printf("rejected: %zu finding(s)\n", r.rejections.size());
        for (const auto &rej : r.rejections) {
            std::printf("  pc %u [%s] %s\n", rej.pc,
                        analysis::rejectReasonName(
                            static_cast<analysis::RejectReason>(
                                rej.reason))
                            .c_str(),
                        rej.message.c_str());
        }
        return 1;
    }
    std::printf("admitted %s\n", r.digest.c_str());
    std::printf("  certificate: warp trip bound %llu, global footprint "
                "[0x%08x, 0x%08x]\n",
                static_cast<unsigned long long>(r.tripBound), r.globalLo,
                r.globalHi);
    if (o.evalAfterSubmit)
        return evalByDigest(o, t, r.digest);
    return 0;
}

int
cmdEval(const Options &o, Transport &t)
{
    return evalByDigest(o, t, o.args[0]);
}

int
cmdMetrics(const Options &o, Transport &t)
{
    sendBytes(t, "GET /metrics HTTP/1.0\r\n\r\n");
    std::string reply;
    for (;;) {
        auto got = t.recv(std::chrono::milliseconds{o.deadlineMs});
        if (!got.ok() && got.error().code == ErrorCode::Timeout) {
            throw TransportError{strFormat(
                "no /metrics reply within %d ms", o.deadlineMs)};
        }
        if (!got.ok() || got.value().empty())
            break;
        reply += got.value();
    }
    if (reply.empty()) {
        throw TransportError{strFormat("no /metrics reply from %s:%d",
                                       o.host.c_str(), o.port)};
    }
    const auto bodyAt = reply.find("\r\n\r\n");
    std::fputs(bodyAt == std::string::npos
                   ? reply.c_str()
                   : reply.c_str() + bodyAt + 4,
               stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("bvf_client", e);
    }

    auto dispatch = [&](Transport &t) -> int {
        if (o.command == "ping")
            return cmdPing(o, t);
        if (o.command == "eval-coder")
            return cmdEvalCoder(o, t);
        if (o.command == "density")
            return cmdDensity(o, t);
        if (o.command == "energy")
            return cmdEnergy(o, t);
        if (o.command == "static")
            return cmdStatic(o, t);
        if (o.command == "advise")
            return cmdAdvise(o, t);
        if (o.command == "submit")
            return cmdSubmit(o, t);
        if (o.command == "eval")
            return cmdEval(o, t);
        return cmdMetrics(o, t);
    };
    const bool known =
        o.command == "ping" || o.command == "eval-coder"
        || o.command == "density" || o.command == "energy"
        || o.command == "static" || o.command == "advise"
        || o.command == "submit" || o.command == "eval"
        || o.command == "metrics";
    if (!known) {
        std::fprintf(stderr,
                     "bvf_client: unknown command '%s' (ping, "
                     "eval-coder, density, energy, static, advise, "
                     "submit, eval, metrics)\n",
                     o.command.c_str());
        return cli::kExitUsage;
    }

    // Each attempt reconnects from scratch: a failed attempt's stream
    // position is unknowable, so resuming it could pair a stale
    // response with a fresh request.
    for (int attempt = 0;; ++attempt) {
        try {
            const auto forever = std::chrono::milliseconds{0};
            auto dialed =
                o.unixPath.empty()
                    ? SocketTransport::dialTcp(o.host, o.port, forever)
                    : SocketTransport::dialUnix(o.unixPath, forever);
            if (!dialed.ok())
                throw TransportError{dialed.error().describe()};
            return dispatch(*dialed.value());
        } catch (const TransportError &e) {
            if (attempt >= o.retries) {
                std::fprintf(
                    stderr, "bvf_client: %s (gave up after %d "
                            "attempt(s))\n",
                    e.what.c_str(), attempt + 1);
                return 1;
            }
            const long long delay =
                static_cast<long long>(o.backoffMs)
                << (attempt > 16 ? 16 : attempt);
            std::fprintf(stderr,
                         "bvf_client: %s; retrying in %lld ms "
                         "(attempt %d/%d)\n",
                         e.what.c_str(), delay, attempt + 2,
                         o.retries + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
    }
}
