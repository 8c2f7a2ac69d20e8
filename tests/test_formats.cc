/**
 * @file
 * Format pins: the (length, CRC-32) of every persisted and wire
 * encoding for fixed inputs, and the verdict each checked-in corpus
 * file decodes to. A change to any byte codec that moves a single
 * byte of a journal, trace, bytecode frame or wire message, or that
 * changes how a known-bad input is refused, fails here.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.hh"
#include "common/atomic_file.hh"
#include "common/crc32.hh"
#include "core/trace.hh"
#include "isa/bytecode.hh"
#include "server/protocol.hh"
#include "workload/kernel_builder.hh"

namespace bvf
{
namespace
{

using server::MsgType;

/** "length/crc32" of a byte string. */
std::string
pin(const std::string &bytes)
{
    return strFormat("%zu/%08x", bytes.size(),
                     crc32(bytes.data(), bytes.size()));
}

/** Compare a table of pins, printing every actual value on mismatch. */
void
expectPins(const std::map<std::string, std::string> &actual,
           const std::map<std::string, std::string> &expected)
{
    std::string dump;
    for (const auto &[name, value] : actual)
        dump += strFormat("        {\"%s\", \"%s\"},\n", name.c_str(),
                          value.c_str());
    EXPECT_EQ(actual, expected) << "actual pins:\n" << dump;
}

std::string
describe(const Error &e)
{
    return errorCodeName(e.code) + ":" + e.message;
}

/**
 * The verdict of every proper prefix of @p bytes and (with @p flips)
 * of a low- and a high-bit flip at every offset, folded into one pin:
 * this pins the error code and message of each refusal path a damaged
 * input takes.
 */
template <typename Verdict>
std::string
damagePin(const std::string &bytes, Verdict verdict, bool flips = true)
{
    std::string all;
    for (std::size_t len = 0; len < bytes.size(); ++len)
        all += verdict(bytes.substr(0, len)) + "\n";
    for (std::size_t at = 0; flips && at < bytes.size(); ++at) {
        for (const unsigned bit : {0u, 7u}) {
            std::string flipped = bytes;
            flipped[at] = static_cast<char>(flipped[at] ^ (1u << bit));
            all += verdict(flipped) + "\n";
        }
    }
    return pin(all);
}

/** Decode a payload as @p Msg: "ok" plus the re-encoding's pin, or why not. */
template <typename Msg>
std::string
decodeVerdict(const std::string &payload)
{
    auto decoded = Msg::decode(payload);
    return decoded.ok() ? "ok:" + pin(decoded.value().encode())
                        : describe(decoded.error());
}

TEST(FormatPins, CampaignJournal)
{
    std::vector<campaign::AppResult> results(2);
    results[0].name = "alpha";
    results[0].abbr = "AAA";
    results[0].cycles = 12345;
    results[0].instructions = 67890;
    for (std::size_t i = 0; i < results[0].chipEnergy.size(); ++i) {
        results[0].chipEnergy[i] = 1e-3 / static_cast<double>(i + 1);
        results[0].bvfUnitsEnergy[i] = 1e-4 / static_cast<double>(i + 1);
    }
    results[1].name = "beta";
    results[1].abbr = "BBB";
    results[1].status = campaign::AppStatus::Quarantined;
    results[1].attempts = 2;
    results[1].error = Error{ErrorCode::Timeout, "watchdog fired"};
    EXPECT_EQ(pin(campaign::serializeJournal(0x42f0f0f0u, results)),
              "293/b44129e9");
}

TEST(FormatPins, AccessTrace)
{
    std::ostringstream out;
    {
        core::TraceWriter writer(out);
        const std::array<Word, 4> block = {0x1u, 0xffffffffu, 0x0u,
                                           0xdeadbeefu};
        const std::array<Word64, 2> instrs = {0x123456789abcdef0ull,
                                              0x0fedcba987654321ull};
        writer.onAccess(coder::UnitId::Reg, sram::AccessType::Write,
                        block, 0xfu, 10);
        writer.onAccess(coder::UnitId::Sme, sram::AccessType::Read, block,
                        0x3u, 11);
        writer.onFetch(coder::UnitId::Reg, sram::AccessType::Read, instrs,
                       12);
        writer.onNocPacket(0x1234, block, true, 1ull << 40);
        ASSERT_TRUE(writer.finish().ok());
    }
    EXPECT_EQ(pin(out.str()), "200/629b0aac");
}

TEST(FormatPins, SuiteKernelBytecode)
{
    std::map<std::string, std::string> actual;
    for (const char *abbr : {"BFS", "KMN", "ATA"}) {
        actual[abbr] = pin(isa::encodeProgram(
            workload::buildProgram(workload::findApp(abbr))));
    }
    expectPins(actual, {
        {"ATA", "940288/eb0f80d0"},
        {"BFS", "467391/c6ed726f"},
        {"KMN", "503078/ca75e8c9"},
    });
}

TEST(FormatPins, EveryWireMessage)
{
    std::map<std::string, std::string> actual;
    const auto add = [&]<typename Msg>(const std::string &name,
                                       MsgType type, const Msg &msg) {
        const std::string payload = msg.encode();
        actual[name] = pin(server::encodeFrame(type, payload));
        actual[name + " damaged"] =
            damagePin(payload, decodeVerdict<Msg>);
    };

    server::Ping ping;
    ping.nonce = 0x0123456789abcdefull;
    add("ping-request", MsgType::PingRequest, ping);
    add("ping-response", MsgType::PingResponse, ping);

    server::EvalCoderRequest coderReq;
    coderReq.coder = server::CoderKind::Vs;
    coderReq.arch = 2;
    coderReq.vsPivot = 17;
    coderReq.isaMask = 0xf0f0f0f0f0f0f0f0ull;
    coderReq.words = {1, 0xffffffffffffffffull, 0x8000000000000001ull};
    add("eval-coder-request", MsgType::EvalCoderRequest, coderReq);

    server::EvalCoderResponse coderResp;
    coderResp.totalBits = 192;
    coderResp.onesBefore = 66;
    coderResp.onesAfter = 40;
    coderResp.encoded = {3, 5, 7};
    add("eval-coder-response", MsgType::EvalCoderResponse, coderResp);

    server::AppQuery query;
    query.abbr = "KMN";
    query.arch = 1;
    query.sched = 2;
    query.vsPivot = 9;
    query.dynamicIsa = 1;

    server::BitDensityRequest densityReq;
    densityReq.query = query;
    add("bit-density-request", MsgType::BitDensityRequest, densityReq);

    server::BitDensityResponse densityResp;
    densityResp.cycles = 1000;
    densityResp.instructions = 2000;
    densityResp.units.resize(2);
    for (std::size_t i = 0; i < server::kScenarioSlots; ++i) {
        densityResp.units[0].density[i] = 0.25 + 0.01 * double(i);
        densityResp.units[1].density[i] = 0.5 - 0.02 * double(i);
        densityResp.nocDensity[i] = 1.0 / double(i + 3);
    }
    densityResp.units[1].unit = 4;
    add("bit-density-response", MsgType::BitDensityResponse, densityResp);

    server::ChipEnergyRequest energyReq;
    energyReq.query = query;
    energyReq.node = 1;
    energyReq.pstate = 2;
    energyReq.cell = 3;
    energyReq.ecc = 1;
    energyReq.cellsBitline = 64;
    add("chip-energy-request", MsgType::ChipEnergyRequest, energyReq);

    server::ChipEnergyResponse energyResp;
    energyResp.cycles = 77;
    energyResp.instructions = 88;
    for (std::size_t i = 0; i < server::kScenarioSlots; ++i) {
        energyResp.chipEnergy[i] = 1e-3 * double(i + 1);
        energyResp.bvfUnitsEnergy[i] = -1e-5 * double(i + 1);
    }
    add("chip-energy-response", MsgType::ChipEnergyResponse, energyResp);

    server::StaticQueryRequest staticReq;
    staticReq.query = query;
    add("static-query-request", MsgType::StaticQueryRequest, staticReq);

    server::StaticQueryResponse staticResp;
    staticResp.bestStatic = 3;
    staticResp.units.resize(1);
    staticResp.units[0].unit = 2;
    for (std::size_t i = 0; i < server::kScenarioSlots; ++i) {
        staticResp.units[0].bounds[i] = {0.1 * double(i), 0.9, 1};
        staticResp.noc[i] = {0.0, 0.5 + 0.01 * double(i), 0};
    }
    add("static-query-response", MsgType::StaticQueryResponse, staticResp);

    server::StaticAdviceRequest adviceReq;
    adviceReq.query = query;
    add("static-advice-request", MsgType::StaticAdviceRequest, adviceReq);

    server::StaticAdviceResponse adviceResp;
    adviceResp.bestPivot = 7;
    adviceResp.provenSlack = 0.125;
    adviceResp.affineSources = 12;
    adviceResp.totalSources = 30;
    for (std::size_t i = 0; i < 32; ++i) {
        adviceResp.pivotBounds[i] = {0.01 * double(i), 0.5, 1};
        adviceResp.pivotScores[i] = 1.0 / double(i + 1);
    }
    adviceResp.defaultMask = 0x1111222233334444ull;
    adviceResp.specializedMask = 0x5555666677778888ull;
    adviceResp.defaultDensity = {0.2, 0.3, 1};
    adviceResp.specializedDensity = {0.1, 0.2, 0};
    adviceResp.bestScenario = 5;
    adviceResp.unitPicks.resize(2);
    adviceResp.unitPicks[0] = {1, 2, 1, {0.1, 0.2, 1}, {0.3, 0.4, 0}};
    adviceResp.unitPicks[1] = {3, 3, 0, {0.5, 0.6, 0}, {0.7, 0.8, 1}};
    add("static-advice-response", MsgType::StaticAdviceResponse, adviceResp);

    server::SubmitKernelRequest submitReq;
    submitReq.bytecode = std::string(300, '\x5a');
    add("submit-kernel-request", MsgType::SubmitKernelRequest, submitReq);
    submitReq.optimize = 1;
    add("submit-kernel-request-optimize", MsgType::SubmitKernelRequest,
        submitReq);

    server::SubmitKernelResponse rejected;
    rejected.tripBound = 99;
    rejected.globalLo = 16;
    rejected.globalHi = 4096;
    rejected.rejections = {{1, 4, "unbounded loop"},
                           {2, 9, "store escapes the footprint"}};
    add("submit-kernel-response-rejected", MsgType::SubmitKernelResponse,
        rejected);

    server::SubmitKernelResponse optimized;
    optimized.admitted = 1;
    optimized.digest = "k-0123456789abcdef";
    optimized.tripBound = 1u << 20;
    optimized.globalHi = 65536;
    optimized.optimizeRequested = 1;
    optimized.optimized = 1;
    optimized.optimizedDigest = "k-fedcba9876543210";
    add("submit-kernel-response-optimized", MsgType::SubmitKernelResponse,
        optimized);

    server::EvalSubmittedRequest evalReq;
    evalReq.digest = "k-0123456789abcdef";
    evalReq.arch = 2;
    evalReq.sched = 1;
    evalReq.vsPivot = 5;
    evalReq.dynamicIsa = 1;
    evalReq.node = 1;
    evalReq.pstate = 1;
    evalReq.cell = 2;
    evalReq.ecc = 1;
    evalReq.cellsBitline = 256;
    add("eval-submitted-request", MsgType::EvalSubmittedRequest, evalReq);

    server::EvalSubmittedResponse evalResp;
    evalResp.cycles = 123;
    evalResp.instructions = 456;
    evalResp.maxWarpIssue = 789;
    evalResp.checkedAccesses = 1011;
    for (std::size_t i = 0; i < server::kScenarioSlots; ++i) {
        evalResp.chipEnergy[i] = 3.5e-4 * double(i + 1);
        evalResp.bvfUnitsEnergy[i] = 1.25e-6 * double(i + 1);
    }
    add("eval-submitted-response", MsgType::EvalSubmittedResponse, evalResp);

    server::WireError error;
    error.code = static_cast<std::uint8_t>(ErrorCode::Overloaded);
    error.message = "kernel store is full";
    add("error-response", MsgType::ErrorResponse, error);

    expectPins(actual, {
        {"bit-density-request", "30/4137f93c"},
        {"bit-density-request damaged", "1443/ca70af29"},
        {"bit-density-response", "158/17f729bf"},
        {"bit-density-response damaged", "9352/3b348afa"},
        {"chip-energy-request", "38/f3c12ecf"},
        {"chip-energy-request damaged", "2371/b5ab1e09"},
        {"chip-energy-response", "112/e4fa513d"},
        {"chip-energy-response damaged", "6048/30ad66b7"},
        {"error-response", "41/e6a30efb"},
        {"error-response damaged", "1719/f49e4375"},
        {"eval-coder-request", "58/52390f18"},
        {"eval-coder-request damaged", "3236/9ad0feac"},
        {"eval-coder-response", "68/0d590007"},
        {"eval-coder-response damaged", "3440/96b9371b"},
        {"eval-submitted-request", "53/c7dfe5dc"},
        {"eval-submitted-request damaged", "3295/c6ae1a4e"},
        {"eval-submitted-response", "128/a728d703"},
        {"eval-submitted-response damaged", "7280/4f0e844b"},
        {"ping-request", "24/3a292b88"},
        {"ping-request damaged", "488/e535db94"},
        {"ping-response", "24/3e0ea3b3"},
        {"ping-response damaged", "488/e535db94"},
        {"static-advice-request", "30/b0dd0085"},
        {"static-advice-request damaged", "1443/ca70af29"},
        {"static-advice-response", "962/4c2e3e6d"},
        {"static-advice-response damaged", "61663/2a4e83ab"},
        {"static-query-request", "30/56abaa2d"},
        {"static-query-request damaged", "1443/ca70af29"},
        {"static-query-response", "192/8187c87a"},
        {"static-query-response damaged", "11564/dfc66a3b"},
        {"submit-kernel-request", "320/b63560d8"},
        {"submit-kernel-request damaged", "19900/9cc26896"},
        {"submit-kernel-request-optimize", "321/50032df0"},
        {"submit-kernel-request-optimize damaged", "19952/766d04fd"},
        {"submit-kernel-response-optimized", "82/a230be2a"},
        {"submit-kernel-response-optimized damaged", "4693/e2d4968b"},
        {"submit-kernel-response-rejected", "100/ad878ca4"},
        {"submit-kernel-response-rejected damaged", "6003/3b3b5b51"},
    });
}

// --- corpus verdicts --------------------------------------------------

std::string
corpusBytes(const std::string &relPath)
{
    auto bytes =
        readFileBytes(std::string(BVF_CORPUS_DIR) + "/" + relPath);
    EXPECT_TRUE(bytes.ok()) << relPath;
    return bytes.ok() ? bytes.value() : std::string();
}

/** Every frame in the stream, in order, until the first failure. */
std::string
frameVerdict(const std::string &bytes)
{
    std::string verdict;
    std::string_view rest = bytes;
    while (!rest.empty()) {
        std::size_t consumed = 0;
        auto parsed = server::parseFrame(rest, consumed);
        if (!verdict.empty())
            verdict += ",";
        if (!parsed.ok())
            return verdict + describe(parsed.error());
        verdict += server::msgTypeName(parsed.value().type);
        rest.remove_prefix(consumed);
    }
    return verdict;
}

std::string
bytecodeVerdict(const std::string &bytes)
{
    auto decoded = isa::decodeProgram(bytes);
    return decoded.ok() ? "ok" : describe(decoded.error());
}

std::string
traceVerdict(const std::string &bytes)
{
    sram::NullSink sink;
    std::istringstream in(bytes);
    auto replayed = core::replayTrace(in, sink);
    if (!replayed.ok())
        return describe(replayed.error());
    return strFormat("ok:%llu",
                     static_cast<unsigned long long>(
                         replayed.value().records));
}

std::string
journalVerdict(const std::string &bytes)
{
    auto parsed = campaign::parseJournal(bytes, 0x42f0f0f0u);
    if (!parsed.ok())
        return describe(parsed.error());
    return strFormat("ok:%zu:", parsed.value().results.size())
           + parsed.value().warning;
}

TEST(FormatPins, CorpusVerdicts)
{
    struct Target
    {
        const char *dir;
        int seeds;
        std::string (*verdict)(const std::string &);
    };
    const Target targets[] = {
        {"frame", 6, frameVerdict},     {"bytecode", 2, bytecodeVerdict},
        {"journal", 1, journalVerdict}, {"merge", 1, journalVerdict},
        {"trace", 1, traceVerdict},
    };
    std::map<std::string, std::string> actual;
    for (const Target &t : targets) {
        for (int i = 0; i < t.seeds; ++i) {
            const std::string name = strFormat("%s/seed-%02d.bin", t.dir, i);
            const std::string bytes = corpusBytes(name);
            actual[name] = t.verdict(bytes);
            actual[name + " damaged"] = damagePin(bytes, t.verdict);
        }
    }
    expectPins(actual, {
        {"bytecode/seed-00.bin", "ok"},
        {"bytecode/seed-00.bin damaged", "25869/df3e1461"},
        {"bytecode/seed-01.bin", "ok"},
        {"bytecode/seed-01.bin damaged", "8301/5cd8d318"},
        {"frame/seed-00.bin", "ping-request"},
        {"frame/seed-00.bin damaged", "2313/0030d012"},
        {"frame/seed-01.bin", "chip-energy-request"},
        {"frame/seed-01.bin damaged", "3552/666ce7cf"},
        {"frame/seed-02.bin", "eval-coder-request"},
        {"frame/seed-02.bin damaged", "4620/50d6d0a7"},
        {"frame/seed-03.bin", "error-response"},
        {"frame/seed-03.bin damaged", "2401/19adba7f"},
        {"frame/seed-04.bin", "ping-request,chip-energy-request"},
        {"frame/seed-04.bin damaged", "7338/662d5e4a"},
        {"frame/seed-05.bin", "corrupt:frame payload of 16777225 bytes "
                              "exceeds the 1048576-byte cap"},
        {"frame/seed-05.bin damaged", "3772/efde5feb"},
        {"journal/seed-00.bin", "ok:2:"},
        {"journal/seed-00.bin damaged", "29345/7d1b1006"},
        {"merge/seed-00.bin", "ok:2:"},
        {"merge/seed-00.bin damaged", "29345/7d1b1006"},
        {"trace/seed-00.bin", "ok:4"},
        {"trace/seed-00.bin damaged", "19964/38e15996"},
    });
}

/**
 * Rebuild a BVFK frame around a damaged payload with a valid length
 * and CRC, so the damage reaches the payload decoder.
 */
std::string
reframeBytecode(const std::string &frame, const std::string &payload)
{
    std::string out = frame.substr(0, 16) + payload;
    const auto storeLe32 = [&](std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out[at + i] = static_cast<char>(v >> (8 * i));
    };
    storeLe32(8, static_cast<std::uint32_t>(payload.size()));
    Crc32 crc;
    crc.update(out.data(), 12);
    crc.update(payload.data(), payload.size());
    storeLe32(12, crc.value());
    return out;
}

TEST(FormatPins, DamagedPayloadsBehindValidFrames)
{
    std::map<std::string, std::string> actual;
    for (int i = 0; i <= 1; ++i) {
        const std::string name = strFormat("bytecode/seed-%02d.bin", i);
        const std::string frame = corpusBytes(name);
        actual[name + " payload damaged"] =
            damagePin(frame.substr(16), [&](const std::string &payload) {
                return bytecodeVerdict(reframeBytecode(frame, payload));
            });
    }
    // A version-1 trace: bare 24-byte records, no batches or CRCs.
    // Only truncations: a flipped count bit is the hostile-count case
    // test_trace.cc covers under an address-space cap.
    const std::string v1("BVFT\x01\0\0\0"
                         "\x01\x05\0\0\x03\0\0\0"
                         "\x07\0\0\0\0\0\0\0"
                         "\x02\0\0\0\0\0\0\0"
                         "\xf0\xf0\xf0\xf0\x0f\x0f\x0f\x0f"
                         "\x02\x01\x00\0\0\0\0\0"
                         "\x08\0\0\0\0\0\0\0"
                         "\x01\0\0\0\0\0\0\0"
                         "\x21\x43\x65\x87\xa9\xcb\xed\x0f",
                         72);
    actual["trace v1"] = traceVerdict(v1);
    actual["trace v1 truncated"] = damagePin(v1, traceVerdict, false);
    expectPins(actual, {
        {"bytecode/seed-00.bin payload damaged", "15754/f72d8c50"},
        {"bytecode/seed-01.bin payload damaged", "4962/c7b1fb61"},
        {"trace v1", "ok:2"},
        {"trace v1 truncated", "968/ed1eb924"},
    });
}

} // namespace
} // namespace bvf
