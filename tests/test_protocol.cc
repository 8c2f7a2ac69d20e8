/**
 * @file
 * Wire-protocol tests: frame round-trips, the framing error taxonomy
 * (truncation at every prefix, corrupted magic/CRC/flags, oversized
 * length, version mismatch), message encode/decode round-trips with
 * strict trailing-byte rejection, and a randomized fuzz round-trip.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "server/protocol.hh"

namespace bvf::server
{
namespace
{

Frame
mustParse(const std::string &bytes)
{
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    EXPECT_TRUE(parsed.ok())
        << (parsed.ok() ? std::string() : parsed.error().describe());
    EXPECT_EQ(consumed, bytes.size());
    return parsed.ok() ? parsed.value() : Frame{};
}

TEST(Framing, RoundTripsAnEmptyAndANonEmptyPayload)
{
    for (const std::string payload : {std::string(), std::string("hello")}) {
        const std::string bytes =
            encodeFrame(MsgType::PingRequest, payload);
        EXPECT_EQ(bytes.size(), kHeaderBytes + payload.size());
        const Frame frame = mustParse(bytes);
        EXPECT_EQ(frame.type, MsgType::PingRequest);
        EXPECT_EQ(frame.payload, payload);
    }
}

TEST(Framing, TruncationAtEveryPrefixAsksForMoreBytes)
{
    const std::string bytes =
        encodeFrame(MsgType::EvalCoderRequest, "some payload bytes");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::size_t consumed = 0;
        auto parsed = parseFrame(bytes.substr(0, len), consumed);
        ASSERT_FALSE(parsed.ok()) << len;
        EXPECT_EQ(parsed.error().code, ErrorCode::Truncated) << len;
    }
    mustParse(bytes);
}

TEST(Framing, BadMagicIsCorrupt)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[0] = 'X';
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, WrongVersionIsUnsupported)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[4] = static_cast<char>(kProtocolVersion + 1);
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Unsupported);
}

TEST(Framing, NonZeroFlagsAreCorrupt)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[6] = 1;
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, UnknownTypeIsCorrupt)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[5] = 0x42; // not a MsgType
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, OversizedLengthIsRejectedWithoutBuffering)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    const std::uint32_t huge = kMaxPayload + 1;
    std::memcpy(&bytes[8], &huge, sizeof(huge));
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    // Not Truncated: a 4 GB length field must fail fast, not make the
    // reader wait for 4 GB that will never come.  Corrupt rather than
    // InvalidArgument so the fleet coordinator treats it as transport
    // damage instead of an application verdict.
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, CorruptedPayloadFailsTheCrc)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "payload!");
    bytes[kHeaderBytes] ^= 0x01;
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, ParsesTheFirstOfTwoConcatenatedFrames)
{
    const std::string first = encodeFrame(MsgType::PingRequest, "one");
    const std::string second =
        encodeFrame(MsgType::EvalCoderRequest, "two");
    std::size_t consumed = 0;
    auto parsed = parseFrame(first + second, consumed);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(consumed, first.size());
    EXPECT_EQ(parsed.value().payload, "one");
}

TEST(Messages, PingRoundTrip)
{
    Ping ping;
    ping.nonce = 0x0123456789abcdefull;
    const auto decoded = Ping::decode(ping.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().nonce, ping.nonce);
}

TEST(Messages, EvalCoderRoundTrip)
{
    EvalCoderRequest req;
    req.coder = CoderKind::Vs;
    req.arch = 2;
    req.vsPivot = 17;
    req.isaMask = 0xdeadbeefcafef00dull;
    req.words = {0ull, ~0ull, 0x0123456789abcdefull};
    const auto decoded = EvalCoderRequest::decode(req.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().coder, req.coder);
    EXPECT_EQ(decoded.value().vsPivot, req.vsPivot);
    EXPECT_EQ(decoded.value().isaMask, req.isaMask);
    EXPECT_EQ(decoded.value().words, req.words);
}

TEST(Messages, WordCountOutrunningThePayloadIsTruncatedNotAllocated)
{
    // A hostile payload claims ~131k words but carries none. The
    // decoder must check the claim against the bytes actually present
    // *before* sizing its vector -- a megabyte allocation driven by a
    // 4-byte lie is an amplification primitive.
    EvalCoderRequest req;
    req.coder = CoderKind::Nv;
    std::string bytes = req.encode(); // zero words: count is the tail
    const std::uint32_t lie = 131000;
    std::memcpy(&bytes[bytes.size() - sizeof(lie)], &lie, sizeof(lie));
    const auto decoded = EvalCoderRequest::decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Truncated);
}

TEST(Messages, ResponseWordCountIsCheckedBeforeAllocatingToo)
{
    EvalCoderResponse resp;
    resp.totalBits = 64;
    std::string bytes = resp.encode(); // empty vector: count is the tail
    const std::uint32_t lie = 131000;
    std::memcpy(&bytes[bytes.size() - sizeof(lie)], &lie, sizeof(lie));
    const auto decoded = EvalCoderResponse::decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Truncated);
}

TEST(Messages, DoublesSurviveBitExactly)
{
    ChipEnergyResponse resp;
    resp.cycles = 7;
    resp.instructions = 11;
    resp.chipEnergy = {1.0 / 3.0, 2.625e-6, -0.0, 1e300, 5.5e-324};
    resp.bvfUnitsEnergy = {0.1, 0.2, 0.3, 0.4, 0.5};
    const auto decoded = ChipEnergyResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok());
    for (std::size_t i = 0; i < kScenarioSlots; ++i) {
        EXPECT_EQ(std::memcmp(&decoded.value().chipEnergy[i],
                              &resp.chipEnergy[i], sizeof(double)),
                  0)
            << i;
    }
}

TEST(Messages, TrailingBytesAreRejected)
{
    Ping ping;
    ping.nonce = 5;
    const auto decoded = Ping::decode(ping.encode() + "extra");
    ASSERT_FALSE(decoded.ok());
}

TEST(Messages, DecodeValidatesRanges)
{
    // An out-of-range scheduler index must not decode.
    BitDensityRequest req;
    req.query.abbr = "KMN";
    req.query.sched = 9;
    EXPECT_FALSE(BitDensityRequest::decode(req.encode()).ok());

    ChipEnergyRequest energy;
    energy.query.abbr = "KMN";
    energy.cell = 200;
    EXPECT_FALSE(ChipEnergyRequest::decode(energy.encode()).ok());

    StaticQueryRequest stat;
    stat.query.abbr = ""; // empty abbreviation
    EXPECT_FALSE(StaticQueryRequest::decode(stat.encode()).ok());
}

TEST(Messages, LongAppNameIsInvalidNotTruncated)
{
    // The wire carries strings up to 4096 bytes, so a well-framed
    // request naming a long app must decode far enough to be refused
    // as the request's own fault -- a Truncated verdict would read as
    // wire damage and blame the worker that answered it.
    ChipEnergyRequest req;
    req.query.abbr = std::string(100, 'A');
    const auto decoded = ChipEnergyRequest::decode(req.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);

    req.query.abbr = std::string(kMaxAbbrBytes, 'A');
    EXPECT_TRUE(ChipEnergyRequest::decode(req.encode()).ok());
    req.query.abbr += 'A';
    const auto over = ChipEnergyRequest::decode(req.encode());
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.error().code, ErrorCode::InvalidArgument);
}

TEST(Messages, StaticAdviceRoundTrip)
{
    StaticAdviceRequest req;
    req.query.abbr = "KMN";
    req.query.arch = 2;
    const auto decodedReq = StaticAdviceRequest::decode(req.encode());
    ASSERT_TRUE(decodedReq.ok());
    EXPECT_EQ(decodedReq.value().query.abbr, "KMN");
    EXPECT_EQ(decodedReq.value().query.arch, 2);

    StaticAdviceResponse resp;
    resp.bestPivot = 21;
    resp.provenSlack = 0.125;
    resp.affineSources = 46;
    resp.totalSources = 104;
    for (std::size_t p = 0; p < 32; ++p) {
        resp.pivotBounds[p] = {0.01 * static_cast<double>(p),
                               0.5 + 0.01 * static_cast<double>(p), 1};
        resp.pivotScores[p] = 1.0 / (1.0 + static_cast<double>(p));
    }
    resp.defaultMask = 0x4818000000070201ull;
    resp.specializedMask = 0x4818000000070203ull;
    resp.defaultDensity = {0.70, 0.98, 1};
    resp.specializedDensity = {0.72, 0.99, 1};
    resp.bestScenario = 4;
    resp.unitPicks.push_back({0, 2, 1, {0.1, 0.2, 1}, {0.3, 0.4, 1}});
    resp.unitPicks.push_back({8, 1, 0, {0.5, 0.6, 1}, {0.0, 1.0, 0}});

    const auto decoded = StaticAdviceResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok());
    const StaticAdviceResponse &r = decoded.value();
    EXPECT_EQ(r.bestPivot, resp.bestPivot);
    EXPECT_EQ(r.provenSlack, resp.provenSlack);
    EXPECT_EQ(r.affineSources, resp.affineSources);
    EXPECT_EQ(r.totalSources, resp.totalSources);
    for (std::size_t p = 0; p < 32; ++p) {
        EXPECT_EQ(r.pivotBounds[p].lo, resp.pivotBounds[p].lo);
        EXPECT_EQ(r.pivotBounds[p].hi, resp.pivotBounds[p].hi);
        EXPECT_EQ(r.pivotBounds[p].any, resp.pivotBounds[p].any);
        EXPECT_EQ(r.pivotScores[p], resp.pivotScores[p]);
    }
    EXPECT_EQ(r.defaultMask, resp.defaultMask);
    EXPECT_EQ(r.specializedMask, resp.specializedMask);
    EXPECT_EQ(r.bestScenario, resp.bestScenario);
    ASSERT_EQ(r.unitPicks.size(), 2u);
    EXPECT_EQ(r.unitPicks[1].unit, 8);
    EXPECT_EQ(r.unitPicks[1].pick, 1);
    EXPECT_EQ(r.unitPicks[1].proven, 0);
    EXPECT_EQ(r.unitPicks[1].vs.any, 0);

    // An out-of-range pivot lane must not decode.
    resp.bestPivot = 32;
    EXPECT_FALSE(StaticAdviceResponse::decode(resp.encode()).ok());
    // Neither must an invalid query.
    req.query.abbr = "";
    EXPECT_FALSE(StaticAdviceRequest::decode(req.encode()).ok());
}

TEST(Messages, WireErrorRoundTrip)
{
    WireError err;
    err.code = static_cast<std::uint8_t>(ErrorCode::Timeout);
    err.message = "watchdog fired";
    const auto decoded = WireError::decode(err.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().code, err.code);
    EXPECT_EQ(decoded.value().message, err.message);
}

TEST(Fuzz, RandomFramesRoundTripAndRandomBytesNeverCrash)
{
    Rng rng(0xb5f00d);
    constexpr MsgType types[] = {
        MsgType::PingRequest,      MsgType::EvalCoderRequest,
        MsgType::BitDensityRequest, MsgType::ChipEnergyRequest,
        MsgType::StaticQueryRequest, MsgType::PingResponse,
        MsgType::ErrorResponse,
    };
    for (int round = 0; round < 500; ++round) {
        // Round-trip a random payload under a random type.
        std::string payload;
        const auto len =
            static_cast<std::size_t>(rng.nextRange(0, 300));
        for (std::size_t i = 0; i < len; ++i)
            payload += static_cast<char>(rng.nextRange(0, 255));
        const MsgType type = types[rng.nextBounded(std::size(types))];
        const std::string bytes = encodeFrame(type, payload);
        std::size_t consumed = 0;
        auto parsed = parseFrame(bytes, consumed);
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value().type, type);
        EXPECT_EQ(parsed.value().payload, payload);

        // Corrupt one random byte: must fail cleanly, never crash.
        std::string mangled = bytes;
        const auto at =
            static_cast<std::size_t>(rng.nextBounded(mangled.size()));
        mangled[at] = static_cast<char>(
            mangled[at] ^ static_cast<char>(rng.nextRange(1, 255)));
        std::size_t mangledConsumed = 0;
        auto reparsed = parseFrame(mangled, mangledConsumed);
        if (reparsed.ok()) {
            // Only a flip inside the payload that still matches the
            // CRC could pass -- impossible for a single-byte flip --
            // so the only acceptable success is a flip that did not
            // change decoding-relevant bytes... which cannot happen
            // either. Any success here is a real framing hole.
            ADD_FAILURE() << "single-byte corruption at " << at
                          << " went undetected";
        }

        // Pure noise: never crash, never succeed spuriously (the
        // magic makes a random 16-byte prefix astronomically
        // unlikely).
        std::string noise;
        const auto noiseLen =
            static_cast<std::size_t>(rng.nextRange(0, 64));
        for (std::size_t i = 0; i < noiseLen; ++i)
            noise += static_cast<char>(rng.nextRange(0, 255));
        std::size_t noiseConsumed = 0;
        (void)parseFrame(noise, noiseConsumed);
    }
}

TEST(Messages, SubmitKernelRoundTrip)
{
    SubmitKernelRequest req;
    req.bytecode = std::string("BVFK-ish blob \x00\xff\x7f with NULs", 29);
    const auto decoded = SubmitKernelRequest::decode(req.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().bytecode, req.bytecode);
}

TEST(Messages, EmptySubmittedBytecodeIsInvalid)
{
    SubmitKernelRequest req;
    const auto decoded = SubmitKernelRequest::decode(req.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);
}

TEST(Messages, SubmitKernelOptimizeFlagRoundTrips)
{
    // Default requests must stay byte-identical to the pre-flag wire
    // format: the optimize byte is a trailing option, not a new field
    // every old peer would choke on.
    SubmitKernelRequest plain;
    plain.bytecode = "blob";
    SubmitKernelRequest flagged;
    flagged.bytecode = "blob";
    flagged.optimize = 1;
    EXPECT_EQ(plain.encode().size() + 1, flagged.encode().size());

    const auto decodedPlain = SubmitKernelRequest::decode(plain.encode());
    ASSERT_TRUE(decodedPlain.ok());
    EXPECT_EQ(decodedPlain.value().optimize, 0);

    const auto decodedFlag =
        SubmitKernelRequest::decode(flagged.encode());
    ASSERT_TRUE(decodedFlag.ok()) << decodedFlag.error().message;
    EXPECT_EQ(decodedFlag.value().optimize, 1);

    // A non-boolean flag byte is corrupt, not silently truthy.
    std::string bent = flagged.encode();
    bent.back() = 2;
    EXPECT_FALSE(SubmitKernelRequest::decode(bent).ok());
}

TEST(Messages, SubmitKernelResponseOptimizeTailRoundTrips)
{
    SubmitKernelResponse resp;
    resp.admitted = 1;
    resp.digest = "k824ee515-5957c";
    resp.tripBound = 12;
    resp.optimizeRequested = 1;
    resp.optimized = 1;
    resp.optimizedDigest = "k11223344-40";
    auto decoded = SubmitKernelResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().optimizeRequested, 1);
    EXPECT_EQ(decoded.value().optimized, 1);
    EXPECT_EQ(decoded.value().optimizedDigest, resp.optimizedDigest);

    // Fallback: requested but not optimized, digest must stay empty.
    SubmitKernelResponse fallback;
    fallback.admitted = 1;
    fallback.digest = "k824ee515-5957c";
    fallback.tripBound = 12;
    fallback.optimizeRequested = 1;
    auto decodedFb = SubmitKernelResponse::decode(fallback.encode());
    ASSERT_TRUE(decodedFb.ok()) << decodedFb.error().message;
    EXPECT_EQ(decodedFb.value().optimizeRequested, 1);
    EXPECT_EQ(decodedFb.value().optimized, 0);
    EXPECT_TRUE(decodedFb.value().optimizedDigest.empty());

    // Without the request flag the tail is absent from the wire and
    // decodes to all-defaults -- old responses still parse.
    SubmitKernelResponse plain;
    plain.admitted = 1;
    plain.digest = "k824ee515-5957c";
    plain.tripBound = 12;
    auto decodedPlain = SubmitKernelResponse::decode(plain.encode());
    ASSERT_TRUE(decodedPlain.ok());
    EXPECT_EQ(decodedPlain.value().optimizeRequested, 0);
    EXPECT_EQ(decodedPlain.value().optimized, 0);

    // Inconsistent tails are corrupt: an optimized claim without a
    // digest, and a fallback carrying one.
    SubmitKernelResponse noDigest = resp;
    noDigest.optimizedDigest.clear();
    EXPECT_FALSE(SubmitKernelResponse::decode(noDigest.encode()).ok());
    SubmitKernelResponse fbDigest = fallback;
    fbDigest.optimizedDigest = "k11223344-40";
    EXPECT_FALSE(SubmitKernelResponse::decode(fbDigest.encode()).ok());
}

TEST(Messages, SubmitKernelResponseRoundTripsBothOutcomes)
{
    SubmitKernelResponse admitted;
    admitted.admitted = 1;
    admitted.digest = "k824ee515-5957c";
    admitted.tripBound = 233;
    admitted.globalLo = 0x10000;
    admitted.globalHi = 0x74ffc;
    auto decodedA = SubmitKernelResponse::decode(admitted.encode());
    ASSERT_TRUE(decodedA.ok()) << decodedA.error().message;
    EXPECT_EQ(decodedA.value().digest, admitted.digest);
    EXPECT_EQ(decodedA.value().tripBound, admitted.tripBound);
    EXPECT_EQ(decodedA.value().globalLo, admitted.globalLo);
    EXPECT_EQ(decodedA.value().globalHi, admitted.globalHi);

    SubmitKernelResponse rejected;
    rejected.admitted = 0;
    rejected.rejections.push_back({8, 12, "not provably terminating"});
    rejected.rejections.push_back({4, 30, "R7 read before any write"});
    auto decodedR = SubmitKernelResponse::decode(rejected.encode());
    ASSERT_TRUE(decodedR.ok()) << decodedR.error().message;
    ASSERT_EQ(decodedR.value().rejections.size(), 2u);
    EXPECT_EQ(decodedR.value().rejections[0].reason, 8);
    EXPECT_EQ(decodedR.value().rejections[0].pc, 12u);
    EXPECT_EQ(decodedR.value().rejections[1].message,
              "R7 read before any write");
}

TEST(Messages, AdmittedResponseCarryingRejectionsIsCorrupt)
{
    SubmitKernelResponse resp;
    resp.admitted = 1;
    resp.digest = "k0-0";
    resp.rejections.push_back({0, 0, "contradiction"});
    const auto decoded = SubmitKernelResponse::decode(resp.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Corrupt);
}

TEST(Messages, RejectionReasonOutsideTheEnumIsRejected)
{
    SubmitKernelResponse resp;
    resp.rejections.push_back({200, 0, "reason from the future"});
    const auto decoded = SubmitKernelResponse::decode(resp.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);
}

TEST(Messages, RejectionCountOutrunningThePayloadIsNotAllocated)
{
    SubmitKernelResponse resp;
    std::string bytes = resp.encode();
    // The rejection count is the trailing u32; claim 200 entries
    // (inside the cap) with zero record bytes behind them.
    bytes[bytes.size() - 4] = static_cast<char>(200);
    const auto decoded = SubmitKernelResponse::decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Truncated);

    // Beyond the cap is structurally corrupt, also without allocating.
    bytes[bytes.size() - 1] = static_cast<char>(0x80);
    const auto capped = SubmitKernelResponse::decode(bytes);
    ASSERT_FALSE(capped.ok());
    EXPECT_EQ(capped.error().code, ErrorCode::Corrupt);
}

TEST(Messages, EvalSubmittedRoundTrip)
{
    EvalSubmittedRequest req;
    req.digest = "k824ee515-5957c";
    req.arch = 2;
    req.sched = 1;
    req.vsPivot = 19;
    req.dynamicIsa = 1;
    req.node = 1;
    req.pstate = 2;
    req.cell = 4;
    req.ecc = 1;
    req.cellsBitline = 256;
    const auto decoded = EvalSubmittedRequest::decode(req.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().digest, req.digest);
    EXPECT_EQ(decoded.value().arch, req.arch);
    EXPECT_EQ(decoded.value().sched, req.sched);
    EXPECT_EQ(decoded.value().vsPivot, req.vsPivot);
    EXPECT_EQ(decoded.value().dynamicIsa, req.dynamicIsa);
    EXPECT_EQ(decoded.value().node, req.node);
    EXPECT_EQ(decoded.value().pstate, req.pstate);
    EXPECT_EQ(decoded.value().cell, req.cell);
    EXPECT_EQ(decoded.value().ecc, req.ecc);
    EXPECT_EQ(decoded.value().cellsBitline, req.cellsBitline);
}

TEST(Messages, EvalSubmittedValidatesEveryEnumIndex)
{
    EvalSubmittedRequest good;
    good.digest = "k0-0";
    for (auto mutate : {+[](EvalSubmittedRequest &r) { r.digest = ""; },
                        +[](EvalSubmittedRequest &r) { r.arch = 4; },
                        +[](EvalSubmittedRequest &r) { r.sched = 3; },
                        +[](EvalSubmittedRequest &r) { r.vsPivot = 32; },
                        +[](EvalSubmittedRequest &r) { r.cell = 5; },
                        +[](EvalSubmittedRequest &r) { r.node = 2; },
                        +[](EvalSubmittedRequest &r) { r.pstate = 3; },
                        +[](EvalSubmittedRequest &r) {
                            r.cellsBitline = 0;
                        }}) {
        EvalSubmittedRequest req = good;
        mutate(req);
        EXPECT_FALSE(EvalSubmittedRequest::decode(req.encode()).ok());
    }
    EXPECT_TRUE(EvalSubmittedRequest::decode(good.encode()).ok());
}

TEST(Messages, EvalSubmittedResponseRoundTrip)
{
    EvalSubmittedResponse resp;
    resp.cycles = 16552;
    resp.instructions = 37280;
    resp.maxWarpIssue = 233;
    resp.checkedAccesses = 204800;
    for (int i = 0; i < kScenarioSlots; ++i) {
        resp.chipEnergy[static_cast<std::size_t>(i)] = 1.5 * i;
        resp.bvfUnitsEnergy[static_cast<std::size_t>(i)] = 0.25 * i;
    }
    const auto decoded = EvalSubmittedResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().cycles, resp.cycles);
    EXPECT_EQ(decoded.value().instructions, resp.instructions);
    EXPECT_EQ(decoded.value().maxWarpIssue, resp.maxWarpIssue);
    EXPECT_EQ(decoded.value().checkedAccesses, resp.checkedAccesses);
    EXPECT_EQ(decoded.value().chipEnergy, resp.chipEnergy);
    EXPECT_EQ(decoded.value().bvfUnitsEnergy, resp.bvfUnitsEnergy);
}

TEST(Messages, NewMessageTypesHaveStableNamesAndAreKnown)
{
    for (const MsgType type :
         {MsgType::SubmitKernelRequest, MsgType::SubmitKernelResponse,
          MsgType::EvalSubmittedRequest,
          MsgType::EvalSubmittedResponse}) {
        EXPECT_TRUE(msgTypeKnown(static_cast<std::uint8_t>(type)));
        EXPECT_EQ(msgTypeName(type).find("unknown"), std::string::npos);
    }
}

} // namespace
} // namespace bvf::server
