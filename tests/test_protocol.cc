/**
 * @file
 * Wire-protocol tests: frame round-trips, the framing error taxonomy
 * (truncation at every prefix, corrupted magic/CRC/flags, oversized
 * length, version mismatch), message encode/decode round-trips with
 * strict trailing-byte rejection, encoder/decoder agreement at every
 * field cap, the verdicts of malformed requests, and a randomized fuzz
 * round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "server/handler.hh"
#include "server/protocol.hh"
#include "workload/app_spec.hh"

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

TEST(Messages, LongDigestIsInvalidNotTruncated)
{
    // Like a long app name: the digest decodes with the wire's string
    // cap and is then refused as the request's own fault.
    EvalSubmittedRequest req;
    req.digest = std::string(100, 'k');
    const auto decoded = EvalSubmittedRequest::decode(req.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);

    req.digest = std::string(kMaxDigestBytes, 'k');
    EXPECT_TRUE(EvalSubmittedRequest::decode(req.encode()).ok());
    req.digest += 'k';
    const auto over = EvalSubmittedRequest::decode(req.encode());
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.error().code, ErrorCode::InvalidArgument);
}

TEST(Handler, EccChipEnergyMatchesTheCampaignMappingBitForBit)
{
    // An ecc=1 request must count the SECDED check bits exactly as a
    // campaign run of the same setup does, not only price the arrays.
    core::RunSetup setup;
    setup.ecc = true;
    ChipEnergyRequest req;
    toWire(setup, req);
    req.query.abbr = "GAU";
    const Frame answer =
        RequestHandler{}.handle({MsgType::ChipEnergyRequest, req.encode()});
    ASSERT_EQ(answer.type, MsgType::ChipEnergyResponse);
    const auto resp = ChipEnergyResponse::decode(answer.payload);
    ASSERT_TRUE(resp.ok());

    const core::RunPlan plan = setup.campaignPlan();
    const core::ExperimentDriver driver(setup.machine());
    const core::AppRun run = driver.runApp(workload::findApp("GAU"), plan.run);
    const core::AppEnergy energy = driver.evaluate(run, plan.pricing);
    EXPECT_EQ(resp.value().cycles, run.gpuStats.cycles);
    EXPECT_EQ(resp.value().instructions, run.gpuStats.sm.issued);
    for (const coder::Scenario s : coder::allScenarios) {
        const auto i = static_cast<std::size_t>(coder::scenarioIndex(s));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(resp.value().chipEnergy[i]),
                  std::bit_cast<std::uint64_t>(energy.at(s).chipTotal()))
            << coder::scenarioName(s);
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(resp.value().bvfUnitsEnergy[i]),
            std::bit_cast<std::uint64_t>(energy.at(s).bvfUnitsTotal()))
            << coder::scenarioName(s);
    }
}

TEST(Handler, MalformedRequestsAreInvalidArgumentNotWireDamage)
{
    // Each frame passed parseFrame's CRC check, so what is wrong with
    // it is its content. A framing code (Corrupt, Truncated,
    // Unsupported) in the answer would read as wire damage to a fleet
    // coordinator, which would strike the worker and fail over.
    EvalSubmittedRequest longDigest;
    longDigest.digest = std::string(100, 'k');
    SubmitKernelRequest garbage;
    garbage.bytecode = std::string(40, '\x5a');
    const Frame requests[] = {
        {MsgType::ChipEnergyRequest, std::string("\x01\x02\x03", 3)},
        {MsgType::EvalSubmittedRequest, longDigest.encode()},
        {MsgType::SubmitKernelRequest, garbage.encode()},
    };
    const RequestHandler handler;
    for (const Frame &request : requests) {
        const Frame answer = handler.handle(request);
        ASSERT_EQ(answer.type, MsgType::ErrorResponse);
        const auto error = WireError::decode(answer.payload);
        ASSERT_TRUE(error.ok());
        EXPECT_EQ(error.value().code,
                  static_cast<std::uint8_t>(ErrorCode::InvalidArgument))
            << msgTypeName(request.type) << ": " << error.value().message;
    }
}

// --- encoder/decoder agreement ----------------------------------------

/** decode(encode(m)) succeeds and re-encodes to the same bytes. */
template <typename M>
void
expectRoundTrip(const M &m, const std::string &what)
{
    const std::string bytes = m.encode();
    const auto decoded = M::decode(bytes);
    ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.error().describe();
    EXPECT_EQ(decoded.value().encode(), bytes) << what;
}

/** Seeded field values; string and vector lengths favour the caps. */
struct Gen
{
    Rng rng;

    std::size_t
    length(std::size_t lo, std::size_t cap)
    {
        switch (rng.nextBounded(4)) {
          case 0:
            return lo;
          case 1:
            return cap;
          default:
            return lo + rng.nextBounded(std::min<std::size_t>(cap - lo, 40)
                                        + 1);
        }
    }

    template <typename T = std::uint8_t>
    T
    below(std::uint64_t bound)
    {
        return static_cast<T>(rng.nextBounded(bound));
    }

    double f64() { return std::bit_cast<double>(rng.nextU64()); }

    std::string
    str(std::size_t lo, std::size_t cap)
    {
        std::string s(length(lo, cap), '\0');
        for (char &c : s)
            c = static_cast<char>(rng.nextBounded(256));
        return s;
    }

    template <typename T, typename Fill>
    std::vector<T>
    list(std::size_t cap, Fill &&fill)
    {
        std::vector<T> v(length(0, cap));
        for (T &e : v)
            fill(e);
        return v;
    }

    std::vector<std::uint64_t>
    words()
    {
        return list<std::uint64_t>(
            kMaxWords, [&](std::uint64_t &w) { w = rng.nextU64(); });
    }

    StaticQueryResponse::Bound
    bound()
    {
        return {f64(), f64(), below(2)};
    }

    template <std::size_t N>
    void
    fill(std::array<double, N> &a)
    {
        for (double &d : a)
            d = f64();
    }
};

// One random valid message of each type.

void
fill(Gen &g, Ping &m)
{
    m.nonce = g.rng.nextU64();
}

void
fill(Gen &g, AppQuery &q)
{
    q.abbr = g.str(1, kMaxAbbrBytes);
    q.arch = g.below(4);
    q.sched = g.below(3);
    q.vsPivot = g.below<std::uint32_t>(32);
    q.dynamicIsa = g.below(2);
}

void
fill(Gen &g, BitDensityRequest &m)
{
    fill(g, m.query);
}

void
fill(Gen &g, StaticQueryRequest &m)
{
    fill(g, m.query);
}

void
fill(Gen &g, StaticAdviceRequest &m)
{
    fill(g, m.query);
}

void
fill(Gen &g, ChipEnergyRequest &m)
{
    fill(g, m.query);
    m.node = g.below(2);
    m.pstate = g.below(3);
    m.cell = g.below(5);
    m.ecc = g.below(2);
    m.cellsBitline = 1 + g.below<std::uint32_t>(1024);
}

void
fill(Gen &g, EvalCoderRequest &m)
{
    m.coder = g.below<CoderKind>(4);
    m.arch = g.below(4);
    m.vsPivot = g.below<std::uint32_t>(32);
    m.isaMask = g.rng.nextU64();
    m.words = g.words();
}

void
fill(Gen &g, EvalCoderResponse &m)
{
    m.totalBits = g.rng.nextU64();
    m.onesBefore = g.rng.nextU64();
    m.onesAfter = g.rng.nextU64();
    m.encoded = g.words();
}

void
fill(Gen &g, BitDensityResponse &m)
{
    m.cycles = g.rng.nextU64();
    m.instructions = g.rng.nextU64();
    m.units = g.list<BitDensityResponse::Unit>(
        kMaxUnits, [&](BitDensityResponse::Unit &u) {
            u.unit = g.below(256);
            g.fill(u.density);
        });
    g.fill(m.nocDensity);
}

void
fill(Gen &g, ChipEnergyResponse &m)
{
    m.cycles = g.rng.nextU64();
    m.instructions = g.rng.nextU64();
    g.fill(m.chipEnergy);
    g.fill(m.bvfUnitsEnergy);
}

void
fill(Gen &g, StaticQueryResponse &m)
{
    m.bestStatic = g.below(256);
    m.units = g.list<StaticQueryResponse::Unit>(
        kMaxUnits, [&](StaticQueryResponse::Unit &u) {
            u.unit = g.below(256);
            for (auto &b : u.bounds)
                b = g.bound();
        });
    for (auto &b : m.noc)
        b = g.bound();
}

void
fill(Gen &g, StaticAdviceResponse &m)
{
    m.bestPivot = g.below(32);
    m.provenSlack = g.f64();
    m.affineSources = g.rng.nextU32();
    m.totalSources = g.rng.nextU32();
    for (auto &b : m.pivotBounds)
        b = g.bound();
    g.fill(m.pivotScores);
    m.defaultMask = g.rng.nextU64();
    m.specializedMask = g.rng.nextU64();
    m.defaultDensity = g.bound();
    m.specializedDensity = g.bound();
    m.bestScenario = g.below(256);
    m.unitPicks = g.list<StaticAdviceResponse::UnitPick>(
        kMaxUnits, [&](StaticAdviceResponse::UnitPick &u) {
            u = {g.below(256), g.below(256), g.below(256), g.bound(),
                 g.bound()};
        });
}

void
fill(Gen &g, SubmitKernelRequest &m)
{
    m.bytecode = g.str(1, kMaxBlob);
    m.optimize = g.below(2);
}

void
fill(Gen &g, SubmitKernelResponse &m)
{
    m.admitted = g.below(2);
    m.digest = g.str(0, kMaxString);
    m.tripBound = g.rng.nextU64();
    m.globalLo = g.rng.nextU32();
    m.globalHi = g.rng.nextU32();
    if (!m.admitted) {
        m.rejections = g.list<SubmitKernelResponse::WireRejection>(
            kMaxWireRejections, [&](SubmitKernelResponse::WireRejection &r) {
                r.reason = g.below(analysis::kNumRejectReasons);
                r.pc = g.rng.nextU32();
                r.message = g.str(0, kMaxString);
            });
    }
    m.optimizeRequested = g.below(2);
    if (m.optimizeRequested) {
        m.optimized = m.admitted ? g.below(2) : 0;
        if (m.optimized)
            m.optimizedDigest = g.str(1, kMaxString);
    }
}

void
fill(Gen &g, EvalSubmittedRequest &m)
{
    m.digest = g.str(1, kMaxDigestBytes);
    m.arch = g.below(4);
    m.sched = g.below(3);
    m.vsPivot = g.below<std::uint32_t>(32);
    m.dynamicIsa = g.below(2);
    m.node = g.below(2);
    m.pstate = g.below(3);
    m.cell = g.below(5);
    m.ecc = g.below(2);
    m.cellsBitline = 1 + g.below<std::uint32_t>(1024);
}

void
fill(Gen &g, EvalSubmittedResponse &m)
{
    m.cycles = g.rng.nextU64();
    m.instructions = g.rng.nextU64();
    m.maxWarpIssue = g.rng.nextU64();
    m.checkedAccesses = g.rng.nextU64();
    g.fill(m.chipEnergy);
    g.fill(m.bvfUnitsEnergy);
}

void
fill(Gen &g, WireError &m)
{
    m.code = g.below(256);
    m.message = g.str(0, kMaxString);
}

template <typename M>
M
random(Gen &g)
{
    M m;
    fill(g, m);
    return m;
}

TEST(Messages, RandomValidMessagesRoundTripAtEveryCap)
{
    Gen g{Rng(0xa9e3)};
    for (int round = 0; round < 24; ++round) {
        forEachMsg([&]<typename Req, typename Resp>(
                       const MsgRow<Req, Resp> &row) {
            const std::string what = strFormat("%s round %d", row.name, round);
            if constexpr (!std::is_void_v<Req>)
                expectRoundTrip(random<Req>(g), what + " request");
            expectRoundTrip(random<Resp>(g), what + " response");
        });
    }
}

/**
 * @p payload with the string of @p len bytes of @p fill grown by one
 * byte, its u32 length prefix to match.
 */
std::string
growString(std::string payload, std::uint32_t len, char fill)
{
    const auto le32 = [](std::uint32_t v) {
        std::string out(4, '\0');
        for (int i = 0; i < 4; ++i)
            out[static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
        return out;
    };
    const std::size_t at = payload.find(le32(len) + std::string(len, fill));
    EXPECT_NE(at, std::string::npos);
    if (at == std::string::npos)
        return payload;
    payload.replace(at, 4, le32(len + 1));
    payload.insert(at + 4, 1, fill);
    return payload;
}

/**
 * One string field, set by @p make: at @p limit the message round
 * trips; at the wire @p cap it decodes, or -- when @p limit is tighter
 * -- is refused as InvalidArgument, a validation rule rather than a
 * read failure; one byte over the cap (which encode() would refuse to
 * write) does not decode.
 */
template <typename Make>
void
expectStringCap(const std::string &what, std::uint32_t cap,
                std::uint32_t limit, Make &&make)
{
    using M = decltype(make(std::string()));
    const char fill = '\x7e';
    expectRoundTrip(make(std::string(limit, fill)), what);
    const std::string atCap = make(std::string(cap, fill)).encode();
    const auto decoded = M::decode(atCap);
    if (limit < cap) {
        ASSERT_FALSE(decoded.ok()) << what;
        EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument)
            << what << ": " << decoded.error().message;
    } else {
        ASSERT_TRUE(decoded.ok()) << what << ": "
                                  << decoded.error().describe();
        EXPECT_EQ(decoded.value().encode(), atCap) << what;
    }
    EXPECT_FALSE(M::decode(growString(atCap, cap, fill)).ok())
        << what << " decoded one byte over its cap";
}

TEST(Messages, EveryStringHasOneCapInBothDirections)
{
    const auto query = [](auto msg) {
        return [msg](std::string abbr) mutable {
            msg.query.abbr = std::move(abbr);
            return msg;
        };
    };
    expectStringCap("bit-density abbr", kMaxString, kMaxAbbrBytes,
                    query(BitDensityRequest{}));
    expectStringCap("chip-energy abbr", kMaxString, kMaxAbbrBytes,
                    query(ChipEnergyRequest{}));
    expectStringCap("static-query abbr", kMaxString, kMaxAbbrBytes,
                    query(StaticQueryRequest{}));
    expectStringCap("static-advice abbr", kMaxString, kMaxAbbrBytes,
                    query(StaticAdviceRequest{}));
    expectStringCap("submit bytecode", kMaxBlob, kMaxBlob,
                    [](std::string s) {
                        SubmitKernelRequest m;
                        m.bytecode = std::move(s);
                        return m;
                    });
    expectStringCap("submit digest", kMaxString, kMaxString,
                    [](std::string s) {
                        SubmitKernelResponse m;
                        m.admitted = 1;
                        m.digest = std::move(s);
                        return m;
                    });
    expectStringCap("submit optimized digest", kMaxString, kMaxString,
                    [](std::string s) {
                        SubmitKernelResponse m;
                        m.admitted = 1;
                        m.optimizeRequested = 1;
                        m.optimized = 1;
                        m.optimizedDigest = std::move(s);
                        return m;
                    });
    expectStringCap("rejection message", kMaxString, kMaxString,
                    [](std::string s) {
                        SubmitKernelResponse m;
                        m.rejections.push_back({1, 7, std::move(s)});
                        return m;
                    });
    expectStringCap("eval-submitted digest", kMaxString, kMaxDigestBytes,
                    [](std::string s) {
                        EvalSubmittedRequest m;
                        m.digest = std::move(s);
                        return m;
                    });
    expectStringCap("error message", kMaxString, kMaxString,
                    [](std::string s) {
                        WireError m;
                        m.message = std::move(s);
                        return m;
                    });
}

/** One vector, sized by @p make: at @p cap it round trips, over it not. */
template <typename Make>
void
expectCountCap(const std::string &what, std::size_t cap, Make &&make)
{
    using M = decltype(make(0));
    expectRoundTrip(make(cap), what);
    EXPECT_FALSE(M::decode(make(cap + 1).encode()).ok())
        << what << " decoded over its cap";
}

TEST(Messages, EveryVectorHasOneCap)
{
    expectCountCap("coder words", kMaxWords, [](std::size_t n) {
        EvalCoderRequest m;
        m.words.assign(n, 0x0123456789abcdefull);
        return m;
    });
    expectCountCap("encoded words", kMaxWords, [](std::size_t n) {
        EvalCoderResponse m;
        m.encoded.assign(n, 0xfedcba9876543210ull);
        return m;
    });
    expectCountCap("density units", kMaxUnits, [](std::size_t n) {
        BitDensityResponse m;
        m.units.resize(n);
        return m;
    });
    expectCountCap("static-query units", kMaxUnits, [](std::size_t n) {
        StaticQueryResponse m;
        m.units.resize(n);
        return m;
    });
    expectCountCap("unit picks", kMaxUnits, [](std::size_t n) {
        StaticAdviceResponse m;
        m.unitPicks.resize(n);
        return m;
    });
    expectCountCap("rejections", kMaxWireRejections, [](std::size_t n) {
        SubmitKernelResponse m;
        m.rejections.assign(n, {1, 2, "rejected"});
        return m;
    });
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
    req.bytecode = std::string("BVFK-ish blob \x00\xff\x7f with NULs", 27);
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

TEST(Messages, MachineAndPricingChecksAreTheSameInEveryRequest)
{
    // Every request that names a machine or a pricing is checked by the
    // same rule, with the same verdict text.
    const auto verdict = [](const auto &req) {
        const auto decoded =
            std::remove_cvref_t<decltype(req)>::decode(req.encode());
        return decoded.ok() ? std::string("ok") : decoded.error().message;
    };
    AppQuery query;
    query.abbr = "KMN";
    ChipEnergyRequest energy;
    energy.query = query;
    EvalSubmittedRequest eval;
    eval.digest = "k0-0";

    energy.cellsBitline = eval.cellsBitline = 8192;
    EXPECT_EQ(verdict(energy), "ok");
    EXPECT_EQ(verdict(eval), "ok");
    energy.cellsBitline = eval.cellsBitline = 8193;
    EXPECT_EQ(verdict(energy),
              "cells per bitline 8193 out of range [1, 8192]");
    EXPECT_EQ(verdict(eval), verdict(energy));
    energy.cellsBitline = eval.cellsBitline = 128;

    energy.ecc = eval.ecc = 2;
    EXPECT_EQ(verdict(energy), "ECC flag 2 is not 0 or 1");
    EXPECT_EQ(verdict(eval), verdict(energy));
    energy.ecc = eval.ecc = 0;

    energy.node = eval.node = 2;
    EXPECT_EQ(verdict(energy), "technology node index 2 out of range");
    EXPECT_EQ(verdict(eval), verdict(energy));
    energy.node = eval.node = 0;

    energy.query.dynamicIsa = eval.dynamicIsa = 2;
    BitDensityRequest density;
    density.query = energy.query;
    EXPECT_EQ(verdict(density), "dynamic-ISA flag 2 is not 0 or 1");
    EXPECT_EQ(verdict(energy), verdict(density));
    EXPECT_EQ(verdict(eval), verdict(density));

    EvalCoderRequest coder;
    coder.vsPivot = 32;
    density.query.dynamicIsa = 0;
    density.query.vsPivot = 32;
    EXPECT_EQ(verdict(coder), "VS pivot 32 out of range [0, 31]");
    EXPECT_EQ(verdict(density), verdict(coder));
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
