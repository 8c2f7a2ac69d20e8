/**
 * @file
 * bvfd wire protocol: CRC32-framed, length-prefixed binary messages.
 *
 * A connection carries a stream of frames in either direction. Every
 * frame is the 16-byte CRC frame of common/bytes.hh (shared with BVFK
 * bytecode) under magic "BVFP":
 *
 *   magic   "BVFP"                       4 bytes
 *   version u8   (= kProtocolVersion)    1 byte
 *   type    u8   (MsgType)               1 byte
 *   flags   u16  (reserved, must be 0)   2 bytes
 *   length  u32  payload byte count      4 bytes
 *   crc     u32  CRC-32 of the 12 header
 *                bytes above + payload   4 bytes
 *   payload length bytes
 *
 * Each message is defined once: its struct below, its row in the
 * message table (kMessages: names, known types, metrics slots, the
 * daemon's dispatch) and one field layout in protocol.cc that both
 * encode() and decode() run (common/bytes.hh LayoutWriter and
 * LayoutReader). All integers are little-endian; doubles are IEEE-754
 * bit patterns in a u64, so energies survive the wire bit-identically;
 * every string has one cap, the same in both directions.
 * The CRC makes a torn or corrupted stream detectable before any
 * request is executed; a length above kMaxPayload is rejected without
 * buffering (a 4 GB length field must not allocate 4 GB); an unknown
 * version is refused as Unsupported so old clients fail loudly against
 * new daemons. Those framing codes (Corrupt, Truncated, Unsupported)
 * mean wire damage; a well-framed request whose payload is refused
 * gets InvalidArgument (RequestHandler), the job's own verdict.
 *
 * Requests are answered *in order* per connection: a client may write a
 * whole batch of requests back to back and read the same number of
 * responses. The server evaluates the batch concurrently but responds
 * in request order (see server.hh).
 */

#ifndef BVF_SERVER_PROTOCOL_HH
#define BVF_SERVER_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "coder/scenario.hh"
#include "common/bytes.hh"
#include "common/result.hh"
#include "core/setup.hh"

namespace bvf::server
{

constexpr std::uint8_t kProtocolVersion = 1;

/** Frame header byte count (magic through crc). */
constexpr std::size_t kHeaderBytes = kFrameHeaderBytes;

/** Hard cap on one frame's payload (1 MiB). */
constexpr std::uint32_t kMaxPayload = 1u << 20;

/** Frame types. Requests have the high bit clear, responses set. */
enum class MsgType : std::uint8_t
{
    PingRequest = 0x01,
    EvalCoderRequest = 0x02,
    BitDensityRequest = 0x03,
    ChipEnergyRequest = 0x04,
    StaticQueryRequest = 0x05,
    StaticAdviceRequest = 0x06,
    SubmitKernelRequest = 0x07,
    EvalSubmittedRequest = 0x08,

    PingResponse = 0x81,
    EvalCoderResponse = 0x82,
    BitDensityResponse = 0x83,
    ChipEnergyResponse = 0x84,
    StaticQueryResponse = 0x85,
    StaticAdviceResponse = 0x86,
    SubmitKernelResponse = 0x87,
    EvalSubmittedResponse = 0x88,
    ErrorResponse = 0xff,
};

/** Display name, e.g. "eval-coder-request". */
std::string msgTypeName(MsgType type);

/** Is @p raw a defined MsgType value? */
bool msgTypeKnown(std::uint8_t raw);

/** One decoded frame. */
struct Frame
{
    MsgType type = MsgType::ErrorResponse;
    std::string payload;
};

/** Serialize one frame (header + payload). */
std::string encodeFrame(MsgType type, std::string_view payload);

/**
 * Parse the first frame of @p bytes. On success @p consumed is the
 * frame's total size. ErrorCode::Truncated means "feed me more bytes";
 * every other error is a real protocol violation (bad magic or CRC,
 * oversized length, unknown version) and the connection should die.
 */
Result<Frame> parseFrame(std::string_view bytes, std::size_t &consumed);

// --- Messages ---------------------------------------------------------

/**
 * encode()/decode() of message @p M. Both run the message's one field
 * layout (protocol.cc): encode() writes it, decode() reads it back and
 * applies its validation rules at the points the layout places them.
 * decode() refuses a payload that ends mid-field (Truncated), carries
 * trailing bytes or breaks a structural rule (Corrupt), or names a
 * value the request may not ask for (InvalidArgument).
 */
template <typename M>
struct WireCodec
{
    std::string encode() const;
    static Result<M> decode(std::string_view payload);
};

/** Number of per-scenario slots every response table carries. */
constexpr std::size_t kScenarioSlots =
    static_cast<std::size_t>(coder::numScenarios);

/**
 * Field caps. kMaxString (every string: app names, digests, messages)
 * and kMaxBlob (kernel bytecode) hold in both directions: encode()
 * panics above them and decode() refuses them. decode() refuses a coder
 * word vector over kMaxWords and a per-unit table over kMaxUnits.
 */
constexpr std::uint32_t kMaxString = 4096;
constexpr std::uint32_t kMaxBlob = kMaxPayload - 64;
constexpr std::uint32_t kMaxWords = kMaxPayload / 8 - 16;
constexpr std::uint32_t kMaxUnits = 64;

/** Ping: echo test and liveness probe. */
struct Ping : WireCodec<Ping>
{
    std::uint64_t nonce = 0;
};

/** Which coder an EvalCoder request exercises. */
enum class CoderKind : std::uint8_t
{
    Identity = 0,
    Nv = 1,  //!< narrow-value XNOR coder (32-bit words)
    Vs = 2,  //!< value-similarity block coder (32-bit words)
    Isa = 3, //!< ISA-preference mask coder (64-bit encodings)
};

/**
 * Evaluate one coder over raw words. Words travel as u64; the 32-bit
 * coders (identity/nv/vs) treat each as two little-endian 32-bit words,
 * the ISA coder consumes them whole.
 */
struct EvalCoderRequest : WireCodec<EvalCoderRequest>
{
    CoderKind coder = CoderKind::Identity;
    std::uint8_t arch = 3;    //!< isa::GpuArch index (isa coder)
    std::uint32_t vsPivot = 0; //!< VS pivot lane (vs coder)
    std::uint64_t isaMask = 0; //!< 0 = Table 2 mask of arch
    std::vector<std::uint64_t> words;
};

/** Bit statistics before/after encoding, plus the encoded words. */
struct EvalCoderResponse : WireCodec<EvalCoderResponse>
{
    std::uint64_t totalBits = 0;
    std::uint64_t onesBefore = 0;
    std::uint64_t onesAfter = 0;
    std::vector<std::uint64_t> encoded;
};

/**
 * Longest application abbreviation a request may name. Longer names
 * decode (the wire carries strings up to kMaxString bytes) and are
 * then refused as InvalidArgument, the request's own fault.
 */
constexpr std::uint32_t kMaxAbbrBytes = 64;

/** App-keyed request core shared by density/energy/static queries. */
struct AppQuery
{
    std::string abbr;          //!< suite abbreviation, e.g. "KMN"
    std::uint8_t arch = 3;     //!< isa::GpuArch index
    std::uint8_t sched = 0;    //!< gpu::SchedulerPolicy index
    std::uint32_t vsPivot = 21;
    std::uint8_t dynamicIsa = 0;
};

/** Simulate an app; report per-unit encoded bit-1 density. */
struct BitDensityRequest : WireCodec<BitDensityRequest>
{
    AppQuery query;
};

struct BitDensityResponse : WireCodec<BitDensityResponse>
{
    struct Unit
    {
        std::uint8_t unit = 0; //!< coder::UnitId index
        std::array<double, kScenarioSlots> density{};
    };

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<Unit> units;
    std::array<double, kScenarioSlots> nocDensity{};
};

/** Simulate an app and price it: per-scenario chip energy. */
struct ChipEnergyRequest : WireCodec<ChipEnergyRequest>
{
    AppQuery query;
    std::uint8_t node = 0;   //!< 0 = 28nm, 1 = 40nm
    std::uint8_t pstate = 0; //!< 0 = 700MHz, 1 = 500MHz, 2 = 300MHz
    std::uint8_t cell = 0;   //!< circuit::CellKind index
    std::uint8_t ecc = 0;
    std::uint32_t cellsBitline = 128;
};

struct ChipEnergyResponse : WireCodec<ChipEnergyResponse>
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::array<double, kScenarioSlots> chipEnergy{};
    std::array<double, kScenarioSlots> bvfUnitsEnergy{};
};

/** Static predictor query: proven density bounds, no simulation. */
struct StaticQueryRequest : WireCodec<StaticQueryRequest>
{
    AppQuery query;
};

struct StaticQueryResponse : WireCodec<StaticQueryResponse>
{
    struct Bound
    {
        double lo = 0.0;
        double hi = 1.0;
        std::uint8_t any = 0;
    };
    struct Unit
    {
        std::uint8_t unit = 0; //!< coder::UnitId index
        std::array<Bound, kScenarioSlots> bounds{};
    };

    std::uint8_t bestStatic = 0; //!< coder::Scenario index
    std::vector<Unit> units;
    std::array<Bound, kScenarioSlots> noc{};
};

/**
 * Static advisor query: derive the coder wiring itself (VS register
 * pivot, specialized ISA mask, per-unit NV-vs-VS picks) from the
 * lane-aware analysis, without simulating. Only abbr and arch of the
 * query matter; pivot/mask are outputs here, not inputs.
 */
struct StaticAdviceRequest : WireCodec<StaticAdviceRequest>
{
    AppQuery query;
};

struct StaticAdviceResponse : WireCodec<StaticAdviceResponse>
{
    using Bound = StaticQueryResponse::Bound;

    struct UnitPick
    {
        std::uint8_t unit = 0;   //!< coder::UnitId index
        std::uint8_t pick = 0;   //!< coder::Scenario index (NvOnly/VsOnly)
        std::uint8_t proven = 0; //!< winner's interval clears the loser's
        Bound nv;
        Bound vs;
    };

    // VS register pivot ranking.
    std::uint8_t bestPivot = 21;
    double provenSlack = 1.0;
    std::uint32_t affineSources = 0;
    std::uint32_t totalSources = 0;
    std::array<Bound, 32> pivotBounds{};
    std::array<double, 32> pivotScores{};

    // ISA mask specialization; the density bounds' any flag mirrors
    // IsaAdvice::anyInstruction.
    std::uint64_t defaultMask = 0;
    std::uint64_t specializedMask = 0;
    Bound defaultDensity{};
    Bound specializedDensity{};

    std::uint8_t bestScenario = 0; //!< coder::Scenario index
    std::vector<UnitPick> unitPicks;
};

/**
 * Caps for the kernel-submission messages. A request digest longer
 * than kMaxDigestBytes decodes (up to kMaxString) and is refused as
 * InvalidArgument, like a long app name.
 */
constexpr std::uint32_t kMaxDigestBytes = 64;
constexpr std::uint32_t kMaxWireRejections = 256;

/**
 * Submit an untrusted kernel -- a BVFK bytecode frame (isa/bytecode.hh)
 * -- for static admission. The daemon decodes and verifies it; an
 * admitted kernel is stored under a content digest for later
 * EvalSubmitted requests and never reaches an SM without one. A
 * *rejection* is a successful response carrying the machine-readable
 * reasons; only undecodable bytecode or a full kernel store comes back
 * as an ErrorResponse.
 */
struct SubmitKernelRequest : WireCodec<SubmitKernelRequest>
{
    std::string bytecode;

    /**
     * Optimize-on-submit: after admission, run the certificate-guided
     * optimizer and store the validated optimized program alongside
     * the original. Encoded as an optional trailing byte -- absent
     * (old clients) means 0, so the wire format is fully backward
     * compatible in both directions.
     */
    std::uint8_t optimize = 0;
};

struct SubmitKernelResponse : WireCodec<SubmitKernelResponse>
{
    struct WireRejection
    {
        std::uint8_t reason = 0; //!< analysis::RejectReason index
        std::uint32_t pc = 0;
        std::string message;
    };

    std::uint8_t admitted = 0;
    std::string digest;          //!< handle for EvalSubmitted ("" if rejected)
    std::uint64_t tripBound = 0; //!< proven per-warp issue bound
    std::uint32_t globalLo = 0;  //!< proven global footprint hull [lo, hi]
    std::uint32_t globalHi = 0;

    /** First kMaxWireRejections rejections, sorted by pc. */
    std::vector<WireRejection> rejections;

    /**
     * Optimize-on-submit tail, present on the wire only when set (the
     * daemon sets it iff the request carried the optimize flag).
     * `optimized` says whether a validated optimized program was
     * stored; its digest then names a first-class kernel usable with
     * EvalSubmitted. optimized=0 with the tail present means the
     * optimizer fell back to the original (nothing to do, validation
     * failure, or a weaker certificate).
     */
    std::uint8_t optimizeRequested = 0;
    std::uint8_t optimized = 0;
    std::string optimizedDigest;
};

/** Simulate and price a previously admitted kernel by digest. */
struct EvalSubmittedRequest : WireCodec<EvalSubmittedRequest>
{
    std::string digest;
    std::uint8_t arch = 3;     //!< isa::GpuArch index
    std::uint8_t sched = 0;    //!< gpu::SchedulerPolicy index
    std::uint32_t vsPivot = 21;
    std::uint8_t dynamicIsa = 0;
    std::uint8_t node = 0;     //!< 0 = 28nm, 1 = 40nm
    std::uint8_t pstate = 0;   //!< 0 = 700MHz, 1 = 500MHz, 2 = 300MHz
    std::uint8_t cell = 0;     //!< circuit::CellKind index
    std::uint8_t ecc = 0;
    std::uint32_t cellsBitline = 128;
};

/**
 * The one conversion between a core::RunSetup and the request fields
 * that carry it, each choice as its enum index: one map of field pairs
 * that toWire() and fromWire() both run. It covers the machine (arch,
 * sched, pivot, dynamic ISA) of an AppQuery or of a request holding
 * one, and the pricing (node, P-state, cell, ECC, cells per bitline)
 * where the request has it. An AppQuery's abbr is the caller's;
 * fromWire() leaves what @p m does not carry at RunSetup's defaults,
 * and decode has range-checked every index.
 */
template <typename M, typename S, typename F>
void
setupFields(M &m, S &s, F field)
{
    if constexpr (requires { m.query; }) {
        setupFields(m.query, s, field);
    } else {
        field(m.arch, s.arch);
        field(m.sched, s.sched);
        field(m.vsPivot, s.vsPivot);
        field(m.dynamicIsa, s.dynamicIsa);
    }
    if constexpr (requires { m.node; }) {
        field(m.node, s.node);
        field(m.pstate, s.pstate);
        field(m.cell, s.cell);
        field(m.ecc, s.ecc);
        field(m.cellsBitline, s.cellsBitline);
    }
}

template <typename M>
void
toWire(const core::RunSetup &setup, M &m)
{
    setupFields(m, setup, []<typename W>(W &wire, const auto &value) {
        wire = static_cast<W>(value);
    });
}

template <typename M>
core::RunSetup
fromWire(const M &m)
{
    core::RunSetup setup;
    setupFields(m, setup, []<typename V>(const auto &wire, V &value) {
        value = static_cast<V>(wire);
    });
    return setup;
}

struct EvalSubmittedResponse : WireCodec<EvalSubmittedResponse>
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    /** Contract-probe observations (certificate enforcement). */
    std::uint64_t maxWarpIssue = 0;
    std::uint64_t checkedAccesses = 0;

    std::array<double, kScenarioSlots> chipEnergy{};
    std::array<double, kScenarioSlots> bvfUnitsEnergy{};
};

/** Structured failure for one request. */
struct WireError : WireCodec<WireError>
{
    std::uint8_t code = 0; //!< ErrorCode index
    std::string message;
};

// --- The message table --------------------------------------------------

/**
 * One row of the message table: a request type, the response type it
 * is answered with and the structs carrying their payloads. The error
 * row has no request (Request = void).
 */
template <typename Req, typename Resp>
struct MsgRow
{
    using Request = Req;
    using Response = Resp;

    const char *name; //!< "eval-coder": type names and metrics label
    MsgType request;
    MsgType response;
};

/**
 * Every message, once. Names, known types, the metrics slots (a row's
 * index) and the daemon's request dispatch all come from here.
 */
inline constexpr std::tuple kMessages{
    MsgRow<Ping, Ping>{"ping", MsgType::PingRequest, MsgType::PingResponse},
    MsgRow<EvalCoderRequest, EvalCoderResponse>{
        "eval-coder", MsgType::EvalCoderRequest,
        MsgType::EvalCoderResponse},
    MsgRow<BitDensityRequest, BitDensityResponse>{
        "bit-density", MsgType::BitDensityRequest,
        MsgType::BitDensityResponse},
    MsgRow<ChipEnergyRequest, ChipEnergyResponse>{
        "chip-energy", MsgType::ChipEnergyRequest,
        MsgType::ChipEnergyResponse},
    MsgRow<StaticQueryRequest, StaticQueryResponse>{
        "static-query", MsgType::StaticQueryRequest,
        MsgType::StaticQueryResponse},
    MsgRow<StaticAdviceRequest, StaticAdviceResponse>{
        "static-advice", MsgType::StaticAdviceRequest,
        MsgType::StaticAdviceResponse},
    MsgRow<SubmitKernelRequest, SubmitKernelResponse>{
        "submit-kernel", MsgType::SubmitKernelRequest,
        MsgType::SubmitKernelResponse},
    MsgRow<EvalSubmittedRequest, EvalSubmittedResponse>{
        "eval-submitted", MsgType::EvalSubmittedRequest,
        MsgType::EvalSubmittedResponse},
    MsgRow<void, WireError>{"error", MsgType::ErrorResponse,
                            MsgType::ErrorResponse},
};

/** Number of rows in the message table. */
constexpr std::size_t kMsgRows = std::tuple_size_v<decltype(kMessages)>;

/** Call @p fn(row) for every row of the message table, in order. */
template <typename Fn>
constexpr void
forEachMsg(Fn &&fn)
{
    std::apply([&](const auto &...row) { (fn(row), ...); }, kMessages);
}

/** Table row of @p type; the error row for an unknown type. */
std::size_t msgRow(MsgType type);

/** Family name of table row @p row, e.g. "eval-coder". */
std::string_view msgRowName(std::size_t row);

/**
 * The key a fleet shards @p frame by: the app abbreviation of an
 * app-keyed request, the content digest of a submitted kernel (its
 * kernelDigest) or the digest an EvalSubmitted names. Nothing for
 * other types or a payload that does not decode.
 */
std::optional<std::string> requestRouteKey(const Frame &frame);

} // namespace bvf::server

#endif // BVF_SERVER_PROTOCOL_HH
