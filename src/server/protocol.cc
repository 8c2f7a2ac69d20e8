/**
 * @file
 * Wire protocol implementation: framing, the message table and one
 * field layout per message.
 */

#include "server/protocol.hh"

#include "analysis/verifier.hh"
#include "server/kernel_store.hh"

namespace bvf::server
{

namespace
{

constexpr std::string_view kMagic = "BVFP";

Error
corrupt(const std::string &what)
{
    return Error{ErrorCode::Corrupt, what};
}

/** Where @p type sits in the message table. */
struct TableEntry
{
    bool known = false;
    std::size_t row = kMsgRows - 1; //!< the error row when unknown
    const char *name = "?";
    bool response = false;
};

TableEntry
lookup(MsgType type)
{
    TableEntry entry;
    std::size_t index = 0;
    forEachMsg([&]<typename Req, typename Resp>(const MsgRow<Req, Resp> &r) {
        const bool asRequest = !std::is_void_v<Req> && r.request == type;
        if (asRequest || r.response == type)
            entry = {true, index, r.name, !asRequest};
        ++index;
    });
    return entry;
}

} // namespace

std::size_t
msgRow(MsgType type)
{
    return lookup(type).row;
}

std::string_view
msgRowName(std::size_t row)
{
    std::string_view name;
    std::size_t index = 0;
    forEachMsg([&](const auto &r) {
        if (index++ == row)
            name = r.name;
    });
    return name;
}

std::string
msgTypeName(MsgType type)
{
    const TableEntry entry = lookup(type);
    if (!entry.known)
        return "?";
    return std::string(entry.name)
           + (entry.response ? "-response" : "-request");
}

bool
msgTypeKnown(std::uint8_t raw)
{
    return lookup(static_cast<MsgType>(raw)).known;
}

// --- Framing ----------------------------------------------------------

std::string
encodeFrame(MsgType type, std::string_view payload)
{
    panic_if(payload.size() > kMaxPayload,
             "frame payload of %zu bytes exceeds the %u-byte cap",
             payload.size(), kMaxPayload);
    return encodeCrcFrame(kMagic, kProtocolVersion,
                          static_cast<std::uint8_t>(type), payload);
}

Result<Frame>
parseFrame(std::string_view bytes, std::size_t &consumed)
{
    if (bytes.size() < kHeaderBytes)
        return Error{ErrorCode::Truncated, "incomplete frame header"};
    const auto header = parseCrcFrameHeader(bytes, kMagic);
    if (!header)
        return corrupt("bad frame magic");
    const FrameHeader &h = *header;

    if (h.version != kProtocolVersion) {
        return Error{ErrorCode::Unsupported,
                     strFormat("protocol version %u, this build speaks %u",
                               h.version, kProtocolVersion)};
    }
    if (h.flags != 0)
        return corrupt("reserved frame flags set");
    if (!msgTypeKnown(h.type))
        return corrupt(strFormat("unknown message type 0x%02x", h.type));
    if (h.length > kMaxPayload) {
        // Corrupt, not InvalidArgument: no conforming peer ever sends a
        // length above the cap, so an oversized field means the stream
        // itself is damaged.  The distinction matters to the fleet
        // coordinator, which retries framing damage on another worker
        // but records other error codes as application verdicts -- a
        // bit flip in this field must not convict the job it hit.
        return corrupt(strFormat("frame payload of %u bytes exceeds the "
                                 "%u-byte cap",
                                 h.length, kMaxPayload));
    }
    if (bytes.size() < kHeaderBytes + h.length)
        return Error{ErrorCode::Truncated, "incomplete frame payload"};
    if (!crcFrameIntact(bytes, h))
        return corrupt("frame CRC mismatch");

    Frame frame;
    frame.type = static_cast<MsgType>(h.type);
    frame.payload.assign(bytes.substr(kHeaderBytes, h.length));
    consumed = kHeaderBytes + h.length;
    return frame;
}

// --- Message layouts -------------------------------------------------
//
// One layout per message (common/bytes.hh): the fields in wire order,
// each string with its one cap, and every validation rule at the point
// of the read where it applies. Requests refuse out-of-range values as
// InvalidArgument; responses refuse structural impossibilities as
// Corrupt.

namespace
{

constexpr ErrorCode kInvalid = ErrorCode::InvalidArgument;
constexpr ErrorCode kCorrupt = ErrorCode::Corrupt;

template <typename Io>
void
layout(Io &io, Ping &m)
{
    io(m.nonce);
}

template <typename Io>
void
layout(Io &io, AppQuery &q)
{
    io.str(q.abbr, kMaxString);
    io(q.arch, q.sched, q.vsPivot, q.dynamicIsa);
}

/**
 * The one range check for the machine a request names: isa::GpuArch
 * index @p arch, gpu::SchedulerPolicy index @p sched, VS pivot lane
 * @p vsPivot and the dynamic-ISA flag.
 */
template <typename Io>
void
checkMachine(Io &io, std::uint8_t arch, std::uint8_t sched,
             std::uint32_t vsPivot, std::uint8_t dynamicIsa)
{
    io.check(arch < core::kArchChoices.size(), kInvalid,
             "architecture index %u out of range", arch);
    io.check(sched < core::kSchedChoices.size(), kInvalid,
             "scheduler index %u out of range", sched);
    io.check(vsPivot <= core::kMaxVsPivot, kInvalid,
             "VS pivot %u out of range [0, 31]", vsPivot);
    io.check(dynamicIsa <= 1, kInvalid, "dynamic-ISA flag %u is not 0 or 1",
             dynamicIsa);
}

/**
 * The one range check for the pricing a request names (the fields
 * ChipEnergyRequest and EvalSubmittedRequest share): technology node,
 * P-state, cell kind, ECC flag, and cells per bitline in [1, 8192],
 * the range `bvf_sim --cells-bitline` accepts.
 */
template <typename Io, typename M>
void
checkPricing(Io &io, const M &m)
{
    io.check(m.node < core::kNodeChoices.size(), kInvalid,
             "technology node index %u out of range", m.node);
    io.check(m.pstate < core::kPStateChoices.size(), kInvalid,
             "P-state index %u out of range", m.pstate);
    io.check(m.cell < core::kCellChoices.size(), kInvalid,
             "cell kind index %u out of range", m.cell);
    io.check(m.ecc <= 1, kInvalid, "ECC flag %u is not 0 or 1", m.ecc);
    io.check(m.cellsBitline >= 1 && m.cellsBitline <= core::kMaxCellsBitline,
             kInvalid, "cells per bitline %u out of range [1, 8192]",
             m.cellsBitline);
}

template <typename Io>
void
checkQuery(Io &io, const AppQuery &q)
{
    io.check(!q.abbr.empty(), kInvalid, "empty application abbreviation");
    io.check(q.abbr.size() <= kMaxAbbrBytes, kInvalid,
             "application abbreviation is %zu bytes (limit %u)",
             q.abbr.size(), kMaxAbbrBytes);
    checkMachine(io, q.arch, q.sched, q.vsPivot, q.dynamicIsa);
}

/** The three requests that carry nothing but an AppQuery. */
template <typename Io, typename M>
void
queryLayout(Io &io, M &m)
{
    layout(io, m.query);
    io.end();
    checkQuery(io, m.query);
}

template <typename Io>
void
layout(Io &io, BitDensityRequest &m)
{
    queryLayout(io, m);
}

template <typename Io>
void
layout(Io &io, StaticQueryRequest &m)
{
    queryLayout(io, m);
}

template <typename Io>
void
layout(Io &io, StaticAdviceRequest &m)
{
    queryLayout(io, m);
}

template <typename Io>
void
layout(Io &io, StaticQueryResponse::Bound &b)
{
    io(b.lo, b.hi, b.any);
}

template <typename Io>
void
layout(Io &io, EvalCoderRequest &m)
{
    io(m.coder, m.arch, m.vsPivot, m.isaMask);
    const std::uint32_t n = io.count(m.words);
    io.check(m.coder <= CoderKind::Isa, kInvalid, "unknown coder kind %u",
             static_cast<unsigned>(m.coder));
    checkMachine(io, m.arch, 0, m.vsPivot, 0);
    io.check(n <= kMaxWords, kInvalid,
             "%u words exceed the per-request cap of %u", n, kMaxWords);
    io.items(m.words, n, 8, [&](std::uint64_t &w) { io(w); });
}

template <typename Io>
void
layout(Io &io, EvalCoderResponse &m)
{
    io(m.totalBits, m.onesBefore, m.onesAfter);
    const std::uint32_t n = io.count(m.encoded);
    io.check(n <= kMaxWords, kCorrupt, "encoded word count exceeds cap");
    io.items(m.encoded, n, 8, [&](std::uint64_t &w) { io(w); });
}

template <typename Io>
void
layout(Io &io, BitDensityResponse &m)
{
    io(m.cycles, m.instructions);
    const std::uint32_t n = io.count(m.units);
    io.check(n <= kMaxUnits, kCorrupt, "unit count exceeds cap");
    io.items(m.units, n, 1 + 8 * kScenarioSlots,
             [&](BitDensityResponse::Unit &u) { io(u.unit, u.density); });
    io(m.nocDensity);
}

template <typename Io>
void
layout(Io &io, ChipEnergyRequest &m)
{
    layout(io, m.query);
    io(m.node, m.pstate, m.cell, m.ecc, m.cellsBitline);
    io.end();
    checkQuery(io, m.query);
    checkPricing(io, m);
}

template <typename Io>
void
layout(Io &io, ChipEnergyResponse &m)
{
    io(m.cycles, m.instructions, m.chipEnergy, m.bvfUnitsEnergy);
}

template <typename Io>
void
layout(Io &io, StaticQueryResponse &m)
{
    io(m.bestStatic);
    const std::uint32_t n = io.count(m.units);
    io.check(n <= kMaxUnits, kCorrupt, "unit count exceeds cap");
    io.items(m.units, n, 1 + 17 * kScenarioSlots,
             [&](StaticQueryResponse::Unit &u) {
                 io(u.unit);
                 for (auto &b : u.bounds)
                     layout(io, b);
             });
    for (auto &b : m.noc)
        layout(io, b);
}

template <typename Io>
void
layout(Io &io, StaticAdviceResponse &m)
{
    io(m.bestPivot, m.provenSlack, m.affineSources, m.totalSources);
    io.check(m.bestPivot < 32, kCorrupt, "pivot lane out of range");
    for (auto &b : m.pivotBounds)
        layout(io, b);
    io(m.pivotScores, m.defaultMask, m.specializedMask);
    layout(io, m.defaultDensity);
    layout(io, m.specializedDensity);
    io(m.bestScenario);
    const std::uint32_t n = io.count(m.unitPicks);
    io.check(n <= kMaxUnits, kCorrupt, "unit pick count exceeds cap");
    io.items(m.unitPicks, n, 3 + 2 * 17,
             [&](StaticAdviceResponse::UnitPick &u) {
                 io(u.unit, u.pick, u.proven);
                 layout(io, u.nv);
                 layout(io, u.vs);
             });
}

template <typename Io>
void
layout(Io &io, SubmitKernelRequest &m)
{
    io.str(m.bytecode, kMaxBlob);
    // Optional tail; omitted when clear so default-shaped requests are
    // byte-identical to the pre-optimizer wire format.
    if (io.tail(m.optimize)) {
        io(m.optimize);
        io.check(m.optimize <= 1, kCorrupt, "optimize flag is not boolean");
        io.end();
    }
    io.check(!m.bytecode.empty(), kInvalid, "empty kernel bytecode");
}

template <typename Io>
void
layout(Io &io, SubmitKernelResponse &m)
{
    io(m.admitted);
    io.str(m.digest, kMaxString);
    io(m.tripBound, m.globalLo, m.globalHi);
    const std::uint32_t n = io.count(m.rejections);
    io.check(m.admitted <= 1, kCorrupt, "admitted flag is not boolean");
    io.check(n <= kMaxWireRejections, kCorrupt,
             "rejection count exceeds cap");
    // Every rejection record needs at least its fixed 9-byte prefix.
    io.items(m.rejections, n, 9,
             [&](SubmitKernelResponse::WireRejection &r) {
                 io(r.reason, r.pc);
                 io.str(r.message, kMaxString);
                 io.check(r.reason < analysis::kNumRejectReasons, kInvalid,
                          "unknown rejection reason %u", r.reason);
             });
    // Optional optimize-on-submit tail (mirrors the request flag).
    if (io.tail(m.optimizeRequested)) {
        io(m.optimized);
        io.str(m.optimizedDigest, kMaxString);
        io.end();
        io.check(m.optimized <= 1, kCorrupt, "optimized flag is not boolean");
        io.check(!m.optimized || !m.optimizedDigest.empty(), kCorrupt,
                 "optimized response without a digest");
        io.check(m.optimized || m.optimizedDigest.empty(), kCorrupt,
                 "fallback response carries a digest");
        io.check(!m.optimized || m.admitted, kCorrupt,
                 "optimized response without admission");
    }
    io.check(!m.admitted || m.rejections.empty(), kCorrupt,
             "admitted response carries rejections");
}

template <typename Io>
void
layout(Io &io, EvalSubmittedRequest &m)
{
    io.str(m.digest, kMaxString);
    io(m.arch, m.sched, m.vsPivot, m.dynamicIsa, m.node, m.pstate, m.cell,
       m.ecc, m.cellsBitline);
    io.end();
    io.check(!m.digest.empty(), kInvalid, "empty kernel digest");
    io.check(m.digest.size() <= kMaxDigestBytes, kInvalid,
             "kernel digest is %zu bytes (limit %u)", m.digest.size(),
             kMaxDigestBytes);
    checkMachine(io, m.arch, m.sched, m.vsPivot, m.dynamicIsa);
    checkPricing(io, m);
}

template <typename Io>
void
layout(Io &io, EvalSubmittedResponse &m)
{
    io(m.cycles, m.instructions, m.maxWarpIssue, m.checkedAccesses,
       m.chipEnergy, m.bvfUnitsEnergy);
}

template <typename Io>
void
layout(Io &io, WireError &m)
{
    io(m.code);
    io.str(m.message, kMaxString);
}

} // namespace

template <typename M>
std::string
WireCodec<M>::encode() const
{
    LayoutWriter out;
    layout(out, const_cast<M &>(static_cast<const M &>(*this)));
    return out.take();
}

template <typename M>
Result<M>
WireCodec<M>::decode(std::string_view payload)
{
    LayoutReader in(payload);
    M m;
    layout(in, m);
    in.end();
    if (!in.ok())
        return in.error();
    return m;
}

template struct WireCodec<Ping>;
template struct WireCodec<EvalCoderRequest>;
template struct WireCodec<EvalCoderResponse>;
template struct WireCodec<BitDensityRequest>;
template struct WireCodec<BitDensityResponse>;
template struct WireCodec<ChipEnergyRequest>;
template struct WireCodec<ChipEnergyResponse>;
template struct WireCodec<StaticQueryRequest>;
template struct WireCodec<StaticQueryResponse>;
template struct WireCodec<StaticAdviceRequest>;
template struct WireCodec<StaticAdviceResponse>;
template struct WireCodec<SubmitKernelRequest>;
template struct WireCodec<SubmitKernelResponse>;
template struct WireCodec<EvalSubmittedRequest>;
template struct WireCodec<EvalSubmittedResponse>;
template struct WireCodec<WireError>;

// --- Routing ----------------------------------------------------------

namespace
{

template <typename M>
std::optional<std::string>
routeKey(const M &m)
{
    if constexpr (requires { m.query.abbr; }) {
        return m.query.abbr;
    } else if constexpr (std::is_same_v<M, SubmitKernelRequest>) {
        // The digest the worker stores the kernel under, so the later
        // EvalSubmitted for it shards to the same worker.
        return kernelDigest(m.bytecode);
    } else if constexpr (std::is_same_v<M, EvalSubmittedRequest>) {
        return m.digest;
    } else {
        return std::nullopt;
    }
}

} // namespace

std::optional<std::string>
requestRouteKey(const Frame &frame)
{
    std::optional<std::string> key;
    forEachMsg([&]<typename Req, typename Resp>(const MsgRow<Req, Resp> &r) {
        if constexpr (!std::is_void_v<Req>) {
            if (r.request != frame.type)
                return;
            if (const auto m = Req::decode(frame.payload); m.ok())
                key = routeKey(m.value());
        }
    });
    return key;
}

} // namespace bvf::server
