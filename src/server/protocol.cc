/**
 * @file
 * Wire protocol implementation.
 */

#include "server/protocol.hh"

#include "analysis/verifier.hh"

namespace bvf::server
{

namespace
{

constexpr std::string_view kMagic = "BVFP";

/** Cap on one request's word vector (fits kMaxPayload with headroom). */
constexpr std::uint32_t kMaxWords = kMaxPayload / 8 - 16;

/** Cap on strings travelling in requests (app abbreviations, errors). */
constexpr std::uint32_t kMaxString = 4096;

/**
 * Cap on a blob (kernel bytecode): the frame payload, less 64 bytes of
 * headroom for the rest of the message around it.
 */
constexpr std::uint32_t kMaxBlob = kMaxPayload - 64;

Error
corrupt(const std::string &what)
{
    return Error{ErrorCode::Corrupt, what};
}

Error
truncatedPayload()
{
    return Error{ErrorCode::Truncated, "payload ends mid-field"};
}

Error
trailingGarbage()
{
    return Error{ErrorCode::Corrupt, "payload has trailing bytes"};
}

} // namespace

std::string
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::PingRequest:
        return "ping-request";
      case MsgType::EvalCoderRequest:
        return "eval-coder-request";
      case MsgType::BitDensityRequest:
        return "bit-density-request";
      case MsgType::ChipEnergyRequest:
        return "chip-energy-request";
      case MsgType::StaticQueryRequest:
        return "static-query-request";
      case MsgType::StaticAdviceRequest:
        return "static-advice-request";
      case MsgType::SubmitKernelRequest:
        return "submit-kernel-request";
      case MsgType::EvalSubmittedRequest:
        return "eval-submitted-request";
      case MsgType::PingResponse:
        return "ping-response";
      case MsgType::EvalCoderResponse:
        return "eval-coder-response";
      case MsgType::BitDensityResponse:
        return "bit-density-response";
      case MsgType::ChipEnergyResponse:
        return "chip-energy-response";
      case MsgType::StaticQueryResponse:
        return "static-query-response";
      case MsgType::StaticAdviceResponse:
        return "static-advice-response";
      case MsgType::SubmitKernelResponse:
        return "submit-kernel-response";
      case MsgType::EvalSubmittedResponse:
        return "eval-submitted-response";
      case MsgType::ErrorResponse:
        return "error-response";
    }
    return "?";
}

bool
msgTypeKnown(std::uint8_t raw)
{
    switch (static_cast<MsgType>(raw)) {
      case MsgType::PingRequest:
      case MsgType::EvalCoderRequest:
      case MsgType::BitDensityRequest:
      case MsgType::ChipEnergyRequest:
      case MsgType::StaticQueryRequest:
      case MsgType::StaticAdviceRequest:
      case MsgType::SubmitKernelRequest:
      case MsgType::EvalSubmittedRequest:
      case MsgType::PingResponse:
      case MsgType::EvalCoderResponse:
      case MsgType::BitDensityResponse:
      case MsgType::ChipEnergyResponse:
      case MsgType::StaticQueryResponse:
      case MsgType::StaticAdviceResponse:
      case MsgType::SubmitKernelResponse:
      case MsgType::EvalSubmittedResponse:
      case MsgType::ErrorResponse:
        return true;
    }
    return false;
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

// --- Messages ---------------------------------------------------------

namespace
{

void
putAppQuery(ByteWriter &w, const AppQuery &q)
{
    w.putString(q.abbr, kMaxString);
    w.putU8(q.arch);
    w.putU8(q.sched);
    w.putU32(q.vsPivot);
    w.putU8(q.dynamicIsa);
}

bool
getAppQuery(ByteReader &r, AppQuery &q)
{
    return r.getString(q.abbr, kMaxString) && r.getU8(q.arch)
           && r.getU8(q.sched) && r.getU32(q.vsPivot)
           && r.getU8(q.dynamicIsa);
}

Result<void>
validateAppQuery(const AppQuery &q)
{
    if (q.abbr.empty()) {
        return Error{ErrorCode::InvalidArgument,
                     "empty application abbreviation"};
    }
    if (q.abbr.size() > kMaxAbbrBytes) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("application abbreviation is %zu bytes "
                               "(limit %u)",
                               q.abbr.size(), kMaxAbbrBytes)};
    }
    if (q.arch > 3) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("architecture index %u out of range",
                               q.arch)};
    }
    if (q.sched > 2) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("scheduler index %u out of range",
                               q.sched)};
    }
    if (q.vsPivot > 31) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("VS pivot %u out of range [0, 31]",
                               q.vsPivot)};
    }
    return {};
}

} // namespace

std::string
Ping::encode() const
{
    ByteWriter w;
    w.putU64(nonce);
    return w.take();
}

Result<Ping>
Ping::decode(std::string_view payload)
{
    ByteReader r(payload);
    Ping p;
    if (!r.getU64(p.nonce))
        return truncatedPayload();
    if (!r.exhausted())
        return trailingGarbage();
    return p;
}

std::string
EvalCoderRequest::encode() const
{
    ByteWriter w;
    w.putU8(static_cast<std::uint8_t>(coder));
    w.putU8(arch);
    w.putU32(vsPivot);
    w.putU64(isaMask);
    w.putU32(static_cast<std::uint32_t>(words.size()));
    for (const std::uint64_t word : words)
        w.putU64(word);
    return w.take();
}

Result<EvalCoderRequest>
EvalCoderRequest::decode(std::string_view payload)
{
    ByteReader r(payload);
    EvalCoderRequest req;
    std::uint8_t rawCoder = 0;
    std::uint32_t count = 0;
    if (!r.getU8(rawCoder) || !r.getU8(req.arch)
        || !r.getU32(req.vsPivot) || !r.getU64(req.isaMask)
        || !r.getU32(count)) {
        return truncatedPayload();
    }
    if (rawCoder > static_cast<std::uint8_t>(CoderKind::Isa)) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("unknown coder kind %u", rawCoder)};
    }
    if (req.arch > 3) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("architecture index %u out of range",
                               req.arch)};
    }
    if (req.vsPivot > 31) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("VS pivot %u out of range [0, 31]",
                               req.vsPivot)};
    }
    if (count > kMaxWords) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("%u words exceed the per-request cap of %u",
                               count, kMaxWords)};
    }
    if (!r.count(count, 8))
        return truncatedPayload(); // count outruns the payload: no alloc
    req.coder = static_cast<CoderKind>(rawCoder);
    req.words.resize(count);
    for (std::uint64_t &word : req.words) {
        if (!r.getU64(word))
            return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    return req;
}

std::string
EvalCoderResponse::encode() const
{
    ByteWriter w;
    w.putU64(totalBits);
    w.putU64(onesBefore);
    w.putU64(onesAfter);
    w.putU32(static_cast<std::uint32_t>(encoded.size()));
    for (const std::uint64_t word : encoded)
        w.putU64(word);
    return w.take();
}

Result<EvalCoderResponse>
EvalCoderResponse::decode(std::string_view payload)
{
    ByteReader r(payload);
    EvalCoderResponse resp;
    std::uint32_t count = 0;
    if (!r.getU64(resp.totalBits) || !r.getU64(resp.onesBefore)
        || !r.getU64(resp.onesAfter) || !r.getU32(count)) {
        return truncatedPayload();
    }
    if (count > kMaxWords)
        return corrupt("encoded word count exceeds cap");
    if (!r.count(count, 8))
        return truncatedPayload(); // count outruns the payload: no alloc
    resp.encoded.resize(count);
    for (std::uint64_t &word : resp.encoded) {
        if (!r.getU64(word))
            return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    return resp;
}

std::string
BitDensityRequest::encode() const
{
    ByteWriter w;
    putAppQuery(w, query);
    return w.take();
}

Result<BitDensityRequest>
BitDensityRequest::decode(std::string_view payload)
{
    ByteReader r(payload);
    BitDensityRequest req;
    if (!getAppQuery(r, req.query))
        return truncatedPayload();
    if (!r.exhausted())
        return trailingGarbage();
    if (auto valid = validateAppQuery(req.query); !valid.ok())
        return valid.error();
    return req;
}

std::string
BitDensityResponse::encode() const
{
    ByteWriter w;
    w.putU64(cycles);
    w.putU64(instructions);
    w.putU32(static_cast<std::uint32_t>(units.size()));
    for (const Unit &u : units) {
        w.putU8(u.unit);
        for (const double d : u.density)
            w.putF64(d);
    }
    for (const double d : nocDensity)
        w.putF64(d);
    return w.take();
}

Result<BitDensityResponse>
BitDensityResponse::decode(std::string_view payload)
{
    ByteReader r(payload);
    BitDensityResponse resp;
    std::uint32_t count = 0;
    if (!r.getU64(resp.cycles) || !r.getU64(resp.instructions)
        || !r.getU32(count)) {
        return truncatedPayload();
    }
    if (count > 64)
        return corrupt("unit count exceeds cap");
    resp.units.resize(count);
    for (Unit &u : resp.units) {
        if (!r.getU8(u.unit))
            return truncatedPayload();
        for (double &d : u.density) {
            if (!r.getF64(d))
                return truncatedPayload();
        }
    }
    for (double &d : resp.nocDensity) {
        if (!r.getF64(d))
            return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    return resp;
}

std::string
ChipEnergyRequest::encode() const
{
    ByteWriter w;
    putAppQuery(w, query);
    w.putU8(node);
    w.putU8(pstate);
    w.putU8(cell);
    w.putU8(ecc);
    w.putU32(cellsBitline);
    return w.take();
}

Result<ChipEnergyRequest>
ChipEnergyRequest::decode(std::string_view payload)
{
    ByteReader r(payload);
    ChipEnergyRequest req;
    if (!getAppQuery(r, req.query) || !r.getU8(req.node)
        || !r.getU8(req.pstate) || !r.getU8(req.cell)
        || !r.getU8(req.ecc) || !r.getU32(req.cellsBitline)) {
        return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    if (auto valid = validateAppQuery(req.query); !valid.ok())
        return valid.error();
    if (req.node > 1) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("node index %u out of range", req.node)};
    }
    if (req.pstate > 2) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("pstate index %u out of range", req.pstate)};
    }
    if (req.cell > 4) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("cell index %u out of range", req.cell)};
    }
    if (req.cellsBitline < 1 || req.cellsBitline > 8192) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("cells per bitline %u out of range "
                               "[1, 8192]",
                               req.cellsBitline)};
    }
    return req;
}

std::string
ChipEnergyResponse::encode() const
{
    ByteWriter w;
    w.putU64(cycles);
    w.putU64(instructions);
    for (const double e : chipEnergy)
        w.putF64(e);
    for (const double e : bvfUnitsEnergy)
        w.putF64(e);
    return w.take();
}

Result<ChipEnergyResponse>
ChipEnergyResponse::decode(std::string_view payload)
{
    ByteReader r(payload);
    ChipEnergyResponse resp;
    if (!r.getU64(resp.cycles) || !r.getU64(resp.instructions))
        return truncatedPayload();
    for (double &e : resp.chipEnergy) {
        if (!r.getF64(e))
            return truncatedPayload();
    }
    for (double &e : resp.bvfUnitsEnergy) {
        if (!r.getF64(e))
            return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    return resp;
}

std::string
StaticQueryRequest::encode() const
{
    ByteWriter w;
    putAppQuery(w, query);
    return w.take();
}

Result<StaticQueryRequest>
StaticQueryRequest::decode(std::string_view payload)
{
    ByteReader r(payload);
    StaticQueryRequest req;
    if (!getAppQuery(r, req.query))
        return truncatedPayload();
    if (!r.exhausted())
        return trailingGarbage();
    if (auto valid = validateAppQuery(req.query); !valid.ok())
        return valid.error();
    return req;
}

namespace
{

void
putBound(ByteWriter &w, const StaticQueryResponse::Bound &b)
{
    w.putF64(b.lo);
    w.putF64(b.hi);
    w.putU8(b.any);
}

bool
getBound(ByteReader &r, StaticQueryResponse::Bound &b)
{
    return r.getF64(b.lo) && r.getF64(b.hi) && r.getU8(b.any);
}

} // namespace

std::string
StaticQueryResponse::encode() const
{
    ByteWriter w;
    w.putU8(bestStatic);
    w.putU32(static_cast<std::uint32_t>(units.size()));
    for (const Unit &u : units) {
        w.putU8(u.unit);
        for (const Bound &b : u.bounds)
            putBound(w, b);
    }
    for (const Bound &b : noc)
        putBound(w, b);
    return w.take();
}

Result<StaticQueryResponse>
StaticQueryResponse::decode(std::string_view payload)
{
    ByteReader r(payload);
    StaticQueryResponse resp;
    std::uint32_t count = 0;
    if (!r.getU8(resp.bestStatic) || !r.getU32(count))
        return truncatedPayload();
    if (count > 64)
        return corrupt("unit count exceeds cap");
    resp.units.resize(count);
    for (Unit &u : resp.units) {
        if (!r.getU8(u.unit))
            return truncatedPayload();
        for (Bound &b : u.bounds) {
            if (!getBound(r, b))
                return truncatedPayload();
        }
    }
    for (Bound &b : resp.noc) {
        if (!getBound(r, b))
            return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    return resp;
}

std::string
StaticAdviceRequest::encode() const
{
    ByteWriter w;
    putAppQuery(w, query);
    return w.take();
}

Result<StaticAdviceRequest>
StaticAdviceRequest::decode(std::string_view payload)
{
    ByteReader r(payload);
    StaticAdviceRequest req;
    if (!getAppQuery(r, req.query))
        return truncatedPayload();
    if (!r.exhausted())
        return trailingGarbage();
    if (auto valid = validateAppQuery(req.query); !valid.ok())
        return valid.error();
    return req;
}

std::string
StaticAdviceResponse::encode() const
{
    ByteWriter w;
    w.putU8(bestPivot);
    w.putF64(provenSlack);
    w.putU32(affineSources);
    w.putU32(totalSources);
    for (const Bound &b : pivotBounds)
        putBound(w, b);
    for (const double s : pivotScores)
        w.putF64(s);
    w.putU64(defaultMask);
    w.putU64(specializedMask);
    putBound(w, defaultDensity);
    putBound(w, specializedDensity);
    w.putU8(bestScenario);
    w.putU32(static_cast<std::uint32_t>(unitPicks.size()));
    for (const UnitPick &u : unitPicks) {
        w.putU8(u.unit);
        w.putU8(u.pick);
        w.putU8(u.proven);
        putBound(w, u.nv);
        putBound(w, u.vs);
    }
    return w.take();
}

Result<StaticAdviceResponse>
StaticAdviceResponse::decode(std::string_view payload)
{
    ByteReader r(payload);
    StaticAdviceResponse resp;
    if (!r.getU8(resp.bestPivot) || !r.getF64(resp.provenSlack)
        || !r.getU32(resp.affineSources) || !r.getU32(resp.totalSources))
        return truncatedPayload();
    if (resp.bestPivot >= 32)
        return corrupt("pivot lane out of range");
    for (Bound &b : resp.pivotBounds) {
        if (!getBound(r, b))
            return truncatedPayload();
    }
    for (double &s : resp.pivotScores) {
        if (!r.getF64(s))
            return truncatedPayload();
    }
    if (!r.getU64(resp.defaultMask) || !r.getU64(resp.specializedMask)
        || !getBound(r, resp.defaultDensity)
        || !getBound(r, resp.specializedDensity)
        || !r.getU8(resp.bestScenario))
        return truncatedPayload();
    std::uint32_t count = 0;
    if (!r.getU32(count))
        return truncatedPayload();
    if (count > 64)
        return corrupt("unit pick count exceeds cap");
    resp.unitPicks.resize(count);
    for (UnitPick &u : resp.unitPicks) {
        if (!r.getU8(u.unit) || !r.getU8(u.pick) || !r.getU8(u.proven)
            || !getBound(r, u.nv) || !getBound(r, u.vs))
            return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    return resp;
}

std::string
SubmitKernelRequest::encode() const
{
    ByteWriter w;
    w.putString(bytecode, kMaxBlob);
    // Optional tail; omitted when clear so default-shaped requests are
    // byte-identical to the pre-optimizer wire format.
    if (optimize)
        w.putU8(optimize);
    return w.take();
}

Result<SubmitKernelRequest>
SubmitKernelRequest::decode(std::string_view payload)
{
    ByteReader r(payload);
    SubmitKernelRequest req;
    if (!r.getString(req.bytecode, kMaxPayload))
        return truncatedPayload();
    if (!r.exhausted()) {
        if (!r.getU8(req.optimize))
            return truncatedPayload();
        if (req.optimize > 1)
            return corrupt("optimize flag is not boolean");
        if (!r.exhausted())
            return trailingGarbage();
    }
    if (req.bytecode.empty())
        return Error{ErrorCode::InvalidArgument, "empty kernel bytecode"};
    return req;
}

std::string
SubmitKernelResponse::encode() const
{
    ByteWriter w;
    w.putU8(admitted);
    w.putString(digest, kMaxString);
    w.putU64(tripBound);
    w.putU32(globalLo);
    w.putU32(globalHi);
    w.putU32(static_cast<std::uint32_t>(rejections.size()));
    for (const WireRejection &rej : rejections) {
        w.putU8(rej.reason);
        w.putU32(rej.pc);
        w.putString(rej.message, kMaxString);
    }
    // Optional optimize-on-submit tail (mirrors the request flag).
    if (optimizeRequested) {
        w.putU8(optimized);
        w.putString(optimizedDigest, kMaxString);
    }
    return w.take();
}

Result<SubmitKernelResponse>
SubmitKernelResponse::decode(std::string_view payload)
{
    ByteReader r(payload);
    SubmitKernelResponse resp;
    std::uint32_t count = 0;
    if (!r.getU8(resp.admitted)
        || !r.getString(resp.digest, kMaxDigestBytes)
        || !r.getU64(resp.tripBound) || !r.getU32(resp.globalLo)
        || !r.getU32(resp.globalHi) || !r.getU32(count)) {
        return truncatedPayload();
    }
    if (resp.admitted > 1)
        return corrupt("admitted flag is not boolean");
    if (count > kMaxWireRejections)
        return corrupt("rejection count exceeds cap");
    // Every rejection record needs at least its fixed 9-byte prefix;
    // a count that outruns the payload must not drive the alloc.
    if (!r.count(count, 9))
        return truncatedPayload();
    resp.rejections.resize(count);
    for (WireRejection &rej : resp.rejections) {
        if (!r.getU8(rej.reason) || !r.getU32(rej.pc)
            || !r.getString(rej.message, kMaxString)) {
            return truncatedPayload();
        }
        if (rej.reason >= analysis::kNumRejectReasons) {
            return Error{ErrorCode::InvalidArgument,
                         strFormat("unknown rejection reason %u",
                                   rej.reason)};
        }
    }
    if (!r.exhausted()) {
        resp.optimizeRequested = 1;
        if (!r.getU8(resp.optimized)
            || !r.getString(resp.optimizedDigest, kMaxDigestBytes))
            return truncatedPayload();
        if (!r.exhausted())
            return trailingGarbage();
        if (resp.optimized > 1)
            return corrupt("optimized flag is not boolean");
        if (resp.optimized && resp.optimizedDigest.empty())
            return corrupt("optimized response without a digest");
        if (!resp.optimized && !resp.optimizedDigest.empty())
            return corrupt("fallback response carries a digest");
        if (resp.optimized && !resp.admitted)
            return corrupt("optimized response without admission");
    }
    if (resp.admitted && !resp.rejections.empty())
        return corrupt("admitted response carries rejections");
    return resp;
}

std::string
EvalSubmittedRequest::encode() const
{
    ByteWriter w;
    w.putString(digest, kMaxString);
    w.putU8(arch);
    w.putU8(sched);
    w.putU32(vsPivot);
    w.putU8(dynamicIsa);
    w.putU8(node);
    w.putU8(pstate);
    w.putU8(cell);
    w.putU8(ecc);
    w.putU32(cellsBitline);
    return w.take();
}

Result<EvalSubmittedRequest>
EvalSubmittedRequest::decode(std::string_view payload)
{
    ByteReader r(payload);
    EvalSubmittedRequest req;
    if (!r.getString(req.digest, kMaxDigestBytes) || !r.getU8(req.arch)
        || !r.getU8(req.sched) || !r.getU32(req.vsPivot)
        || !r.getU8(req.dynamicIsa) || !r.getU8(req.node)
        || !r.getU8(req.pstate) || !r.getU8(req.cell)
        || !r.getU8(req.ecc) || !r.getU32(req.cellsBitline)) {
        return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    if (req.digest.empty())
        return Error{ErrorCode::InvalidArgument, "empty kernel digest"};
    if (req.arch > 3) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("architecture index %u out of range",
                               req.arch)};
    }
    if (req.sched > 2) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("scheduler index %u out of range",
                               req.sched)};
    }
    if (req.vsPivot > 31) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("VS pivot %u out of range [0, 31]",
                               req.vsPivot)};
    }
    if (req.dynamicIsa > 1 || req.ecc > 1) {
        return Error{ErrorCode::InvalidArgument,
                     "boolean flag is not 0 or 1"};
    }
    if (req.node > 1) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("technology node index %u out of range",
                               req.node)};
    }
    if (req.pstate > 2) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("P-state index %u out of range",
                               req.pstate)};
    }
    if (req.cell > 4) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("cell kind index %u out of range",
                               req.cell)};
    }
    if (req.cellsBitline == 0 || req.cellsBitline > 1024) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("cells per bitline %u out of range "
                               "[1, 1024]",
                               req.cellsBitline)};
    }
    return req;
}

std::string
EvalSubmittedResponse::encode() const
{
    ByteWriter w;
    w.putU64(cycles);
    w.putU64(instructions);
    w.putU64(maxWarpIssue);
    w.putU64(checkedAccesses);
    for (const double d : chipEnergy)
        w.putF64(d);
    for (const double d : bvfUnitsEnergy)
        w.putF64(d);
    return w.take();
}

Result<EvalSubmittedResponse>
EvalSubmittedResponse::decode(std::string_view payload)
{
    ByteReader r(payload);
    EvalSubmittedResponse resp;
    if (!r.getU64(resp.cycles) || !r.getU64(resp.instructions)
        || !r.getU64(resp.maxWarpIssue)
        || !r.getU64(resp.checkedAccesses)) {
        return truncatedPayload();
    }
    for (double &d : resp.chipEnergy) {
        if (!r.getF64(d))
            return truncatedPayload();
    }
    for (double &d : resp.bvfUnitsEnergy) {
        if (!r.getF64(d))
            return truncatedPayload();
    }
    if (!r.exhausted())
        return trailingGarbage();
    return resp;
}

std::string
WireError::encode() const
{
    ByteWriter w;
    w.putU8(code);
    w.putString(message, kMaxString);
    return w.take();
}

Result<WireError>
WireError::decode(std::string_view payload)
{
    ByteReader r(payload);
    WireError e;
    if (!r.getU8(e.code) || !r.getString(e.message, kMaxString))
        return truncatedPayload();
    if (!r.exhausted())
        return trailingGarbage();
    return e;
}

} // namespace bvf::server
