/**
 * @file
 * Trace serialization implementation.
 */

#include "core/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "common/bytes.hh"
#include "common/logging.hh"

namespace bvf::core
{

namespace
{

constexpr std::string_view magic = "BVFT";
constexpr std::string_view batchMagic = "BTCH";
constexpr std::string_view footerMagic = "BVFE";
constexpr std::uint32_t version = 2;
constexpr std::uint32_t legacyVersion = 1;

/** Flush threshold: one CRC per ~64KiB of records. */
constexpr std::size_t batchFlushBytes = 64 * 1024;

/** Largest plausible batch payload; a longer length field is damage. */
constexpr std::uint32_t maxBatchBytes = 1u << 30;

enum class RecordKind : std::uint8_t
{
    Access = 1,
    Fetch = 2,
    Noc = 3,
};

/** Record header bytes: 20 bytes of fields + 4 zero padding bytes. */
constexpr std::size_t recordHeaderBytes = 24;

/** Batch header bytes after the marker: length, record count, CRC. */
constexpr std::size_t batchHeaderBytes = 12;

/** Footer bytes after the marker: record total and its CRC. */
constexpr std::size_t footerBytes = 12;

/**
 * The fixed record prefix. Version 1 wrote this as a raw host struct,
 * so the layout keeps that struct's 4 trailing padding bytes: written
 * as zeros, ignored on read.
 */
struct RecordHeader
{
    std::uint8_t kind = 0;
    std::uint8_t a = 0; //!< unit, or channel low byte
    std::uint8_t b = 0; //!< access type, or channel high byte
    std::uint8_t flags = 0;
    std::uint32_t activeMask = 0;
    std::uint64_t cycle = 0;
    std::uint32_t count = 0;
};

bool
getRecordHeader(ByteReader &in, RecordHeader &h)
{
    if (in.remaining() < recordHeaderBytes)
        return false;
    in.getU8(h.kind);
    in.getU8(h.a);
    in.getU8(h.b);
    in.getU8(h.flags);
    in.getU32(h.activeMask);
    in.getU64(h.cycle);
    in.getU32(h.count);
    return in.skip(4); // padding
}

/** Payload bytes per element of a record of kind @p kind. */
std::size_t
elementBytes(std::uint8_t kind)
{
    return static_cast<RecordKind>(kind) == RecordKind::Fetch
               ? sizeof(Word64)
               : sizeof(Word);
}

/**
 * Append exactly @p n bytes of @p in to @p out. The buffer grows only
 * as the stream delivers bytes, so a hostile length field can never
 * drive an allocation beyond the bytes actually present. Returns false
 * on a short read, with what did arrive appended.
 */
bool
readBytes(std::istream &in, std::string &out, std::size_t n)
{
    constexpr std::size_t chunk = 64 * 1024;
    while (n > 0) {
        const std::size_t at = out.size();
        const std::size_t step = std::min(n, chunk);
        out.resize(at + step);
        in.read(out.data() + at, static_cast<std::streamsize>(step));
        const auto got = static_cast<std::size_t>(in.gcount());
        if (got != step) {
            out.resize(at + got);
            return false;
        }
        n -= step;
    }
    return true;
}

/** Read exactly @p n bytes of @p in into @p out (replacing it). */
bool
readExact(std::istream &in, std::string &out, std::size_t n)
{
    out.clear();
    return readBytes(in, out, n);
}

/** A record: its header, then @p elems as little-endian words. */
template <typename T>
void
putRecord(ByteWriter &out, const RecordHeader &h, std::span<const T> elems)
{
    out.putU8(h.kind);
    out.putU8(h.a);
    out.putU8(h.b);
    out.putU8(h.flags);
    out.putU32(h.activeMask);
    out.putU64(h.cycle);
    out.putU32(h.count);
    out.putU32(0); // padding
    for (const T v : elems) {
        if constexpr (sizeof(T) == sizeof(Word64))
            out.putU64(v);
        else
            out.putU32(v);
    }
}

/**
 * Read @p n little-endian elements into @p out. The claimed count is
 * checked against the bytes present before anything is allocated.
 */
template <typename T>
bool
getElements(ByteReader &in, std::uint32_t n, std::vector<T> &out)
{
    if (!in.count(n, sizeof(T)))
        return false;
    out.resize(n);
    for (T &v : out) {
        if constexpr (sizeof(T) == sizeof(Word64))
            in.getU64(v);
        else
            in.getU32(v);
    }
    return true;
}

/**
 * Decode one record from @p reader and deliver it to @p sink.
 * Returns an error description on malformed input, empty on success.
 */
std::string
dispatchRecord(ByteReader &reader, sram::AccessSink &sink,
               std::vector<Word> &words, std::vector<Word64> &instrs)
{
    RecordHeader h;
    if (!getRecordHeader(reader, h))
        return "truncated record header";
    switch (static_cast<RecordKind>(h.kind)) {
      case RecordKind::Access:
        if (!getElements(reader, h.count, words))
            return "truncated access record";
        sink.onAccess(static_cast<coder::UnitId>(h.a),
                      static_cast<sram::AccessType>(h.b), words,
                      h.activeMask, h.cycle);
        return {};
      case RecordKind::Fetch:
        if (!getElements(reader, h.count, instrs))
            return "truncated fetch record";
        sink.onFetch(static_cast<coder::UnitId>(h.a),
                     static_cast<sram::AccessType>(h.b), instrs,
                     h.cycle);
        return {};
      case RecordKind::Noc: {
        if (!getElements(reader, h.count, words))
            return "truncated NoC record";
        const int channel =
            static_cast<int>(h.a) | (static_cast<int>(h.b) << 8);
        sink.onNocPacket(channel, words, h.flags != 0, h.cycle);
        return {};
      }
      default:
        return strFormat("corrupt record kind %u", h.kind);
    }
}

/**
 * Close out a replay that hit damage: salvage keeps the prefix,
 * otherwise the damage becomes the caller's error.
 */
Result<ReplaySummary>
failOrSalvage(ReplaySummary summary, const ReplayOptions &opts,
              ErrorCode code, std::string what)
{
    if (!opts.salvage)
        return Error{code, std::move(what)};
    summary.salvaged = true;
    summary.warning = std::move(what);
    return summary;
}

/** Version-1 stream: raw records, no batching, no checksums. */
Result<ReplaySummary>
replayLegacy(std::istream &in, sram::AccessSink &sink,
             const ReplayOptions &opts)
{
    ReplaySummary summary;
    std::string staged;
    std::vector<Word> words;
    std::vector<Word64> instrs;
    for (;;) {
        if (!readExact(in, staged, recordHeaderBytes)) {
            if (in.eof())
                return summary; // clean EOF at a record boundary
            return failOrSalvage(summary, opts, ErrorCode::Io,
                                 "stream failure mid-record");
        }
        // Stage the payload behind its header and re-dispatch through
        // the bounds-checked path. v1 has no length field: the header
        // count drives the payload length, and the staged record grows
        // only as the stream delivers bytes.
        RecordHeader h;
        ByteReader header(staged);
        getRecordHeader(header, h);
        if (!readBytes(in, staged, h.count * elementBytes(h.kind))) {
            return failOrSalvage(
                summary, opts, ErrorCode::Truncated,
                strFormat("record %llu truncated",
                          static_cast<unsigned long long>(
                              summary.records)));
        }
        ByteReader reader(staged);
        const std::string err =
            dispatchRecord(reader, sink, words, instrs);
        if (!err.empty()) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("record %llu: %s",
                          static_cast<unsigned long long>(
                              summary.records),
                          err.c_str()));
        }
        ++summary.records;
    }
}

void
writeBytes(std::ostream &out, std::string_view bytes)
{
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TraceWriter::TraceWriter(std::ostream &out) : out_(out)
{
    ByteWriter header;
    header.putBytes(magic);
    header.putU32(version);
    writeBytes(out_, header.str());
    if (!out_)
        ioError_ = true;
    batch_.reserve(batchFlushBytes + 4096);
}

TraceWriter::~TraceWriter()
{
    if (finished_)
        return;
    const auto result = finish();
    if (!result.ok())
        warn("trace writer: %s", result.error().describe().c_str());
}

void
TraceWriter::endRecord()
{
    ++batchRecords_;
    ++records_;
    if (batch_.size() >= batchFlushBytes)
        flushBatch();
}

void
TraceWriter::flushBatch()
{
    if (batch_.empty())
        return;
    const std::string &payload = batch_.str();
    ByteWriter header;
    header.putBytes(batchMagic);
    header.putU32(static_cast<std::uint32_t>(payload.size()));
    header.putU32(batchRecords_);
    header.putU32(crc32(payload.data(), payload.size()));
    writeBytes(out_, header.str());
    writeBytes(out_, payload);
    if (!out_)
        ioError_ = true;
    batch_.clear();
    batchRecords_ = 0;
}

Result<std::uint64_t>
TraceWriter::finish()
{
    if (!finished_) {
        flushBatch();
        ByteWriter total;
        total.putU64(records_);
        ByteWriter footer;
        footer.putBytes(footerMagic);
        footer.putBytes(total.str());
        footer.putU32(crc32(total.str().data(), total.size()));
        writeBytes(out_, footer.str());
        out_.flush();
        if (!out_)
            ioError_ = true;
        finished_ = true;
    }
    if (ioError_) {
        return Error{ErrorCode::Io,
                     "trace stream write failed; output is incomplete"};
    }
    return records_;
}

void
TraceWriter::onAccess(coder::UnitId unit, sram::AccessType type,
                      std::span<const Word> block,
                      std::uint32_t activeMask, std::uint64_t cycle)
{
    RecordHeader h;
    h.kind = static_cast<std::uint8_t>(RecordKind::Access);
    h.a = static_cast<std::uint8_t>(unit);
    h.b = static_cast<std::uint8_t>(type);
    h.activeMask = activeMask;
    h.cycle = cycle;
    h.count = static_cast<std::uint32_t>(block.size());
    putRecord(batch_, h, block);
    endRecord();
}

void
TraceWriter::onFetch(coder::UnitId unit, sram::AccessType type,
                     std::span<const Word64> instrs, std::uint64_t cycle)
{
    RecordHeader h;
    h.kind = static_cast<std::uint8_t>(RecordKind::Fetch);
    h.a = static_cast<std::uint8_t>(unit);
    h.b = static_cast<std::uint8_t>(type);
    h.cycle = cycle;
    h.count = static_cast<std::uint32_t>(instrs.size());
    putRecord(batch_, h, instrs);
    endRecord();
}

void
TraceWriter::onNocPacket(int channel, std::span<const Word> payload,
                         bool instrStream, std::uint64_t cycle)
{
    RecordHeader h;
    h.kind = static_cast<std::uint8_t>(RecordKind::Noc);
    h.a = static_cast<std::uint8_t>(channel & 0xff);
    h.b = static_cast<std::uint8_t>((channel >> 8) & 0xff);
    h.flags = instrStream ? 1 : 0;
    h.cycle = cycle;
    h.count = static_cast<std::uint32_t>(payload.size());
    putRecord(batch_, h, payload);
    endRecord();
}

Result<ReplaySummary>
replayTrace(std::istream &in, sram::AccessSink &sink,
            const ReplayOptions &opts)
{
    std::string buf;
    if (!readExact(in, buf, magic.size()) || buf != magic)
        return Error{ErrorCode::Corrupt, "not a BVF trace stream"};
    std::uint32_t v = 0;
    if (!readExact(in, buf, 4))
        return Error{ErrorCode::Truncated, "trace ends inside header"};
    ByteReader(buf).getU32(v);
    if (v == legacyVersion)
        return replayLegacy(in, sink, opts);
    if (v != version) {
        return Error{ErrorCode::Unsupported,
                     strFormat("unsupported trace version %u", v)};
    }

    ReplaySummary summary;
    std::string payload;
    std::vector<Word> words;
    std::vector<Word64> instrs;
    for (;;) {
        if (!readExact(in, buf, batchMagic.size())) {
            if (buf.empty() && in.eof()) {
                // v2 streams must end with a footer: a clean EOF here
                // means trailing batches (or the whole tail) were lost.
                return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                     "trace ends without footer");
            }
            return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                 "trace ends inside a section marker");
        }

        if (buf == footerMagic) {
            if (!readExact(in, buf, footerBytes)) {
                return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                     "trace ends inside footer");
            }
            ByteReader footer(buf);
            std::uint64_t total = 0;
            std::uint32_t crc = 0;
            footer.getU64(total);
            footer.getU32(crc);
            if (crc32(buf.data(), sizeof(total)) != crc) {
                return failOrSalvage(summary, opts, ErrorCode::Corrupt,
                                     "footer checksum mismatch");
            }
            if (total != summary.records) {
                return failOrSalvage(
                    summary, opts, ErrorCode::Truncated,
                    strFormat("footer records %llu but replayed %llu: "
                              "batches are missing",
                              static_cast<unsigned long long>(total),
                              static_cast<unsigned long long>(
                                  summary.records)));
            }
            summary.sawFooter = true;
            return summary;
        }

        if (buf != batchMagic) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("corrupt section marker after batch %llu",
                          static_cast<unsigned long long>(
                              summary.batches)));
        }

        if (!readExact(in, buf, batchHeaderBytes)) {
            return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                 "trace ends inside a batch header");
        }
        ByteReader header(buf);
        std::uint32_t bytes = 0, record_count = 0, crc = 0;
        header.getU32(bytes);
        header.getU32(record_count);
        header.getU32(crc);
        if (bytes == 0 || bytes > maxBatchBytes) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("implausible batch size %u", bytes));
        }
        if (!readExact(in, payload, bytes)) {
            return failOrSalvage(
                summary, opts, ErrorCode::Truncated,
                strFormat("batch %llu truncated",
                          static_cast<unsigned long long>(
                              summary.batches)));
        }
        if (crc32(payload.data(), payload.size()) != crc) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("batch %llu checksum mismatch",
                          static_cast<unsigned long long>(
                              summary.batches)));
        }

        // The batch is intact; only now may records reach the sink.
        ByteReader reader(payload);
        std::uint32_t replayed = 0;
        while (!reader.exhausted()) {
            const std::string err =
                dispatchRecord(reader, sink, words, instrs);
            if (!err.empty()) {
                return failOrSalvage(
                    summary, opts, ErrorCode::Corrupt,
                    strFormat("batch %llu record %u: %s",
                              static_cast<unsigned long long>(
                                  summary.batches),
                              replayed, err.c_str()));
            }
            ++replayed;
            ++summary.records;
        }
        if (replayed != record_count) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("batch %llu holds %u records, header claims "
                          "%u",
                          static_cast<unsigned long long>(
                              summary.batches),
                          replayed, record_count));
        }
        ++summary.batches;
    }
}

} // namespace bvf::core
