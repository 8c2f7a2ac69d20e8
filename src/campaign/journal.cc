/**
 * @file
 * Campaign journal serialization and crash-safe persistence.
 */

#include "campaign/journal.hh"

#include "common/atomic_file.hh"
#include "common/bytes.hh"
#include "common/logging.hh"

namespace bvf::campaign
{

namespace
{

constexpr std::string_view journalMagic = "BVFJ";
constexpr std::string_view recordMagic = "JREC";
constexpr std::uint32_t journalVersion = 1;

/** Upper bound on a record payload a reader will allocate. */
constexpr std::uint32_t maxRecordBytes = 1u << 20;

/** One record payload, both ways (common/bytes.hh layouts). */
template <typename Io>
void
layout(Io &io, AppResult &r)
{
    io(r.status, r.attempts);
    io.u8(r.error.code);
    io(r.cycles, r.instructions);
    io.check(r.status <= AppStatus::Quarantined, ErrorCode::Corrupt,
             "unknown app status");
    io(r.chipEnergy, r.bvfUnitsEnergy);
    io.str(r.name, maxRecordBytes);
    io.str(r.abbr, maxRecordBytes);
    io.str(r.error.message, maxRecordBytes);
}

} // namespace

std::string
appStatusName(AppStatus status)
{
    switch (status) {
      case AppStatus::Completed:
        return "ok";
      case AppStatus::Quarantined:
        return "quarantined";
    }
    return "?";
}

std::string
serializeJournal(std::uint32_t configCrc,
                 std::span<const AppResult> results)
{
    ByteWriter out;
    out.putBytes(journalMagic);
    out.putU32(journalVersion);
    out.putU32(configCrc);
    for (const AppResult &r : results) {
        LayoutWriter record;
        layout(record, const_cast<AppResult &>(r));
        const std::string payload = record.take();
        out.putBytes(recordMagic);
        out.putU32(static_cast<std::uint32_t>(payload.size()));
        out.putU32(crc32(payload.data(), payload.size()));
        out.putBytes(payload);
    }
    return out.take();
}

Result<JournalLoad>
parseJournal(std::string_view bytes, std::uint32_t expectConfigCrc)
{
    ByteReader in(bytes);
    std::string_view magic;
    std::uint32_t version = 0, configCrc = 0;
    if (!in.getBytes(magic, journalMagic.size()) || magic != journalMagic
        || !in.getU32(version) || !in.getU32(configCrc)) {
        return Error{ErrorCode::Corrupt, "not a BVF campaign journal"};
    }
    if (version != journalVersion) {
        return Error{ErrorCode::Unsupported,
                     strFormat("unsupported journal version %u", version)};
    }
    if (configCrc != expectConfigCrc) {
        return Error{
            ErrorCode::InvalidArgument,
            strFormat("journal was written by a different campaign "
                      "configuration (digest %08x, expected %08x); "
                      "refusing to mix results",
                      configCrc, expectConfigCrc)};
    }

    JournalLoad load;
    auto salvage = [&](std::string what) {
        load.salvaged = true;
        load.warning = std::move(what);
        return load;
    };

    while (!in.exhausted()) {
        std::string_view marker, payload;
        std::uint32_t payloadBytes = 0, crc = 0;
        if (in.remaining() < recordMagic.size() + 8) {
            return salvage(strFormat(
                "journal ends inside record %zu's frame; dropped the "
                "in-flight tail", load.results.size()));
        }
        in.getBytes(marker, recordMagic.size());
        if (marker != recordMagic) {
            return salvage(strFormat("record %zu frame marker is corrupt",
                                     load.results.size()));
        }
        in.getU32(payloadBytes);
        in.getU32(crc);
        if (payloadBytes > maxRecordBytes) {
            return salvage(strFormat("record %zu claims implausible size "
                                     "%u", load.results.size(),
                                     payloadBytes));
        }
        if (!in.getBytes(payload, payloadBytes)) {
            return salvage(strFormat("record %zu is truncated",
                                     load.results.size()));
        }
        if (crc32(payload.data(), payload.size()) != crc) {
            return salvage(strFormat("record %zu checksum mismatch",
                                     load.results.size()));
        }
        AppResult r;
        LayoutReader record(payload);
        layout(record, r);
        record.end();
        if (!record.ok()) {
            return salvage(strFormat("record %zu payload is malformed",
                                     load.results.size()));
        }
        load.results.push_back(std::move(r));
    }
    return load;
}

CampaignJournal::CampaignJournal(std::string path,
                                 std::uint32_t configCrc)
    : path_(std::move(path)), configCrc_(configCrc)
{
}

Result<JournalLoad>
CampaignJournal::load() const
{
    auto bytes = readFileBytes(path_);
    if (!bytes.ok())
        return bytes.error();
    return parseJournal(bytes.value(), configCrc_);
}

void
CampaignJournal::adopt(std::vector<AppResult> results)
{
    records_ = std::move(results);
}

Result<void>
CampaignJournal::append(const AppResult &result)
{
    records_.push_back(result);
    const std::string image = serializeJournal(configCrc_, records_);
    const auto written = atomicWriteFile(path_, image);
    if (!written.ok()) {
        // Persistence failing mid-campaign must surface: a journal the
        // operator believes in but that silently stopped updating is
        // worse than no journal.
        records_.pop_back();
        return written.error();
    }
    debug("journal: %zu record(s) -> %s", records_.size(), path_.c_str());
    return {};
}

} // namespace bvf::campaign
