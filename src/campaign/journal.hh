/**
 * @file
 * Crash-safe campaign journal.
 *
 * A campaign over the 58-app suite runs for a long time; one killed
 * process must not throw away every completed application. The journal
 * persists one CRC32-framed record per finished application (completed
 * or quarantined) and is rewritten through the atomic
 * write-temp -> fsync -> rename path after every append, so a kill -9 at
 * any instant leaves a fully valid journal containing every application
 * that finished before the kill -- the in-flight one is the only loss.
 * Energies are stored as raw IEEE-754 bit patterns, so a resumed
 * campaign reports bit-identical numbers.
 *
 * Binary format (little-endian, written with the common/bytes.hh
 * codec; earlier builds wrote host byte order, byte-identical on
 * little-endian hosts):
 *   header: "BVFJ" u32 version(=1) u32 configCrc
 *   record: "JREC" u32 payloadBytes u32 crc32(payload) payload
 *
 * The configCrc is a digest of everything that determines the results
 * (machine, pricing, run options, application list); loading a journal
 * written under a different configuration fails loudly instead of
 * silently mixing incompatible results.
 */

#ifndef BVF_CAMPAIGN_JOURNAL_HH
#define BVF_CAMPAIGN_JOURNAL_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coder/scenario.hh"
#include "common/result.hh"

namespace bvf::campaign
{

/** Final disposition of one application within a campaign. */
enum class AppStatus : std::uint8_t
{
    Completed = 0,
    Quarantined = 1, //!< failed every attempt; excluded from results
};

/** Display name, e.g. "ok" / "quarantined". */
std::string appStatusName(AppStatus status);

/** Everything a campaign keeps per application. */
struct AppResult
{
    std::string name;
    std::string abbr;
    AppStatus status = AppStatus::Completed;
    std::uint32_t attempts = 1; //!< simulation attempts consumed
    Error error;                //!< last failure (quarantined only)
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    /** Per-scenario whole-chip energy [J] under the campaign pricing. */
    std::array<double, coder::numScenarios> chipEnergy{};
    /** Per-scenario BVF-units energy [J]. */
    std::array<double, coder::numScenarios> bvfUnitsEnergy{};

    /** Restored from a journal, not simulated this run (not persisted). */
    bool fromJournal = false;
};

/** What loading a journal produced. */
struct JournalLoad
{
    std::vector<AppResult> results;
    bool salvaged = false; //!< a damaged tail was dropped
    std::string warning;   //!< what was wrong, when salvaged
};

/** Serialize a full journal image (header + framed records). */
std::string serializeJournal(std::uint32_t configCrc,
                             std::span<const AppResult> results);

/**
 * Parse a journal image. A damaged or truncated tail -- e.g. disk
 * corruption of the final record -- is salvaged: every intact record
 * before the damage is returned and the damage is described in
 * JournalLoad::warning. Header damage or a configCrc mismatch is a
 * structured error.
 */
Result<JournalLoad> parseJournal(std::string_view bytes,
                                 std::uint32_t expectConfigCrc);

/**
 * The on-disk journal: an append-style API whose every mutation is an
 * atomic whole-file replace.
 */
class CampaignJournal
{
  public:
    CampaignJournal(std::string path, std::uint32_t configCrc);

    /** Load and verify the journal at path(). */
    Result<JournalLoad> load() const;

    /** Adopt previously loaded records as the persisted prefix. */
    void adopt(std::vector<AppResult> results);

    /** Append one record and atomically persist the whole journal. */
    Result<void> append(const AppResult &result);

    const std::string &path() const { return path_; }
    std::size_t records() const { return records_.size(); }

  private:
    std::string path_;
    std::uint32_t configCrc_;
    std::vector<AppResult> records_;
};

} // namespace bvf::campaign

#endif // BVF_CAMPAIGN_JOURNAL_HH
