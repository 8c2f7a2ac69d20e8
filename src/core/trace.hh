/**
 * @file
 * Access-trace capture and replay.
 *
 * The paper's methodology dumps the access trace of every BVF unit from
 * GPGPU-Sim (tens of GB per application) and parses it offline. This
 * module provides the same workflow for our simulator: a TraceWriter
 * sink serializes every unit access, fetch and NoC packet to a compact
 * binary stream; replayTrace() feeds a recorded stream back into any
 * AccessSink (e.g. an EnergyAccountant), producing statistics identical
 * to online accounting. A TeeSink allows doing both at once.
 *
 * Binary format (little-endian, versioned header), written with the
 * common/bytes.hh codec:
 *   "BVFT" u32_version(=2)
 *   batches: "BTCH" u32 payloadBytes, u32 recordCount,
 *            u32 crc32(payload), payloadBytes bytes of records
 *   footer:  "BVFE" u64 totalRecords, u32 crc32(u64 totalRecords)
 *   record:  u8 kind, u8 unit/channelLo, u8 type/channelHi, u8 flags,
 *            u32 activeMask, u64 cycle, u32 count, 4 zero padding
 *            bytes, count x payload (u32 words for kind=Access/Noc,
 *            u64 for kind=Fetch)
 *
 * Earlier builds wrote the same layout in host byte order (the record
 * header as a raw struct, hence the padding); on little-endian hosts
 * those files are byte-identical to what this codec writes and reads.
 * Replay never allocates more than the bytes actually present: counts
 * and lengths are checked against, or grown with, the delivered input.
 *
 * Batches are CRC-checked *before* any contained record reaches the
 * sink, so corruption never feeds garbage into an accountant; the
 * footer's record count makes truncation at a batch boundary
 * detectable. Version-1 streams (no batching, no checksums) are still
 * replayable. Replay reports failures as structured Result errors --
 * and can salvage the longest valid prefix -- instead of killing the
 * process.
 */

#ifndef BVF_CORE_TRACE_HH
#define BVF_CORE_TRACE_HH

#include <iosfwd>
#include <string>

#include "common/bytes.hh"
#include "common/result.hh"
#include "sram/access_sink.hh"

namespace bvf::core
{

/** Forwards every event to two sinks (account online while dumping). */
class TeeSink : public sram::AccessSink
{
  public:
    TeeSink(sram::AccessSink &first, sram::AccessSink &second)
        : first_(first), second_(second)
    {}

    void
    onAccess(coder::UnitId unit, sram::AccessType type,
             std::span<const Word> block, std::uint32_t activeMask,
             std::uint64_t cycle) override
    {
        first_.onAccess(unit, type, block, activeMask, cycle);
        second_.onAccess(unit, type, block, activeMask, cycle);
    }

    void
    onFetch(coder::UnitId unit, sram::AccessType type,
            std::span<const Word64> instrs, std::uint64_t cycle) override
    {
        first_.onFetch(unit, type, instrs, cycle);
        second_.onFetch(unit, type, instrs, cycle);
    }

    void
    onNocPacket(int channel, std::span<const Word> payload,
                bool instrStream, std::uint64_t cycle) override
    {
        first_.onNocPacket(channel, payload, instrStream, cycle);
        second_.onNocPacket(channel, payload, instrStream, cycle);
    }

  private:
    sram::AccessSink &first_;
    sram::AccessSink &second_;
};

/**
 * Serializes the access stream to a binary ostream.
 *
 * Records are buffered into CRC-protected batches; call finish() (or
 * let the destructor do it) to flush the tail batch and the footer.
 * Stream failures are latched instead of silently producing a
 * truncated file: check ok()/finish() after writing.
 */
class TraceWriter : public sram::AccessSink
{
  public:
    /** @param out stream the trace is written to (kept by reference) */
    explicit TraceWriter(std::ostream &out);

    /** Flushes and finalizes if finish() was not called explicitly. */
    ~TraceWriter() override;

    void onAccess(coder::UnitId unit, sram::AccessType type,
                  std::span<const Word> block, std::uint32_t activeMask,
                  std::uint64_t cycle) override;
    void onFetch(coder::UnitId unit, sram::AccessType type,
                 std::span<const Word64> instrs,
                 std::uint64_t cycle) override;
    void onNocPacket(int channel, std::span<const Word> payload,
                     bool instrStream, std::uint64_t cycle) override;

    /**
     * Flush the pending batch and write the footer.
     *
     * @return the record count, or an Io error if any write (including
     *         earlier batch flushes) failed
     */
    Result<std::uint64_t> finish();

    /** Has every write so far reached the stream successfully? */
    bool ok() const { return !ioError_; }

    /** Records written so far. */
    std::uint64_t records() const { return records_; }

  private:
    void endRecord();
    void flushBatch();

    std::ostream &out_;
    ByteWriter batch_;                 //!< pending batch payload
    std::uint32_t batchRecords_ = 0;
    std::uint64_t records_ = 0;
    bool ioError_ = false;
    bool finished_ = false;
};

/** Replay behaviour on a damaged stream. */
struct ReplayOptions
{
    /**
     * Replay the longest valid prefix of a damaged trace instead of
     * failing: corruption or truncation ends the replay at the last
     * intact batch and is reported in ReplaySummary, not as an error.
     */
    bool salvage = false;
};

/** What a replay processed. */
struct ReplaySummary
{
    std::uint64_t records = 0; //!< records delivered to the sink
    std::uint64_t batches = 0; //!< batches verified and replayed
    bool sawFooter = false;    //!< stream ended with an intact footer
    bool salvaged = false;     //!< damage was skipped (salvage mode)
    std::string warning;       //!< what was wrong, when salvaged
};

/**
 * Replay a recorded trace into @p sink.
 *
 * Damaged streams produce a structured error (Corrupt/Truncated/
 * Unsupported); with opts.salvage the valid prefix is replayed and
 * the damage is described in the returned summary instead. No failure
 * mode terminates the process.
 */
Result<ReplaySummary> replayTrace(std::istream &in,
                                  sram::AccessSink &sink,
                                  const ReplayOptions &opts = {});

} // namespace bvf::core

#endif // BVF_CORE_TRACE_HH
