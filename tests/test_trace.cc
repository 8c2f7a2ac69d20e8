/**
 * @file
 * Tests for trace capture/replay: offline parsing must reproduce online
 * accounting exactly (the paper's dump-then-parse methodology), and a
 * damaged dump must fail as a structured error -- or salvage exactly
 * its valid prefix -- rather than kill the process.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hh"
#include "core/accountant.hh"
#include "core/experiment.hh"
#include "core/trace.hh"
#include "gpu/gpu.hh"
#include "workload/kernel_builder.hh"

namespace bvf::core
{
namespace
{

using coder::Scenario;
using coder::UnitId;
using sram::AccessType;

std::map<UnitId, std::uint64_t>
caps()
{
    std::map<UnitId, std::uint64_t> m;
    for (const auto unit : coder::allUnits()) {
        if (unit != UnitId::Noc)
            m[unit] = 1 << 20;
    }
    return m;
}

/** Counts events so salvage tests can verify the exact valid prefix. */
class CountingSink : public sram::AccessSink
{
  public:
    void
    onAccess(UnitId, AccessType, std::span<const Word>, std::uint32_t,
             std::uint64_t) override
    {
        ++events;
    }

    void
    onFetch(UnitId, AccessType, std::span<const Word64>,
            std::uint64_t) override
    {
        ++events;
    }

    void
    onNocPacket(int, std::span<const Word>, bool, std::uint64_t) override
    {
        ++events;
    }

    std::uint64_t events = 0;
};

/** A v2 trace of @p n single-word access records. */
std::string
makeTrace(std::uint64_t n)
{
    std::stringstream buffer;
    TraceWriter writer(buffer);
    const std::vector<Word> block = {0x12345678u};
    for (std::uint64_t i = 0; i < n; ++i)
        writer.onAccess(UnitId::L1D, AccessType::Read, block, 0x1, i);
    EXPECT_TRUE(writer.finish().ok());
    return buffer.str();
}

TEST(Trace, RoundTripSingleRecords)
{
    std::stringstream buffer;
    {
        TraceWriter writer(buffer);
        const std::vector<Word> block = {1u, 2u, 3u};
        writer.onAccess(UnitId::L1D, AccessType::Read, block, 0x7, 42);
        const std::vector<Word64> instrs = {0xdeadbeefcafef00dull};
        writer.onFetch(UnitId::L1I, AccessType::Write, instrs, 43);
        const std::vector<Word> payload(8, 0xffu);
        writer.onNocPacket(300, payload, true, 44);
        EXPECT_EQ(writer.records(), 3u);
    }

    EnergyAccountant acc(caps());
    const auto replayed = replayTrace(buffer, acc);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, 3u);
    EXPECT_TRUE(replayed.value().sawFooter);
    EXPECT_FALSE(replayed.value().salvaged);
    EXPECT_EQ(acc.unitAccount(UnitId::L1D)
                  .stats(Scenario::Baseline)
                  .reads.accesses,
              1u);
    EXPECT_EQ(acc.unitAccount(UnitId::L1I)
                  .stats(Scenario::Baseline)
                  .writes.accesses,
              1u);
    EXPECT_EQ(acc.noc(Scenario::Baseline).flits, 1u);
}

TEST(Trace, OfflineReplayEqualsOnlineAccounting)
{
    const auto &spec = workload::findApp("KMN");
    const auto capacities = caps();

    // Online: account while simulating, and dump the trace via a tee.
    EnergyAccountant online(capacities);
    std::stringstream buffer;
    TraceWriter writer(buffer);
    TeeSink tee(online, writer);
    {
        gpu::GpuConfig config = gpu::baselineConfig();
        gpu::Gpu machine(config, workload::buildProgram(spec), tee);
        const auto stats = machine.run();
        online.finalize(stats.cycles);
    }
    const auto finished = writer.finish();
    ASSERT_TRUE(finished.ok());
    ASSERT_GT(finished.value(), 1000u);

    // Offline: replay the dump into a fresh accountant.
    EnergyAccountant offline(capacities);
    const auto replayed = replayTrace(buffer, offline);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, finished.value());
    EXPECT_TRUE(replayed.value().sawFooter);
    EXPECT_GE(replayed.value().batches, 1u);

    for (const auto unit : coder::allUnits()) {
        if (unit == UnitId::Noc)
            continue;
        for (const auto s : coder::allScenarios) {
            const auto &a = online.unitAccount(unit).stats(s);
            const auto &b = offline.unitAccount(unit).stats(s);
            EXPECT_EQ(a.reads.ones, b.reads.ones)
                << coder::unitName(unit);
            EXPECT_EQ(a.reads.zeros, b.reads.zeros);
            EXPECT_EQ(a.writes.ones, b.writes.ones);
            EXPECT_EQ(a.writes.accesses, b.writes.accesses);
        }
    }
    for (const auto s : coder::allScenarios) {
        EXPECT_EQ(online.noc(s).toggles, offline.noc(s).toggles);
        EXPECT_EQ(online.noc(s).flits, offline.noc(s).flits);
        EXPECT_EQ(online.noc(s).payloadOnes, offline.noc(s).payloadOnes);
    }
}

TEST(Trace, GarbageIsAStructuredError)
{
    std::stringstream buffer("not a trace at all");
    sram::NullSink sink;
    const auto replayed = replayTrace(buffer, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Corrupt);
    EXPECT_NE(replayed.error().message.find("not a BVF trace"),
              std::string::npos);
}

TEST(Trace, EmptyTraceReplaysZeroRecords)
{
    std::stringstream buffer;
    {
        TraceWriter writer(buffer);
        (void)writer;
    }
    sram::NullSink sink;
    const auto replayed = replayTrace(buffer, sink);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, 0u);
    EXPECT_TRUE(replayed.value().sawFooter);
}

TEST(Trace, TruncatedFooterIsDetected)
{
    const std::string full = makeTrace(100);
    std::stringstream cut(full.substr(0, full.size() - 5));
    sram::NullSink sink;
    const auto replayed = replayTrace(cut, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Truncated);
}

TEST(Trace, TruncationMidBatchSalvagesExactPrefix)
{
    // Enough records to flush several 64KiB batches.
    const std::string full = makeTrace(5000);
    std::stringstream cut(full.substr(0, full.size() * 7 / 10));

    CountingSink counter;
    const auto replayed =
        replayTrace(cut, counter, ReplayOptions{.salvage = true});
    ASSERT_TRUE(replayed.ok());
    const auto &summary = replayed.value();
    EXPECT_TRUE(summary.salvaged);
    EXPECT_FALSE(summary.warning.empty());
    EXPECT_FALSE(summary.sawFooter);
    // The valid prefix -- whole verified batches -- was replayed...
    EXPECT_GT(summary.records, 0u);
    EXPECT_LT(summary.records, 5000u);
    // ...and the sink saw exactly those records, nothing more.
    EXPECT_EQ(counter.events, summary.records);

    // Without salvage the same stream is a structured error.
    std::stringstream cut2(full.substr(0, full.size() * 7 / 10));
    sram::NullSink sink;
    const auto strict = replayTrace(cut2, sink);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
}

TEST(Trace, HeaderOnlyFileIsTruncatedButSalvageable)
{
    // A dump killed right after the 8-byte stream header: no batches,
    // no footer. Strict replay calls that truncation; salvage keeps the
    // (empty) valid prefix without inventing records.
    std::string bytes = "BVFT";
    const std::uint32_t v2 = 2;
    bytes.append(reinterpret_cast<const char *>(&v2), sizeof(v2));

    std::stringstream strictIn(bytes);
    sram::NullSink sink;
    const auto strict = replayTrace(strictIn, sink);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
    EXPECT_NE(strict.error().message.find("without footer"),
              std::string::npos);

    std::stringstream salvageIn(bytes);
    CountingSink counter;
    const auto salvaged =
        replayTrace(salvageIn, counter, ReplayOptions{.salvage = true});
    ASSERT_TRUE(salvaged.ok());
    EXPECT_TRUE(salvaged.value().salvaged);
    EXPECT_FALSE(salvaged.value().sawFooter);
    EXPECT_EQ(salvaged.value().records, 0u);
    EXPECT_EQ(counter.events, 0u);
}

TEST(Trace, HandBuiltZeroRecordFooterReplaysCleanly)
{
    // Header followed directly by a footer claiming zero records: the
    // smallest complete v2 stream, built by hand so the writer cannot
    // paper over format drift.
    std::string bytes = "BVFT";
    const std::uint32_t v2 = 2;
    bytes.append(reinterpret_cast<const char *>(&v2), sizeof(v2));
    bytes += "BVFE";
    const std::uint64_t total = 0;
    bytes.append(reinterpret_cast<const char *>(&total), sizeof(total));
    const std::uint32_t crc = crc32(&total, sizeof(total));
    bytes.append(reinterpret_cast<const char *>(&crc), sizeof(crc));

    std::stringstream in(bytes);
    CountingSink counter;
    const auto replayed = replayTrace(in, counter);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, 0u);
    EXPECT_EQ(replayed.value().batches, 0u);
    EXPECT_TRUE(replayed.value().sawFooter);
    EXPECT_FALSE(replayed.value().salvaged);
    EXPECT_EQ(counter.events, 0u);
}

TEST(Trace, TruncationExactlyAtBatchBoundarySalvagesWholeBatch)
{
    // Enough records for several batches; read the first batch header
    // to find the exact end of batch 0, then cut precisely there. The
    // salvage must keep exactly that batch's records -- no partial
    // batch, no footer confusion.
    const std::string full = makeTrace(5000);
    std::uint32_t batchBytes = 0, batchRecords = 0;
    std::memcpy(&batchBytes, full.data() + 8 + 4, sizeof(batchBytes));
    std::memcpy(&batchRecords, full.data() + 8 + 8,
                sizeof(batchRecords));
    ASSERT_GT(batchRecords, 0u);
    ASSERT_LT(batchRecords, 5000u); // really multiple batches
    const std::size_t boundary = 8 + 16 + batchBytes;
    ASSERT_LT(boundary, full.size());

    std::stringstream cut(full.substr(0, boundary));
    CountingSink counter;
    const auto salvaged =
        replayTrace(cut, counter, ReplayOptions{.salvage = true});
    ASSERT_TRUE(salvaged.ok());
    EXPECT_TRUE(salvaged.value().salvaged);
    EXPECT_FALSE(salvaged.value().sawFooter);
    EXPECT_EQ(salvaged.value().batches, 1u);
    EXPECT_EQ(salvaged.value().records, batchRecords);
    EXPECT_EQ(counter.events, batchRecords);

    // Strict replay of the same prefix is a truncation error.
    std::stringstream cut2(full.substr(0, boundary));
    sram::NullSink sink;
    const auto strict = replayTrace(cut2, sink);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
}

TEST(Trace, CorruptPayloadByteNeverReachesTheSink)
{
    std::string bytes = makeTrace(50);
    // Flip one byte inside the first batch payload (after the 8-byte
    // stream header and 16-byte batch header).
    bytes[8 + 16 + 40] ^= 0x20;

    std::stringstream damaged(bytes);
    CountingSink counter;
    const auto strict = replayTrace(damaged, counter);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Corrupt);
    // CRC verification rejected the batch before dispatch.
    EXPECT_EQ(counter.events, 0u);

    std::stringstream damaged2(bytes);
    CountingSink counter2;
    const auto salvage =
        replayTrace(damaged2, counter2, ReplayOptions{.salvage = true});
    ASSERT_TRUE(salvage.ok());
    EXPECT_TRUE(salvage.value().salvaged);
    EXPECT_EQ(salvage.value().records, 0u);
    EXPECT_EQ(counter2.events, 0u);
}

TEST(Trace, CorruptBatchHeaderIsDetected)
{
    std::string bytes = makeTrace(50);
    bytes[9] = 'X'; // damage the "BTCH" marker
    std::stringstream damaged(bytes);
    sram::NullSink sink;
    const auto replayed = replayTrace(damaged, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Corrupt);
}

TEST(Trace, UnsupportedVersionIsReported)
{
    std::string bytes = makeTrace(1);
    bytes[4] = 99; // version field
    std::stringstream damaged(bytes);
    sram::NullSink sink;
    const auto replayed = replayTrace(damaged, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Unsupported);
}

TEST(Trace, WriterLatchesStreamFailure)
{
    std::ofstream out("/nonexistent-dir/trace.bin", std::ios::binary);
    ASSERT_FALSE(out);
    TraceWriter writer(out);
    const std::vector<Word> block = {1u};
    writer.onAccess(UnitId::L1D, AccessType::Read, block, 0x1, 0);
    EXPECT_FALSE(writer.ok());
    const auto finished = writer.finish();
    ASSERT_FALSE(finished.ok());
    EXPECT_EQ(finished.error().code, ErrorCode::Io);
}

TEST(Trace, LegacyV1StreamStillReplayable)
{
    // Hand-build a version-1 stream: bare records, no batches/footer.
    struct LegacyHeader
    {
        std::uint8_t kind, a, b, flags;
        std::uint32_t activeMask;
        std::uint64_t cycle;
        std::uint32_t count;
    };
    std::string bytes = "BVFT";
    const std::uint32_t version = 1;
    bytes.append(reinterpret_cast<const char *>(&version), 4);
    LegacyHeader h{};
    h.kind = 1; // access
    h.a = static_cast<std::uint8_t>(UnitId::L1D);
    h.b = static_cast<std::uint8_t>(AccessType::Read);
    h.activeMask = 0x1;
    h.cycle = 7;
    h.count = 1;
    bytes.append(reinterpret_cast<const char *>(&h), sizeof(h));
    const Word w = 0xf0f0f0f0u;
    bytes.append(reinterpret_cast<const char *>(&w), sizeof(w));

    std::stringstream in(bytes);
    CountingSink counter;
    const auto replayed = replayTrace(in, counter);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, 1u);
    EXPECT_FALSE(replayed.value().sawFooter);
    EXPECT_EQ(counter.events, 1u);
}

// --- hostile counts must not size allocations --------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BVF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(memory_sanitizer)
#define BVF_SANITIZED 1
#endif
#endif

/**
 * Replay @p bytes strictly and in salvage mode inside a child whose
 * address space is capped a little above what it already maps, so any
 * allocation sized from a hostile count dies instead of succeeding.
 * Exits 0 iff both replays end in a structured Corrupt/Truncated
 * verdict. Sanitizer runtimes reserve huge shadow mappings, so the
 * cap is skipped there; their allocator still aborts on a huge request.
 */
[[noreturn]] void
replayUnderAddressCap(const std::string &bytes)
{
#ifndef BVF_SANITIZED
    long pages = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld", &pages) != 1)
            pages = 0;
        std::fclose(f);
    }
    const rlim_t cap = static_cast<rlim_t>(pages) * 4096 + (256u << 20);
    const rlimit limit{cap, cap};
    if (pages == 0 || setrlimit(RLIMIT_AS, &limit) != 0)
        std::_Exit(3);
#endif
    sram::NullSink sink;
    std::istringstream strictIn(bytes);
    const auto strict = replayTrace(strictIn, sink);
    if (strict.ok()
        || (strict.error().code != ErrorCode::Corrupt
            && strict.error().code != ErrorCode::Truncated)) {
        std::_Exit(1);
    }
    std::istringstream salvageIn(bytes);
    const auto salvaged = replayTrace(salvageIn, sink, {true});
    if (!salvaged.ok() || !salvaged.value().salvaged
        || salvaged.value().records != 0) {
        std::_Exit(2);
    }
    std::_Exit(0);
}

/**
 * Regression: a v1 record header (24 bytes, no length field) claiming
 * 0xfffffff0 fetch words used to size a 32 GiB staging buffer before
 * a single payload byte was read. Same bytes as
 * tests/corpus/trace/seed-01.bin.
 */
TEST(TraceDeathTest, LegacyHugeRecordCountIsAStructuredError)
{
    const std::string v1("BVFT\x01\0\0\0"
                         "\x02\0\0\0\0\0\0\0"     // Fetch, mask 0
                         "\0\0\0\0\0\0\0\0"       // cycle 0
                         "\xf0\xff\xff\xff\0\0\0\0", // count, pad
                         32);
    EXPECT_EXIT(replayUnderAddressCap(v1), testing::ExitedWithCode(0),
                "");
}

/**
 * Regression: a CRC-valid v2 batch whose one access record claims
 * 0xfffffff0 words used to resize the word buffer to 16 GiB before
 * the bounds check. Same bytes as tests/corpus/trace/seed-02.bin.
 */
TEST(TraceDeathTest, BatchHugeRecordCountIsAStructuredError)
{
    const std::string v2("BVFT\x02\0\0\0"
                         "BTCH\x18\0\0\0\x01\0\0\0\x3d\x9d\x19\x61"
                         "\x01\0\0\0\0\0\0\0"     // Access, mask 0
                         "\0\0\0\0\0\0\0\0"       // cycle 0
                         "\xf0\xff\xff\xff\0\0\0\0", // count, pad
                         48);
    EXPECT_EXIT(replayUnderAddressCap(v2), testing::ExitedWithCode(0),
                "");
}

/** A batch header claiming 1 GiB over a few bytes buffers only those. */
TEST(TraceDeathTest, OversizedBatchLengthBuffersOnlyWhatArrives)
{
    const std::string v2("BVFT\x02\0\0\0"
                         "BTCH\0\0\0\x40\x01\0\0\0\0\0\0\0"
                         "\x01\0\0\0\0\0\0\0",
                         32);
    EXPECT_EXIT(replayUnderAddressCap(v2), testing::ExitedWithCode(0),
                "");
}

TEST(Trace, TeeDeliversToBothSinks)
{
    EnergyAccountant a(caps()), b(caps());
    TeeSink tee(a, b);
    const std::vector<Word> block = {0xffffffffu};
    tee.onAccess(UnitId::Reg, AccessType::Write, block, 0x1, 5);
    EXPECT_EQ(
        a.unitAccount(UnitId::Reg).stats(Scenario::Baseline).writes.ones,
        32u);
    EXPECT_EQ(
        b.unitAccount(UnitId::Reg).stats(Scenario::Baseline).writes.ones,
        32u);
}

} // namespace
} // namespace bvf::core
