/**
 * @file
 * Fleet tests: consistent-hash routing properties, the worker health
 * and circuit-breaker state machines, jittered backoff, worker-address
 * parsing, the shard-journal merge rules (failover-replay dedupe,
 * conflicting duplicates, truncated-shard salvage, zero-job shards,
 * byte-identity), and end-to-end coordinator behaviour against real
 * in-process bvfd servers: failover, overload signaling, bad-job
 * quarantine, heartbeat revival, the proxy front-end, and the
 * crown-jewel property -- a fleet campaign's merged report is
 * byte-identical to the serial campaign's.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cmath>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/atomic_file.hh"
#include "core/experiment.hh"
#include "fleet/coordinator.hh"
#include "fleet/fleet_campaign.hh"
#include "fleet/health.hh"
#include "fleet/merge.hh"
#include "fleet/ring.hh"
#include "fleet/worker_client.hh"
#include "gpu/gpu_config.hh"
#include "server/server.hh"
#include "workload/app_spec.hh"

namespace bvf::fleet
{
namespace
{

using namespace std::chrono_literals;
using campaign::AppResult;
using campaign::AppStatus;
using server::Frame;
using server::MsgType;

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/bvf-fleet-XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        dir_ = made ? made : "/tmp";
    }

    ~TempDir()
    {
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((dir_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(dir_.c_str());
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

  private:
    std::string dir_;
};

// --- HashRing ---------------------------------------------------------

std::vector<std::string>
threeWorkers()
{
    return {"w0:7001", "w1:7002", "w2:7003"};
}

TEST(HashRing, RoutingIsDeterministic)
{
    const HashRing a(threeWorkers());
    const HashRing b(threeWorkers());
    for (const auto &spec : workload::evaluationSuite())
        EXPECT_EQ(a.route(spec.abbr), b.route(spec.abbr));
}

TEST(HashRing, PreferenceListIsAPermutation)
{
    const HashRing ring(threeWorkers());
    const auto order = ring.route("KMN");
    ASSERT_EQ(order.size(), 3u);
    std::set<std::size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(ring.primary("KMN"), order.front());
}

TEST(HashRing, SuiteSpreadsAcrossWorkers)
{
    const HashRing ring(threeWorkers());
    std::vector<int> load(3, 0);
    for (const auto &spec : workload::evaluationSuite())
        ++load[ring.primary(spec.abbr)];
    // 58 apps over 3 workers with 64 virtual nodes each: no worker
    // may starve or hog. Loose bounds -- this guards pathology, not
    // perfection.
    for (const int n : load) {
        EXPECT_GE(n, 5);
        EXPECT_LE(n, 40);
    }
}

TEST(HashRing, RemovingAWorkerOnlyMovesItsOwnKeys)
{
    const HashRing full(threeWorkers());
    const HashRing reduced({"w0:7001", "w1:7002"});
    for (const auto &spec : workload::evaluationSuite()) {
        const std::size_t was = full.primary(spec.abbr);
        if (was == 2)
            continue; // this key lost its worker; it must move
        EXPECT_EQ(reduced.primary(spec.abbr), was)
            << spec.abbr << " moved although its worker survived";
    }
}

TEST(HashRing, EmptyRingRoutesNowhere)
{
    const HashRing ring(std::vector<std::string>{});
    EXPECT_TRUE(ring.route("KMN").empty());
    EXPECT_EQ(ring.size(), 0u);
}

// --- WorkerHealth -----------------------------------------------------

TEST(WorkerHealth, TwoStrikesKillThreeStatesTotal)
{
    WorkerHealth h;
    EXPECT_EQ(h.state(), WorkerState::Alive);
    h.onFailure();
    EXPECT_EQ(h.state(), WorkerState::Suspect);
    h.onFailure();
    EXPECT_EQ(h.state(), WorkerState::Dead);
    EXPECT_EQ(h.deaths(), 1u);
}

TEST(WorkerHealth, SuccessRevivesFromAnyState)
{
    WorkerHealth h;
    h.onFailure();
    h.onSuccess();
    EXPECT_EQ(h.state(), WorkerState::Alive);
    EXPECT_EQ(h.revivals(), 0u); // Suspect -> Alive is not a revival

    h.onFailure();
    h.onFailure();
    EXPECT_EQ(h.state(), WorkerState::Dead);
    h.onSuccess();
    EXPECT_EQ(h.state(), WorkerState::Alive);
    EXPECT_EQ(h.revivals(), 1u);
}

TEST(WorkerHealth, StateNames)
{
    EXPECT_EQ(workerStateName(WorkerState::Alive), "alive");
    EXPECT_EQ(workerStateName(WorkerState::Suspect), "suspect");
    EXPECT_EQ(workerStateName(WorkerState::Dead), "dead");
}

// --- CircuitBreaker ---------------------------------------------------

TEST(CircuitBreaker, OpensAtThresholdAndCoolsDown)
{
    using Clock = CircuitBreaker::Clock;
    const auto t0 = Clock::now();
    CircuitBreaker b(2, 100ms);

    EXPECT_TRUE(b.allow(t0));
    b.onFailure(t0);
    EXPECT_FALSE(b.open());
    EXPECT_TRUE(b.allow(t0));
    b.onFailure(t0);
    EXPECT_TRUE(b.open());

    // Open: rejects until the cooldown has elapsed.
    EXPECT_FALSE(b.allow(t0 + 50ms));
    // Half-open: exactly one probe is admitted...
    EXPECT_TRUE(b.allow(t0 + 150ms));
    // ...and nobody else until its outcome lands.
    EXPECT_FALSE(b.allow(t0 + 150ms));

    b.onSuccess();
    EXPECT_FALSE(b.open());
    EXPECT_TRUE(b.allow(t0 + 151ms));
    EXPECT_EQ(b.timesOpened(), 1u);
}

TEST(CircuitBreaker, FailedProbeReopens)
{
    using Clock = CircuitBreaker::Clock;
    const auto t0 = Clock::now();
    CircuitBreaker b(1, 100ms);
    b.onFailure(t0);
    EXPECT_TRUE(b.open());
    EXPECT_TRUE(b.allow(t0 + 150ms)); // the probe
    b.onFailure(t0 + 150ms);
    EXPECT_TRUE(b.open());
    EXPECT_FALSE(b.allow(t0 + 200ms)); // cooldown restarted
    EXPECT_TRUE(b.allow(t0 + 260ms));
}

// --- backoffDelay -----------------------------------------------------

TEST(Backoff, ZeroBaseNeverWaits)
{
    Rng rng(7);
    for (int attempt = 0; attempt < 5; ++attempt)
        EXPECT_EQ(backoffDelay(0ms, attempt, rng).count(), 0);
}

TEST(Backoff, JitterStaysInsideDoublingEnvelope)
{
    Rng rng(42);
    for (int attempt = 0; attempt < 8; ++attempt) {
        for (int i = 0; i < 50; ++i) {
            const auto d = backoffDelay(100ms, attempt, rng);
            EXPECT_GE(d.count(), 0);
            EXPECT_LE(d.count(), 100LL << attempt);
        }
    }
}

TEST(Backoff, SeededRngIsReproducible)
{
    Rng a(1234), b(1234);
    for (int attempt = 0; attempt < 6; ++attempt) {
        EXPECT_EQ(backoffDelay(100ms, attempt, a),
                  backoffDelay(100ms, attempt, b));
    }
}

// --- parseWorkerAddress -----------------------------------------------

TEST(WorkerAddress, ParsesHostPortAndUnix)
{
    auto tcp = parseWorkerAddress("10.0.0.5:7001");
    ASSERT_TRUE(tcp.ok());
    EXPECT_EQ(tcp.value().host, "10.0.0.5");
    EXPECT_EQ(tcp.value().port, 7001);
    EXPECT_EQ(tcp.value().id(), "10.0.0.5:7001");

    auto unx = parseWorkerAddress("unix:/tmp/w0.sock");
    ASSERT_TRUE(unx.ok());
    EXPECT_EQ(unx.value().unixPath, "/tmp/w0.sock");
    EXPECT_EQ(unx.value().id(), "unix:/tmp/w0.sock");
}

TEST(WorkerAddress, RejectsJunk)
{
    for (const char *bad :
         {"", "nohost", ":7001", "host:", "host:0", "host:70000",
          "host:7x1", "unix:"}) {
        const auto parsed = parseWorkerAddress(bad);
        EXPECT_FALSE(parsed.ok()) << "accepted '" << bad << "'";
        if (!parsed.ok()) {
            EXPECT_EQ(parsed.error().code,
                      ErrorCode::InvalidArgument);
        }
    }
}

// --- routeKeyForFrame -------------------------------------------------

TEST(RouteKey, AppKeyedRequestsRouteByAbbr)
{
    server::ChipEnergyRequest energy;
    energy.query.abbr = "KMN";
    EXPECT_EQ(Coordinator::routeKeyForFrame(
                  {MsgType::ChipEnergyRequest, energy.encode()}),
              "KMN");

    server::BitDensityRequest density;
    density.query.abbr = "GAU";
    EXPECT_EQ(Coordinator::routeKeyForFrame(
                  {MsgType::BitDensityRequest, density.encode()}),
              "GAU");
}

TEST(RouteKey, OtherRequestsRouteByPayloadDigest)
{
    server::Ping ping;
    ping.nonce = 1;
    const auto key = Coordinator::routeKeyForFrame(
        {MsgType::PingRequest, ping.encode()});
    EXPECT_EQ(key.rfind("payload:", 0), 0u);

    ping.nonce = 2;
    EXPECT_NE(Coordinator::routeKeyForFrame(
                  {MsgType::PingRequest, ping.encode()}),
              key);
}

// --- merge ------------------------------------------------------------

/** A completed result with awkward (non-terminating) energy values. */
AppResult
sampleResult(const std::string &abbr, double seed)
{
    AppResult r;
    r.name = "app-" + abbr;
    r.abbr = abbr;
    r.attempts = 1;
    r.cycles = 1000 + static_cast<std::uint64_t>(seed);
    r.instructions = 2000 + static_cast<std::uint64_t>(seed);
    for (std::size_t i = 0; i < r.chipEnergy.size(); ++i) {
        r.chipEnergy[i] = seed / 3.0 + static_cast<double>(i) / 7.0;
        r.bvfUnitsEnergy[i] = seed / 9.0 + static_cast<double>(i) / 11.0;
    }
    return r;
}

/** Minimal specs whose abbrs define the campaign order. */
std::vector<workload::AppSpec>
specsFor(const std::vector<std::string> &abbrs)
{
    std::vector<workload::AppSpec> specs;
    for (const auto &abbr : abbrs) {
        workload::AppSpec s;
        s.name = "app-" + abbr;
        s.abbr = abbr;
        specs.push_back(s);
    }
    return specs;
}

TEST(Merge, BitLevelEqualityDiscriminates)
{
    const AppResult a = sampleResult("AAA", 1.0);
    AppResult b = a;
    EXPECT_TRUE(appResultsIdentical(a, b));
    b.chipEnergy[3] = std::nextafter(b.chipEnergy[3], 1e300);
    EXPECT_FALSE(appResultsIdentical(a, b));
}

TEST(Merge, ShardOrderIsErasedAndCountersRecomputed)
{
    TempDir dir;
    const std::uint32_t crc = 0xfeedface;
    AppResult bad = sampleResult("BBB", 2.0);
    bad.status = AppStatus::Quarantined;
    bad.attempts = 3;
    bad.error = Error{ErrorCode::Timeout, "watchdog"};

    // Campaign order AAA, BBB, CCC -- shards hold them interleaved.
    std::vector<AppResult> shard0 = {sampleResult("CCC", 3.0)};
    std::vector<AppResult> shard1 = {bad, sampleResult("AAA", 1.0)};
    ASSERT_TRUE(atomicWriteFile(dir.path("s0.bvfj"),
                                serializeJournal(crc, shard0))
                    .ok());
    ASSERT_TRUE(atomicWriteFile(dir.path("s1.bvfj"),
                                serializeJournal(crc, shard1))
                    .ok());

    const std::vector<std::string> paths = {dir.path("s0.bvfj"),
                                            dir.path("s1.bvfj")};
    const auto specs = specsFor({"AAA", "BBB", "CCC"});
    auto merged = mergeShardJournals(paths, crc, specs);
    ASSERT_TRUE(merged.ok());
    const auto &out = merged.value();
    ASSERT_EQ(out.report.results.size(), 3u);
    EXPECT_EQ(out.report.results[0].abbr, "AAA");
    EXPECT_EQ(out.report.results[1].abbr, "BBB");
    EXPECT_EQ(out.report.results[2].abbr, "CCC");
    EXPECT_EQ(out.report.completed, 2);
    EXPECT_EQ(out.report.quarantined, 1);
    EXPECT_EQ(out.report.retried, 1);
    EXPECT_EQ(out.report.configCrc, crc);
    EXPECT_EQ(out.duplicatesDropped, 0);
}

TEST(Merge, MergedReportIsByteIdenticalToDirectRender)
{
    TempDir dir;
    const std::uint32_t crc = 0x12345678;
    const std::vector<AppResult> all = {sampleResult("AAA", 1.0),
                                        sampleResult("BBB", 2.0),
                                        sampleResult("CCC", 3.0)};

    // Reference: what a serial campaign of these results renders.
    campaign::CampaignReport serial;
    serial.results = all;
    serial.completed = 3;
    serial.configCrc = crc;

    std::vector<AppResult> shard0 = {all[1]};
    std::vector<AppResult> shard1 = {all[2], all[0]};
    ASSERT_TRUE(atomicWriteFile(dir.path("s0.bvfj"),
                                serializeJournal(crc, shard0))
                    .ok());
    ASSERT_TRUE(atomicWriteFile(dir.path("s1.bvfj"),
                                serializeJournal(crc, shard1))
                    .ok());
    const std::vector<std::string> paths = {dir.path("s0.bvfj"),
                                            dir.path("s1.bvfj")};
    auto merged = mergeShardJournals(
        paths, crc, specsFor({"AAA", "BBB", "CCC"}));
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.value().report.render(), serial.render());
}

TEST(Merge, FailoverReplayDuplicatesAreDropped)
{
    TempDir dir;
    const std::uint32_t crc = 1;
    const AppResult dup = sampleResult("AAA", 1.0);
    std::vector<AppResult> shard0 = {dup};
    std::vector<AppResult> shard1 = {dup, sampleResult("BBB", 2.0)};
    ASSERT_TRUE(atomicWriteFile(dir.path("s0.bvfj"),
                                serializeJournal(crc, shard0))
                    .ok());
    ASSERT_TRUE(atomicWriteFile(dir.path("s1.bvfj"),
                                serializeJournal(crc, shard1))
                    .ok());
    const std::vector<std::string> paths = {dir.path("s0.bvfj"),
                                            dir.path("s1.bvfj")};
    auto merged =
        mergeShardJournals(paths, crc, specsFor({"AAA", "BBB"}));
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.value().duplicatesDropped, 1);
    EXPECT_EQ(merged.value().report.completed, 2);
}

TEST(Merge, ConflictingDuplicatesAreRefused)
{
    TempDir dir;
    const std::uint32_t crc = 1;
    std::vector<AppResult> shard0 = {sampleResult("AAA", 1.0)};
    std::vector<AppResult> shard1 = {sampleResult("AAA", 99.0)};
    ASSERT_TRUE(atomicWriteFile(dir.path("s0.bvfj"),
                                serializeJournal(crc, shard0))
                    .ok());
    ASSERT_TRUE(atomicWriteFile(dir.path("s1.bvfj"),
                                serializeJournal(crc, shard1))
                    .ok());
    const std::vector<std::string> paths = {dir.path("s0.bvfj"),
                                            dir.path("s1.bvfj")};
    auto merged = mergeShardJournals(paths, crc, specsFor({"AAA"}));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.error().code, ErrorCode::Corrupt);
    EXPECT_NE(merged.error().message.find("conflicting"),
              std::string::npos);
}

TEST(Merge, MissingAppBreaksExactlyOnce)
{
    TempDir dir;
    const std::uint32_t crc = 1;
    std::vector<AppResult> shard0 = {sampleResult("AAA", 1.0)};
    ASSERT_TRUE(atomicWriteFile(dir.path("s0.bvfj"),
                                serializeJournal(crc, shard0))
                    .ok());
    const std::vector<std::string> paths = {dir.path("s0.bvfj")};
    auto merged =
        mergeShardJournals(paths, crc, specsFor({"AAA", "BBB"}));
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.error().message.find("BBB"), std::string::npos);
}

TEST(Merge, ZeroJobShardsAreFine)
{
    TempDir dir;
    const std::uint32_t crc = 1;
    std::vector<AppResult> shard1 = {sampleResult("AAA", 1.0)};
    ASSERT_TRUE(atomicWriteFile(dir.path("s1.bvfj"),
                                serializeJournal(crc, shard1))
                    .ok());
    // Shards 0 and 2 never wrote a file: the ring routed them nothing.
    const std::vector<std::string> paths = {
        dir.path("s0.bvfj"), dir.path("s1.bvfj"), dir.path("s2.bvfj")};
    auto merged = mergeShardJournals(paths, crc, specsFor({"AAA"}));
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.value().missingShards, 2);
    EXPECT_EQ(merged.value().report.completed, 1);
}

TEST(Merge, TruncatedShardIsSalvagedWhenReplayCovers)
{
    TempDir dir;
    const std::uint32_t crc = 1;
    const AppResult first = sampleResult("AAA", 1.0);
    const AppResult second = sampleResult("BBB", 2.0);

    // Shard 0 died mid-write of BBB: intact AAA, torn tail.
    std::vector<AppResult> both = {first, second};
    std::string torn = campaign::serializeJournal(crc, both);
    torn.resize(torn.size() - 7); // cut inside BBB's record
    ASSERT_TRUE(atomicWriteFile(dir.path("s0.bvfj"), torn).ok());

    // Failover replayed BBB on shard 1.
    std::vector<AppResult> shard1 = {second};
    ASSERT_TRUE(atomicWriteFile(dir.path("s1.bvfj"),
                                campaign::serializeJournal(crc, shard1))
                    .ok());

    const std::vector<std::string> paths = {dir.path("s0.bvfj"),
                                            dir.path("s1.bvfj")};
    auto merged =
        mergeShardJournals(paths, crc, specsFor({"AAA", "BBB"}));
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.value().salvagedShards, 1);
    EXPECT_FALSE(merged.value().warnings.empty());
    EXPECT_EQ(merged.value().report.completed, 2);
}

TEST(Merge, TornShardAtEveryOffsetSalvagesOrRefusesCleanly)
{
    TempDir dir;
    const std::uint32_t crc = 77;
    const AppResult first = sampleResult("AAA", 1.0);
    const AppResult second = sampleResult("BBB", 2.0);
    const std::vector<AppResult> both = {first, second};
    const std::string full = campaign::serializeJournal(crc, both);

    // Shard 1 is intact and covers every app, so whenever the torn
    // shard 0 parses (salvaged or whole), the merge must succeed and
    // deliver each app exactly once.
    ASSERT_TRUE(atomicWriteFile(dir.path("s1.bvfj"), full).ok());
    const std::vector<std::string> paths = {dir.path("s0.bvfj"),
                                            dir.path("s1.bvfj")};
    const auto apps = specsFor({"AAA", "BBB"});

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        ASSERT_TRUE(
            atomicWriteFile(dir.path("s0.bvfj"), full.substr(0, cut))
                .ok());
        auto merged = mergeShardJournals(paths, crc, apps);
        if (merged.ok()) {
            // Exactly-once delivery must survive the tear: two apps,
            // no double count, duplicates (failover replays) dropped.
            EXPECT_EQ(merged.value().report.completed, 2) << cut;
            EXPECT_LE(merged.value().duplicatesDropped, 2) << cut;
        } else {
            // A refusal must come from the taxonomy, never a crash or
            // a hang: header damage is Corrupt by design.
            EXPECT_EQ(merged.error().code, ErrorCode::Corrupt) << cut;
        }
    }
}

// --- Coordinator against real servers ---------------------------------

/** One in-process bvfd worker on an ephemeral TCP port. */
class LiveWorker
{
  public:
    LiveWorker()
    {
        server::ServerOptions opts;
        opts.workers = 2;
        server_ = std::make_unique<server::Server>(opts);
        const auto started = server_->start();
        EXPECT_TRUE(started.ok());
    }

    WorkerAddress
    address() const
    {
        WorkerAddress a;
        a.port = server_->port();
        return a;
    }

    void
    kill()
    {
        if (server_) {
            server_->requestStop();
            server_->drain();
            server_.reset();
        }
    }

  private:
    std::unique_ptr<server::Server> server_;
};

FleetOptions
fleetOver(const std::vector<WorkerAddress> &workers)
{
    FleetOptions o;
    o.workers = workers;
    o.requestDeadline = 5000ms;
    o.backoffBase = 1ms; // tests should not sleep for real
    o.heartbeatInterval = 0ms;
    return o;
}

/**
 * fleetOver() for campaign tests, whose requests simulate whole apps:
 * in a sanitizer build one GAU takes longer than fleetOver's 5 s.
 */
FleetOptions
campaignFleetOver(const std::vector<WorkerAddress> &workers)
{
    FleetOptions o = fleetOver(workers);
    o.requestDeadline = 60000ms;
    return o;
}

TEST(Coordinator, RoutesAndAnswersPings)
{
    LiveWorker w0, w1;
    Coordinator coord(fleetOver({w0.address(), w1.address()}));

    server::Ping ping;
    ping.nonce = 77;
    ExecuteInfo info;
    auto reply = coord.execute({MsgType::PingRequest, ping.encode()},
                               "some-key", &info);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, MsgType::PingResponse);
    EXPECT_EQ(info.transportFailures, 0);
    EXPECT_EQ(coord.stats().requests, 1u);
    w0.kill();
    w1.kill();
}

TEST(Coordinator, FailsOverWhenThePrimaryIsDead)
{
    LiveWorker w0, w1;
    std::vector<WorkerAddress> addrs = {w0.address(), w1.address()};
    FleetOptions opts = fleetOver(addrs);
    opts.requestDeadline = 2000ms;
    Coordinator coord(opts);

    // Find a key whose ring primary is worker 0, then kill worker 0.
    const HashRing ring(
        {addrs[0].id(), addrs[1].id()});
    std::string key = "k";
    while (ring.primary(key) != 0)
        key += "k";
    w0.kill();

    server::Ping ping;
    ping.nonce = 1;
    ExecuteInfo info;
    auto reply = coord.execute({MsgType::PingRequest, ping.encode()},
                               key, &info);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, MsgType::PingResponse);
    EXPECT_GE(info.transportFailures, 1);
    EXPECT_EQ(info.worker, 1u);
    EXPECT_GE(coord.stats().failovers, 1u);
    w1.kill();
}

TEST(Coordinator, ReportsOverloadedWhenNoWorkerIsRoutable)
{
    LiveWorker w0;
    std::vector<WorkerAddress> addrs = {w0.address()};
    w0.kill();

    FleetOptions opts = fleetOver(addrs);
    opts.requestDeadline = 500ms;
    opts.maxAttempts = 1;
    opts.breakerThreshold = 1;
    opts.breakerCooldown = 60000ms; // stays open for the whole test
    Coordinator coord(opts);

    server::Ping ping;
    ping.nonce = 1;
    const Frame frame{MsgType::PingRequest, ping.encode()};

    // First call: a real transport error reaches us.
    auto first = coord.execute(frame, "k");
    ASSERT_FALSE(first.ok());
    EXPECT_NE(first.error().code, ErrorCode::Overloaded);

    // Second call: the breaker is open, nothing is routable.
    auto second = coord.execute(frame, "k");
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::Overloaded);
    EXPECT_EQ(coord.stats().overloaded, 1u);
    EXPECT_GE(coord.stats().breakerOpens, 1u);
}

TEST(Coordinator, ConvictsABadJobOnTwoWorkers)
{
    LiveWorker w0, w1;
    Coordinator coord(fleetOver({w0.address(), w1.address()}));

    // An unknown app is a *job* problem: every healthy worker rejects
    // it, and two independent verdicts convict it.
    server::ChipEnergyRequest req;
    req.query.abbr = "ZZZ";
    ExecuteInfo info;
    auto reply = coord.execute(
        {MsgType::ChipEnergyRequest, req.encode()}, "ZZZ", &info);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, MsgType::ErrorResponse);
    EXPECT_EQ(info.distinctAppErrorWorkers, 2);
    EXPECT_EQ(coord.stats().quarantined, 1u);

    // Both workers answered; neither took a health strike.
    EXPECT_EQ(coord.workerState(0), WorkerState::Alive);
    EXPECT_EQ(coord.workerState(1), WorkerState::Alive);
    w0.kill();
    w1.kill();
}

/**
 * Run one well-framed but unacceptable request through a 2-worker
 * fleet: the workers must refuse the job (InvalidArgument), not look
 * like damaged wires that get struck and failed over.
 */
void
expectJobVerdictNotWorkerStrike(const Frame &frame)
{
    LiveWorker w0, w1;
    Coordinator coord(fleetOver({w0.address(), w1.address()}));
    ExecuteInfo info;
    auto reply =
        coord.execute(frame, Coordinator::routeKeyForFrame(frame), &info);
    ASSERT_TRUE(reply.ok()) << reply.error().describe();
    ASSERT_EQ(reply.value().type, MsgType::ErrorResponse);
    const auto verdict = server::WireError::decode(reply.value().payload);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.value().code,
              static_cast<std::uint8_t>(ErrorCode::InvalidArgument))
        << verdict.value().message;
    EXPECT_EQ(info.transportFailures, 0);
    EXPECT_EQ(coord.stats().failovers, 0u);
    EXPECT_EQ(coord.workerState(0), WorkerState::Alive);
    EXPECT_EQ(coord.workerState(1), WorkerState::Alive);
    w0.kill();
    w1.kill();
}

TEST(Coordinator, LongAppNameIsAJobVerdictNotAWorkerStrike)
{
    // An app name longer than any app.
    server::ChipEnergyRequest req;
    req.query.abbr = std::string(100, 'A');
    expectJobVerdictNotWorkerStrike(
        {MsgType::ChipEnergyRequest, req.encode()});
}

TEST(Coordinator, MalformedPayloadIsAJobVerdictNotAWorkerStrike)
{
    // The payload ends mid-field: the frame's CRC held, so the bytes
    // are what the client sent.
    expectJobVerdictNotWorkerStrike(
        {MsgType::ChipEnergyRequest, std::string("\x01\x02\x03", 3)});
}

TEST(Coordinator, LongDigestIsAJobVerdictNotAWorkerStrike)
{
    server::EvalSubmittedRequest req;
    req.digest = std::string(100, 'k');
    expectJobVerdictNotWorkerStrike(
        {MsgType::EvalSubmittedRequest, req.encode()});
}

TEST(Coordinator, GarbageBytecodeIsAJobVerdictNotAWorkerStrike)
{
    server::SubmitKernelRequest req;
    req.bytecode = std::string(40, '\x5a');
    expectJobVerdictNotWorkerStrike(
        {MsgType::SubmitKernelRequest, req.encode()});
}

TEST(Coordinator, HeartbeatKillsAndRevivesOverUnixSocket)
{
    TempDir dir;
    const std::string sock = dir.path("w0.sock");

    auto makeWorker = [&]() {
        server::ServerOptions opts;
        opts.host = ""; // unix only
        opts.unixPath = sock;
        opts.workers = 2;
        auto s = std::make_unique<server::Server>(opts);
        EXPECT_TRUE(s->start().ok());
        return s;
    };
    auto worker = makeWorker();

    WorkerAddress addr;
    addr.unixPath = sock;
    FleetOptions opts = fleetOver({addr});
    // Drive beats synchronously via probeWorkersOnce(): the same code
    // the heartbeat thread runs, without real sleeps or polling.
    opts.heartbeatFloor = 200ms;
    Coordinator coord(opts);

    // Kill the worker; two missed beats convict it.
    worker->requestStop();
    worker->drain();
    worker.reset();
    coord.probeWorkersOnce();
    EXPECT_EQ(coord.workerState(0), WorkerState::Suspect);
    coord.probeWorkersOnce();
    EXPECT_EQ(coord.workerState(0), WorkerState::Dead);

    // Chaos restart on the same endpoint: the next beat revives it.
    worker = makeWorker();
    coord.probeWorkersOnce();
    EXPECT_EQ(coord.workerState(0), WorkerState::Alive);
    EXPECT_GE(coord.stats().revivals, 1u);
    worker->requestStop();
    worker->drain();
}

TEST(WorkerHealth, DeadThresholdIsConfigurable)
{
    WorkerHealth slow(4);
    for (int i = 0; i < 3; ++i)
        slow.onFailure();
    EXPECT_EQ(slow.state(), WorkerState::Suspect);
    slow.onFailure();
    EXPECT_EQ(slow.state(), WorkerState::Dead);

    // Below the floor of 2 the threshold clamps up: one strike can
    // only ever mean Suspect.
    WorkerHealth clamped(0);
    clamped.onFailure();
    EXPECT_EQ(clamped.state(), WorkerState::Suspect);
    clamped.onFailure();
    EXPECT_EQ(clamped.state(), WorkerState::Dead);
}

TEST(Coordinator, ProxyHandlerTurnsAServerIntoALoadBalancer)
{
    LiveWorker w0, w1;
    Coordinator coord(fleetOver({w0.address(), w1.address()}));

    server::ServerOptions frontOpts;
    frontOpts.workers = 2;
    frontOpts.handler = coord.proxyHandler();
    server::Server front(frontOpts);
    ASSERT_TRUE(front.start().ok());

    WorkerAddress frontAddr;
    frontAddr.port = front.port();
    WorkerClient client(frontAddr);
    server::Ping ping;
    ping.nonce = 9;
    auto reply = client.request({MsgType::PingRequest, ping.encode()},
                                5000ms);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, MsgType::PingResponse);
    EXPECT_GE(coord.stats().requests, 1u);

    front.requestStop();
    front.drain();
    w0.kill();
    w1.kill();
}

// --- FleetCampaign ----------------------------------------------------

std::vector<workload::AppSpec>
fastApps()
{
    return {workload::findApp("GAU"), workload::findApp("HWL")};
}

TEST(FleetCampaign, ReportIsByteIdenticalToSerial)
{
    TempDir dir;
    const auto apps = fastApps();

    // Serial reference, exactly as bvf_sim's campaign mode runs it.
    core::ExperimentDriver driver(gpu::baselineConfig());
    campaign::CampaignOptions serialOpts;
    campaign::CampaignRunner serial(driver, serialOpts);
    const auto ref = serial.run(apps);
    ASSERT_TRUE(ref.ok());

    LiveWorker w0, w1;
    Coordinator coord(campaignFleetOver({w0.address(), w1.address()}));
    FleetCampaignOptions opts;
    opts.journalDir = dir.path("shards");
    ASSERT_EQ(::mkdir(opts.journalDir.c_str(), 0755), 0);
    opts.reportPath = dir.path("report.txt");
    opts.jobs = 2;
    FleetCampaign fleet(coord, opts);
    auto outcome = fleet.run(apps);
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();

    EXPECT_EQ(outcome.value().report.render(), ref.value().render());
    EXPECT_EQ(fleet.configDigest(apps), ref.value().configCrc);

    auto written = readFileBytes(opts.reportPath);
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(written.value(), ref.value().render());

    // Cleanup shard files so TempDir can remove its directory.
    for (const auto &p : outcome.value().shardPaths)
        ::unlink(p.c_str());
    ::rmdir(opts.journalDir.c_str());
    w0.kill();
    w1.kill();
}

TEST(FleetCampaign, EccReportIsByteIdenticalToSerial)
{
    TempDir dir;
    const auto apps = fastApps();

    // Serial reference, as `bvf_sim --ecc` runs its campaign: SECDED
    // check bits counted by the accountant and priced in the arrays.
    core::ExperimentDriver driver(gpu::baselineConfig());
    campaign::CampaignOptions serialOpts;
    serialOpts.run.fault.ecc = fault::EccScheme::Secded72_64;
    serialOpts.pricing.ecc = true;
    campaign::CampaignRunner serial(driver, serialOpts);
    const auto ref = serial.run(apps);
    ASSERT_TRUE(ref.ok());

    LiveWorker w0;
    Coordinator coord(campaignFleetOver({w0.address()}));
    FleetCampaignOptions opts;
    opts.journalDir = dir.path("shards");
    ASSERT_EQ(::mkdir(opts.journalDir.c_str(), 0755), 0);
    opts.jobs = 2;
    opts.setup.ecc = true;
    FleetCampaign fleet(coord, opts);
    auto outcome = fleet.run(apps);
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();

    EXPECT_EQ(outcome.value().report.render(), ref.value().render());
    EXPECT_EQ(fleet.configDigest(apps), ref.value().configCrc);

    for (const auto &p : outcome.value().shardPaths)
        ::unlink(p.c_str());
    ::rmdir(opts.journalDir.c_str());
    w0.kill();
}

TEST(FleetCampaign, SurvivesADeadWorkerAndStaysByteIdentical)
{
    TempDir dir;
    const auto apps = fastApps();

    core::ExperimentDriver driver(gpu::baselineConfig());
    campaign::CampaignOptions serialOpts;
    campaign::CampaignRunner serial(driver, serialOpts);
    const auto ref = serial.run(apps);
    ASSERT_TRUE(ref.ok());

    LiveWorker w0, w1;
    Coordinator coord(campaignFleetOver({w0.address(), w1.address()}));

    // One worker is already dead when the campaign starts: every app
    // it owned must fail over to the survivor, and the report must
    // not know the difference.
    w1.kill();

    FleetCampaignOptions opts;
    opts.journalDir = dir.path("shards");
    ASSERT_EQ(::mkdir(opts.journalDir.c_str(), 0755), 0);
    opts.jobs = 2;
    FleetCampaign fleet(coord, opts);
    auto outcome = fleet.run(apps);
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();

    EXPECT_EQ(outcome.value().report.render(), ref.value().render());

    for (const auto &p : outcome.value().shardPaths)
        ::unlink(p.c_str());
    ::rmdir(opts.journalDir.c_str());
    w0.kill();
}

TEST(FleetCampaign, RejectsUnreliableCellsHonestly)
{
    TempDir dir;
    LiveWorker w0;
    Coordinator coord(fleetOver({w0.address()}));
    FleetCampaignOptions opts;
    opts.journalDir = dir.path("shards");
    opts.setup.cell = circuit::CellKind::SramBvf6T;
    FleetCampaign fleet(coord, opts);
    const auto apps = fastApps();
    auto outcome = fleet.run(apps);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(outcome.error().message.find("fault"),
              std::string::npos);
    w0.kill();
}

} // namespace
} // namespace bvf::fleet
