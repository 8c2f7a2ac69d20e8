/**
 * @file
 * End-to-end daemon tests over real sockets: ping round-trips, strict
 * in-order pipelined batches, the one-ErrorResponse-then-hangup framing
 * policy, semantic errors that keep the connection alive, the HTTP
 * /metrics ride-along, Unix-socket service, graceful drain, a client
 * reset that must not raise SIGPIPE in the host, and the one frame
 * reader (readFrame) over a scripted Transport.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "server/http.hh"
#include "server/kernel_store.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "server/transport.hh"

namespace bvf::server
{
namespace
{

/** A raw-socket protocol client with its own reassembly buffer. */
class TestClient
{
  public:
    explicit TestClient(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = inet_addr("127.0.0.1");
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    explicit TestClient(const std::string &unixPath)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    TestClient(const TestClient &) = delete;
    TestClient &operator=(const TestClient &) = delete;

    /** Close with SO_LINGER {1, 0}: the server sees a reset, not EOF. */
    void
    reset()
    {
        const linger hard = {1, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
        ::close(fd_);
        fd_ = -1;
    }

    void
    send(const std::string &bytes)
    {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n =
                ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            sent += static_cast<std::size_t>(n);
        }
    }

    /** Read one frame, pulling more bytes from the socket as needed. */
    Result<Frame>
    readFrame()
    {
        for (;;) {
            std::size_t consumed = 0;
            auto parsed = parseFrame(buf_, consumed);
            if (parsed.ok()) {
                buf_.erase(0, consumed);
                return parsed;
            }
            if (parsed.error().code != ErrorCode::Truncated)
                return parsed;
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return Error{ErrorCode::Io, "connection closed"};
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** Drain the socket; @return true iff the peer closed cleanly. */
    bool
    readUntilEof(std::string *collected = nullptr)
    {
        for (;;) {
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
            if (collected)
                collected->append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

std::string
pingBytes(std::uint64_t nonce)
{
    Ping ping;
    ping.nonce = nonce;
    return encodeFrame(MsgType::PingRequest, ping.encode());
}

ServerOptions
smallServer()
{
    ServerOptions options;
    options.workers = 2;
    return options;
}

TEST(Server, PingRoundTripsOverTcp)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());
    ASSERT_GT(server.port(), 0);

    TestClient client(server.port());
    client.send(pingBytes(0xfeedface));
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()) << frame.error().describe();
    EXPECT_EQ(frame.value().type, MsgType::PingResponse);
    const auto pong = Ping::decode(frame.value().payload);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().nonce, 0xfeedfaceu);

    EXPECT_EQ(server.metrics().requestsTotal(), 1u);
    EXPECT_EQ(server.metrics().responsesTotal(), 1u);
}

TEST(Server, PipelinedBatchAnswersInRequestOrder)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    constexpr int kBatch = 32;
    std::string batch;
    for (int i = 0; i < kBatch; ++i)
        batch += pingBytes(0x1000u + static_cast<std::uint64_t>(i));
    client.send(batch); // one write: the whole pipeline at once

    for (int i = 0; i < kBatch; ++i) {
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame.ok()) << i;
        ASSERT_EQ(frame.value().type, MsgType::PingResponse) << i;
        const auto pong = Ping::decode(frame.value().payload);
        ASSERT_TRUE(pong.ok()) << i;
        // Strictly in request order, never completion order.
        EXPECT_EQ(pong.value().nonce,
                  0x1000u + static_cast<std::uint64_t>(i));
    }
}

TEST(Server, FramingErrorGetsOneErrorResponseThenHangup)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    std::string bad = pingBytes(1);
    bad[0] = 'X'; // destroy the magic
    client.send(bad);

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().type, MsgType::ErrorResponse);
    const auto err = WireError::decode(frame.value().payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().code,
              static_cast<std::uint8_t>(ErrorCode::Corrupt));
    // After a framing error the stream offset is unreliable, so the
    // server must hang up rather than guess at resynchronization.
    EXPECT_TRUE(client.readUntilEof());
    EXPECT_GE(server.metrics().protocolErrors(), 1u);
}

TEST(Server, SemanticErrorKeepsTheConnectionAlive)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    BitDensityRequest req;
    req.query.abbr = "ZZZ"; // decodes fine, but no such application
    client.send(encodeFrame(MsgType::BitDensityRequest, req.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().type, MsgType::ErrorResponse);

    // The frame was well-formed, so the connection survives and the
    // next request is served normally.
    client.send(pingBytes(7));
    const auto pong = client.readFrame();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().type, MsgType::PingResponse);
}

TEST(Server, StaticAdviceRoundTripsOverTcp)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    StaticAdviceRequest req;
    req.query.abbr = "KMN";
    client.send(encodeFrame(MsgType::StaticAdviceRequest, req.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame.value().type, MsgType::StaticAdviceResponse);
    const auto resp =
        StaticAdviceResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok());
    const StaticAdviceResponse &r = resp.value();
    EXPECT_LT(r.bestPivot, 32);
    EXPECT_GE(r.provenSlack, 0.0);
    EXPECT_GT(r.totalSources, 0u);
    EXPECT_GT(r.affineSources, 0u);
    // The advised pivot's bound is a live register-file bound.
    EXPECT_EQ(r.pivotBounds[r.bestPivot].any, 1);
    EXPECT_NE(r.defaultMask, 0u);
    EXPECT_FALSE(r.unitPicks.empty());
}

TEST(Server, MetricsRideAlongOverHttp)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    // Prime one counter so the scrape has something nonzero to show.
    {
        TestClient client(server.port());
        client.send(pingBytes(1));
        ASSERT_TRUE(client.readFrame().ok());
    }

    TestClient scraper(server.port());
    scraper.send("GET /metrics HTTP/1.0\r\n\r\n");
    std::string response;
    EXPECT_TRUE(scraper.readUntilEof(&response));
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("bvfd_requests_total{type=\"ping\"} 1"),
              std::string::npos);
    // The same text Server::renderMetrics() returns directly.
    EXPECT_NE(response.find("bvfd_workers 2"), std::string::npos);
    EXPECT_NE(server.renderMetrics().find("bvfd_workers 2"),
              std::string::npos);
}

TEST(HttpScan, CompleteHeadIsMeasuredExactly)
{
    const std::string head = "GET /metrics HTTP/1.0\r\n\r\n";
    const auto scan = scanHttpHead(head + "trailing junk");
    EXPECT_EQ(scan.state, HttpScan::Complete);
    EXPECT_EQ(scan.headBytes, head.size());

    // Bare-LF heads (curl-style hand tests) work too.
    const auto bare = scanHttpHead("GET / HTTP/1.1\n\n");
    EXPECT_EQ(bare.state, HttpScan::Complete);
}

TEST(HttpScan, PartialHeadAsksForMore)
{
    EXPECT_EQ(scanHttpHead("GET /met").state, HttpScan::NeedMore);
    EXPECT_EQ(scanHttpHead("GET /metrics HTTP/1.0\r\n").state,
              HttpScan::NeedMore);
}

TEST(HttpScan, OversizedRequestLineIsRejectedBeforeItEnds)
{
    // No newline anywhere: a scanner that waited for the line to end
    // would buffer forever. The verdict must come from length alone.
    const std::string endless =
        "GET /" + std::string(kMaxHttpRequestLine, 'a');
    EXPECT_EQ(scanHttpHead(endless).state, HttpScan::RequestLineTooLong);
}

TEST(HttpScan, OversizedHeadIsRejected)
{
    std::string head = "GET /metrics HTTP/1.0\r\n";
    while (head.size() <= kMaxHttpHead)
        head += "X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    EXPECT_EQ(scanHttpHead(head).state, HttpScan::HeadTooLong);
}

TEST(Server, OversizedMetricsRequestLineGets414)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient scraper(server.port());
    // "GET /aaaa..." with no newline: the request line never ends.
    scraper.send("GET /" + std::string(kMaxHttpRequestLine, 'a'));
    std::string response;
    EXPECT_TRUE(scraper.readUntilEof(&response));
    EXPECT_NE(response.find("414 URI Too Long"), std::string::npos);
    // The rejection must not include a metrics body.
    EXPECT_EQ(response.find("bvfd_workers"), std::string::npos);
    EXPECT_GE(server.metrics().protocolErrors(), 1u);
}

TEST(Server, OversizedMetricsHeadGets431)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient scraper(server.port());
    std::string head = "GET /metrics HTTP/1.0\r\n";
    while (head.size() <= kMaxHttpHead)
        head += "X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    scraper.send(head);
    std::string response;
    EXPECT_TRUE(scraper.readUntilEof(&response));
    EXPECT_NE(response.find("431 Request Header Fields Too Large"),
              std::string::npos);
    EXPECT_EQ(response.find("bvfd_workers"), std::string::npos);
    EXPECT_GE(server.metrics().protocolErrors(), 1u);
}

TEST(Server, ServesTheSameProtocolOnAUnixSocket)
{
    const std::string path =
        "/tmp/bvf-test-" + std::to_string(::getpid()) + ".sock";
    ::unlink(path.c_str());

    ServerOptions options = smallServer();
    options.host.clear(); // Unix socket only
    options.unixPath = path;
    {
        Server server(options);
        ASSERT_TRUE(server.start().ok());
        EXPECT_EQ(server.port(), 0); // no TCP listener

        TestClient client(path);
        client.send(pingBytes(0xabc));
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame.ok());
        const auto pong = Ping::decode(frame.value().payload);
        ASSERT_TRUE(pong.ok());
        EXPECT_EQ(pong.value().nonce, 0xabcu);
    }
    ::unlink(path.c_str());
}

TEST(Server, NothingToListenOnIsAStartError)
{
    ServerOptions options = smallServer();
    options.host.clear();
    options.unixPath.clear();
    Server server(options);
    EXPECT_FALSE(server.start().ok());
}

TEST(Server, WaitForStopUnblocksOnRequestStop)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());
    std::thread stopper([&server] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        server.requestStop(); // async-signal-safe: what a handler does
    });
    server.waitForStop(); // must return once the stop is requested
    stopper.join();
    server.drain();
}

/**
 * Serve four pipelined pings through a 200 ms handler to a client that
 * resets once they are read, then exit 0 -- unless the pending
 * responses raise SIGPIPE, whose default action kills the process.
 */
[[noreturn]] void
surviveAResetWithResponsesPending()
{
    std::signal(SIGPIPE, SIG_DFL);
    ServerOptions options = smallServer();
    options.handler = [](const Frame &request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return Frame{MsgType::PingResponse, request.payload};
    };
    Server server(options);
    if (!server.start().ok())
        std::exit(2);
    TestClient client(server.port());
    client.send(pingBytes(1) + pingBytes(2) + pingBytes(3) + pingBytes(4));
    // Reset only once the server has read all four: a reset that
    // overtakes the requests would leave no response to send.
    for (int waited = 0; server.metrics().requestsTotal() < 4; ++waited) {
        if (waited == 5000)
            std::exit(3);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.reset();
    server.drain();
    std::exit(0);
}

TEST(ServerDeathTest, ClientResetWithResponsesPendingSparesTheHost)
{
    // A program embedding Server with SIGPIPE at its default (the test
    // binaries, bvfbench) must outlive such a client.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(surviveAResetWithResponsesPending(),
                ::testing::ExitedWithCode(0), "");
}

TEST(Server, DrainAnswersEverythingThenClosesConnections)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    client.send(pingBytes(5));
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()); // the request was served...

    server.requestStop();
    server.drain();
    // ...and the drain closed the connection cleanly.
    EXPECT_TRUE(client.readUntilEof());
    EXPECT_EQ(server.metrics().requestsTotal(),
              server.metrics().responsesTotal());
    server.drain(); // idempotent
}

namespace
{

std::string
assembleBytecode(const std::string &text)
{
    auto parsed = isa::parseAsm(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    return isa::encodeProgram(parsed.value());
}

constexpr const char *kTinyKernel = ".kernel tiny\n"
                                    ".launch 1 32\n"
                                    "    S2R R1, SR_TIDX\n"
                                    "    IADD R2, R1, #1\n"
                                    "    EXIT\n";

} // namespace

TEST(Server, SubmitThenEvalRunsUnderTheAdmissionContract)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    const std::string bytecode = assembleBytecode(kTinyKernel);
    SubmitKernelRequest submit;
    submit.bytecode = bytecode;
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()) << frame.error().describe();
    ASSERT_EQ(frame.value().type, MsgType::SubmitKernelResponse);
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 1);
    EXPECT_EQ(resp.value().digest, kernelDigest(bytecode));
    EXPECT_GT(resp.value().tripBound, 0u);
    EXPECT_TRUE(resp.value().rejections.empty());

    // The admitted digest is immediately evaluable on the same
    // connection, under the certificate's runtime contract.
    EvalSubmittedRequest eval;
    eval.digest = resp.value().digest;
    client.send(
        encodeFrame(MsgType::EvalSubmittedRequest, eval.encode()));
    const auto evalFrame = client.readFrame();
    ASSERT_TRUE(evalFrame.ok());
    ASSERT_EQ(evalFrame.value().type, MsgType::EvalSubmittedResponse);
    const auto evalResp =
        EvalSubmittedResponse::decode(evalFrame.value().payload);
    ASSERT_TRUE(evalResp.ok()) << evalResp.error().message;
    EXPECT_GT(evalResp.value().cycles, 0u);
    EXPECT_GT(evalResp.value().maxWarpIssue, 0u);
    EXPECT_LE(evalResp.value().maxWarpIssue, resp.value().tripBound);
}

TEST(Server, OptimizeOnSubmitStoresAValidatedSecondKernel)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    // A deliberately unoptimized kernel: the add folds to an
    // immediate and its operand's producer dies.
    const std::string bytecode =
        assembleBytecode(".kernel foldme\n"
                         ".launch 1 32\n"
                         ".shared 256\n"
                         "    S2R R1, SR_TIDX\n"
                         "    AND R2, R1, #31\n"
                         "    SHL R2, R2, #2\n"
                         "    MOV R3, #5\n"
                         "    IADD R4, R3, #7\n"
                         "    STS [R2 + 0], R4\n"
                         "    EXIT\n");
    SubmitKernelRequest submit;
    submit.bytecode = bytecode;
    submit.optimize = 1;
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()) << frame.error().describe();
    ASSERT_EQ(frame.value().type, MsgType::SubmitKernelResponse);
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 1);
    EXPECT_EQ(resp.value().optimizeRequested, 1);
    ASSERT_EQ(resp.value().optimized, 1);
    EXPECT_EQ(resp.value().digest, kernelDigest(bytecode));
    ASSERT_FALSE(resp.value().optimizedDigest.empty());
    EXPECT_NE(resp.value().optimizedDigest, resp.value().digest);

    // Both digests are evaluable: the original admission stands and
    // the optimized program is a first-class stored kernel.
    for (const std::string &digest :
         {resp.value().digest, resp.value().optimizedDigest}) {
        EvalSubmittedRequest eval;
        eval.digest = digest;
        client.send(
            encodeFrame(MsgType::EvalSubmittedRequest, eval.encode()));
        const auto evalFrame = client.readFrame();
        ASSERT_TRUE(evalFrame.ok()) << digest;
        ASSERT_EQ(evalFrame.value().type,
                  MsgType::EvalSubmittedResponse)
            << digest;
        const auto evalResp =
            EvalSubmittedResponse::decode(evalFrame.value().payload);
        ASSERT_TRUE(evalResp.ok()) << digest;
        EXPECT_GT(evalResp.value().cycles, 0u) << digest;
    }

    const std::string text = server.renderMetrics();
    for (const char *needle :
         {"bvfd_kernels_optimize_requested_total 1",
          "bvfd_kernels_optimize_accepted_total 1",
          "bvfd_kernels_optimize_fallback_total 0",
          "bvfd_kernels_optimizer_rewrites_total{pass="
          "\"constant-fold\"} 1",
          "bvfd_kernels_resident 2"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Server, OptimizeOnSubmitFallsBackToTheOriginalAdmission)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    // An already-optimal kernel (every instruction feeds the store):
    // the optimizer proves nothing and the response reports an honest
    // fallback.
    SubmitKernelRequest submit;
    submit.bytecode = assembleBytecode(".kernel minimal\n"
                                       ".launch 1 32\n"
                                       ".shared 256\n"
                                       "    S2R R1, SR_TIDX\n"
                                       "    AND R2, R1, #31\n"
                                       "    SHL R2, R2, #2\n"
                                       "    STS [R2 + 0], R1\n"
                                       "    EXIT\n");
    submit.optimize = 1;
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 1);
    EXPECT_EQ(resp.value().optimizeRequested, 1);
    EXPECT_EQ(resp.value().optimized, 0);
    EXPECT_TRUE(resp.value().optimizedDigest.empty());

    const std::string text = server.renderMetrics();
    for (const char *needle :
         {"bvfd_kernels_optimize_requested_total 1",
          "bvfd_kernels_optimize_accepted_total 0",
          "bvfd_kernels_optimize_fallback_total 1",
          "bvfd_kernels_resident 1"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Server, RejectedKernelNeverGainsADigestAndKeepsTheConnection)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    SubmitKernelRequest submit;
    submit.bytecode = assembleBytecode(".kernel spin\n"
                                       ".launch 1 32\n"
                                       "L0:\n"
                                       "    BRA L0, join=L1\n"
                                       "L1:\n"
                                       "    EXIT\n");
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame.value().type, MsgType::SubmitKernelResponse);
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 0);
    EXPECT_TRUE(resp.value().digest.empty());
    ASSERT_FALSE(resp.value().rejections.empty());
    EXPECT_EQ(resp.value().rejections[0].reason,
              static_cast<std::uint8_t>(
                  analysis::RejectReason::BudgetExceeded));

    // Evaluating the digest the kernel WOULD have had is a semantic
    // error: the reject really kept it out of the store.
    EvalSubmittedRequest eval;
    eval.digest = kernelDigest(submit.bytecode);
    client.send(
        encodeFrame(MsgType::EvalSubmittedRequest, eval.encode()));
    const auto evalFrame = client.readFrame();
    ASSERT_TRUE(evalFrame.ok());
    EXPECT_EQ(evalFrame.value().type, MsgType::ErrorResponse);

    // Semantic errors keep the connection alive.
    client.send(pingBytes(11));
    const auto pong = client.readFrame();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().type, MsgType::PingResponse);
}

TEST(Server, UndecodableBytecodeIsAnErrorResponse)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    SubmitKernelRequest submit;
    submit.bytecode = "definitely not a BVFK frame";
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().type, MsgType::ErrorResponse);
}

TEST(Server, KernelStoreCountersRideAlongInMetrics)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    SubmitKernelRequest submit;
    submit.bytecode = assembleBytecode(kTinyKernel);
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));
    ASSERT_TRUE(client.readFrame().ok());

    const std::string text = server.renderMetrics();
    for (const char *needle :
         {"bvfd_kernels_submitted_total 1",
          "bvfd_kernels_admitted_total 1", "bvfd_kernels_resident 1",
          "bvfd_kernels_decode_failures_total 0",
          "bvfd_kernels_rejected_total{reason=\"budget-exceeded\"} 0",
          "bvfd_requests_total{type=\"submit_kernel\"} 1",
          "bvfd_responses_total{type=\"submit_kernel\"} 1"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

/** Manual time: moves only when the scripted transport says so. */
class ManualClock final : public Clock
{
  public:
    time_point now() override { return now_; }
    void sleepFor(std::chrono::milliseconds d) override { now_ += d; }

  private:
    time_point now_{};
};

/**
 * Transport whose recv() replays @p chunks in order (then EOF),
 * advancing @p clock by @p perRecv on each call.
 */
class ScriptedTransport final : public Transport
{
  public:
    ScriptedTransport(std::vector<std::string> chunks, Clock &clock,
                      std::chrono::milliseconds perRecv = {})
        : chunks_(std::move(chunks)), clock_(clock), perRecv_(perRecv)
    {
    }

    Result<void>
    send(std::string_view, std::chrono::milliseconds) override
    {
        return {};
    }

    Result<std::string>
    recv(std::chrono::milliseconds) override
    {
        ++recvCalls;
        clock_.sleepFor(perRecv_);
        if (next_ == chunks_.size())
            return std::string(); // EOF
        return chunks_[next_++];
    }

    void close() override {}

    int recvCalls = 0;

  private:
    std::vector<std::string> chunks_;
    std::size_t next_ = 0;
    Clock &clock_;
    std::chrono::milliseconds perRecv_;
};

const std::chrono::milliseconds kForever{-1};

std::uint64_t
nonceOf(const Result<Frame> &frame)
{
    EXPECT_TRUE(frame.ok());
    if (!frame.ok())
        return 0;
    const auto ping = Ping::decode(frame.value().payload);
    EXPECT_TRUE(ping.ok());
    return ping.ok() ? ping.value().nonce : 0;
}

TEST(ReadFrame, ReassemblesAFrameDeliveredOneBytePerRecv)
{
    const std::string bytes = pingBytes(7);
    std::vector<std::string> chunks;
    for (const char c : bytes)
        chunks.emplace_back(1, c);
    ManualClock clock;
    ScriptedTransport transport(chunks, clock);
    std::string buf;
    EXPECT_EQ(nonceOf(readFrame(transport, buf, kForever, clock)), 7u);
    EXPECT_EQ(transport.recvCalls, static_cast<int>(bytes.size()));
    EXPECT_TRUE(buf.empty());
}

TEST(ReadFrame, LeavesTheSecondOfTwoCoalescedFramesInTheBuffer)
{
    ManualClock clock;
    ScriptedTransport transport({pingBytes(1) + pingBytes(2)}, clock);
    std::string buf;
    EXPECT_EQ(nonceOf(readFrame(transport, buf, kForever, clock)), 1u);
    EXPECT_EQ(buf, pingBytes(2));
    // The second frame parses from the buffer without another recv().
    EXPECT_EQ(nonceOf(readFrame(transport, buf, kForever, clock)), 2u);
    EXPECT_EQ(transport.recvCalls, 1);
    EXPECT_TRUE(buf.empty());
}

TEST(ReadFrame, EofMidFrameIsIo)
{
    ManualClock clock;
    ScriptedTransport transport({pingBytes(1).substr(0, 5)}, clock);
    std::string buf;
    const auto frame = readFrame(transport, buf, kForever, clock);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::Io);
    EXPECT_EQ(transport.recvCalls, 2);
}

TEST(ReadFrame, FramingDamageReturnsWithoutAnotherRecv)
{
    std::string damaged = pingBytes(1);
    damaged.back() ^= 0x40; // payload byte: the CRC no longer matches
    ManualClock clock;
    ScriptedTransport transport({damaged, pingBytes(2)}, clock);
    std::string buf;
    const auto frame = readFrame(transport, buf, kForever, clock);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::Corrupt);
    EXPECT_EQ(transport.recvCalls, 1);
}

TEST(ReadFrame, SpentBudgetTimesOutWithoutCallingRecv)
{
    ManualClock clock;
    ScriptedTransport idle({pingBytes(1)}, clock);
    std::string buf;
    auto frame =
        readFrame(idle, buf, std::chrono::milliseconds{0}, clock);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::Timeout);
    EXPECT_EQ(idle.recvCalls, 0);

    // A 30 ms budget buys three 10 ms one-byte reads, then no more.
    const std::string bytes = pingBytes(1);
    std::vector<std::string> chunks;
    for (const char c : bytes)
        chunks.emplace_back(1, c);
    ScriptedTransport slow(chunks, clock, std::chrono::milliseconds{10});
    frame = readFrame(slow, buf, std::chrono::milliseconds{30}, clock);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::Timeout);
    EXPECT_EQ(slow.recvCalls, 3);
    EXPECT_EQ(buf, bytes.substr(0, 3));
}

} // namespace
} // namespace bvf::server
