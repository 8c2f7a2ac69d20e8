/**
 * @file
 * Byte-stream transport seam and the one frame reader.
 *
 * Every byte bvfd and its clients move goes through Transport: the
 * server's per-connection reader, response writer and /metrics reply,
 * the fleet's WorkerClient, and bvf_client. SocketTransport is the
 * production poll()-bounded implementation; the simulation harness
 * (sim/sim_net.hh) substitutes an in-memory one whose fault schedule
 * is driven from a seed, so a frame truncated inside its CRC, a
 * duplicated response or a reset mid-write can be provoked without
 * real sockets. readFrame() is the one "parse, read more, parse
 * again" loop every client uses.
 *
 * Semantics both implementations honour:
 *  - send() writes the whole buffer or fails; a deadline of <= 0ms
 *    means "block forever". It never raises SIGPIPE.
 *  - recv() returns at least one byte, or an empty string on orderly
 *    EOF, or an error (Timeout when the budget ran out, Io on reset).
 *  - full-duplex: one thread may sit in recv() while another send()s;
 *    implementations keep no state shared between the directions.
 */

#ifndef BVF_SERVER_TRANSPORT_HH
#define BVF_SERVER_TRANSPORT_HH

#include <chrono>
#include <memory>
#include <string>
#include <string_view>

#include "common/clock.hh"
#include "common/result.hh"
#include "server/protocol.hh"

namespace bvf::server
{

/** One bidirectional byte stream. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Write all of @p bytes within @p deadline (<= 0 blocks forever). */
    virtual Result<void> send(std::string_view bytes,
                              std::chrono::milliseconds deadline) = 0;

    /**
     * Read some bytes within @p deadline (<= 0 blocks forever).
     * Empty string = orderly EOF.
     */
    virtual Result<std::string>
    recv(std::chrono::milliseconds deadline) = 0;

    /** Tear the stream down; further send/recv fail. Idempotent. */
    virtual void close() = 0;
};

using TransportPtr = std::unique_ptr<Transport>;

/** poll()-driven Transport over a connected socket descriptor. */
class SocketTransport final : public Transport
{
  public:
    /** Take ownership of @p fd: close() and the destructor close it. */
    explicit SocketTransport(int fd) : fd_(fd) {}

    ~SocketTransport() override { close(); }

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    Result<void> send(std::string_view bytes,
                      std::chrono::milliseconds deadline) override;
    Result<std::string> recv(std::chrono::milliseconds deadline) override;
    void close() override;

    /**
     * Deadline-bounded non-blocking connect to @p host:@p port. The
     * host is resolved with getaddrinfo() (a name, an IPv4 or an IPv6
     * literal) and each address is tried in order within the one
     * deadline.
     */
    static Result<TransportPtr>
    dialTcp(const std::string &host, int port,
            std::chrono::milliseconds deadline);

    /** Deadline-bounded connect to a Unix-domain socket at @p path. */
    static Result<TransportPtr>
    dialUnix(const std::string &path, std::chrono::milliseconds deadline);

  private:
    int fd_ = -1;
};

/**
 * Read one frame from @p transport into @p buf: parse what @p buf
 * holds, and while it is Truncated recv() more, spending at most
 * @p budget as measured on @p clock (< 0 blocks forever, 0 is already
 * spent). The frame's bytes leave @p buf; any bytes past it stay.
 * Framing damage comes back as parseFrame's error, a spent budget as
 * Timeout, and EOF mid-frame as Io.
 */
Result<Frame> readFrame(Transport &transport, std::string &buf,
                        std::chrono::milliseconds budget, Clock &clock);

} // namespace bvf::server

#endif // BVF_SERVER_TRANSPORT_HH
