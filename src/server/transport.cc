/**
 * @file
 * SocketTransport: poll()-bounded socket I/O, and readFrame().
 *
 * The server, the fleet's WorkerClient and bvf_client share this one
 * deadline discipline: every blocking step -- connect, write, read --
 * rides poll() with the remaining budget, so a peer that was
 * SIGKILLed mid-request surfaces as Timeout (or Io on a reset)
 * instead of hanging the caller.
 */

#include "server/transport.hh"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace bvf::server
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

/** Remaining poll() budget in ms; <= 0 deadline means "infinite". */
int
remainingMs(SteadyClock::time_point start,
            std::chrono::milliseconds deadline)
{
    if (deadline.count() <= 0)
        return -1; // poll(): wait forever
    const auto spent =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            SteadyClock::now() - start);
    const auto left = deadline - spent;
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/** Wait until @p fd is ready for @p events or the budget is gone. */
Result<void>
waitReady(int fd, short events, SteadyClock::time_point start,
          std::chrono::milliseconds deadline)
{
    for (;;) {
        const int budget = remainingMs(start, deadline);
        if (budget == 0)
            return Error{ErrorCode::Timeout, "transport deadline expired"};
        pollfd p = {fd, events, 0};
        const int rc = ::poll(&p, 1, budget);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return Error{ErrorCode::Io, std::strerror(errno)};
        }
        if (rc == 0)
            return Error{ErrorCode::Timeout, "transport deadline expired"};
        if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
            // Readable-with-hangup still delivers buffered bytes.
            if (!(p.revents & POLLIN) || !(events & POLLIN))
                return Error{ErrorCode::Io, "connection lost"};
        }
        return {};
    }
}

/** Finish a (possibly in-progress) non-blocking connect on @p fd. */
Result<TransportPtr>
finishConnect(int fd, int rc, const std::string &what,
              SteadyClock::time_point start,
              std::chrono::milliseconds deadline)
{
    if (rc != 0 && errno == EINPROGRESS) {
        auto ready = waitReady(fd, POLLOUT, start, deadline);
        if (!ready.ok()) {
            ::close(fd);
            return ready.error();
        }
        int soErr = 0;
        socklen_t len = sizeof(soErr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soErr, &len);
        if (soErr != 0) {
            ::close(fd);
            return Error{ErrorCode::Io,
                         strFormat("connect %s: %s", what.c_str(),
                                   std::strerror(soErr))};
        }
    } else if (rc != 0) {
        const int err = errno;
        ::close(fd);
        return Error{ErrorCode::Io, strFormat("connect %s: %s",
                                              what.c_str(),
                                              std::strerror(err))};
    }
    return TransportPtr(new SocketTransport(fd));
}

} // namespace

Result<void>
SocketTransport::send(std::string_view bytes,
                      std::chrono::milliseconds deadline)
{
    if (fd_ < 0)
        return Error{ErrorCode::Io, "transport is closed"};
    const auto start = SteadyClock::now();
    std::size_t off = 0;
    while (off < bytes.size()) {
        auto ready = waitReady(fd_, POLLOUT, start, deadline);
        if (!ready.ok())
            return ready.error();
        const ssize_t n = ::send(fd_, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN
                || errno == EWOULDBLOCK) {
                continue;
            }
            return Error{ErrorCode::Io, std::strerror(errno)};
        }
        off += static_cast<std::size_t>(n);
    }
    return {};
}

Result<std::string>
SocketTransport::recv(std::chrono::milliseconds deadline)
{
    if (fd_ < 0)
        return Error{ErrorCode::Io, "transport is closed"};
    const auto start = SteadyClock::now();
    char chunk[4096];
    for (;;) {
        auto ready = waitReady(fd_, POLLIN, start, deadline);
        if (!ready.ok())
            return ready.error();
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n == 0)
            return std::string(); // orderly EOF
        if (n > 0)
            return std::string(chunk, static_cast<std::size_t>(n));
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            continue;
        return Error{ErrorCode::Io, std::strerror(errno)};
    }
}

void
SocketTransport::close()
{
    if (fd_ < 0)
        return;
    ::close(fd_);
    fd_ = -1;
}

Result<TransportPtr>
SocketTransport::dialTcp(const std::string &host, int port,
                         std::chrono::milliseconds deadline)
{
    const auto start = SteadyClock::now();
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    addrinfo *res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                 &hints, &res);
    if (rc != 0) {
        return Error{ErrorCode::Io, strFormat("cannot resolve %s: %s",
                                              host.c_str(),
                                              ::gai_strerror(rc))};
    }
    const std::string what = strFormat("%s:%d", host.c_str(), port);
    Result<TransportPtr> dialed =
        Error{ErrorCode::Io, "no address for " + what};
    for (addrinfo *ai = res; ai && !dialed.ok(); ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family,
                                ai->ai_socktype | SOCK_NONBLOCK,
                                ai->ai_protocol);
        if (fd < 0) {
            dialed = Error{ErrorCode::Io, "socket(): out of descriptors"};
            continue;
        }
        const int connected = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        dialed = finishConnect(fd, connected, what, start, deadline);
    }
    ::freeaddrinfo(res);
    return dialed;
}

Result<TransportPtr>
SocketTransport::dialUnix(const std::string &path,
                          std::chrono::milliseconds deadline)
{
    const auto start = SteadyClock::now();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return Error{ErrorCode::Io, "socket(): out of descriptors"};
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return Error{ErrorCode::InvalidArgument,
                     "unix socket path too long"};
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
    return finishConnect(fd, rc, "unix:" + path, start, deadline);
}

Result<Frame>
readFrame(Transport &transport, std::string &buf,
          std::chrono::milliseconds budget, Clock &clock)
{
    const auto start = clock.now();
    for (;;) {
        std::size_t consumed = 0;
        auto parsed = parseFrame(buf, consumed);
        if (parsed.ok()) {
            buf.erase(0, consumed);
            return parsed;
        }
        if (parsed.error().code != ErrorCode::Truncated)
            return parsed; // the stream offset is unreliable now
        auto left = std::chrono::milliseconds{-1}; // forever
        if (budget.count() >= 0) {
            left = budget
                   - std::chrono::duration_cast<std::chrono::milliseconds>(
                       clock.now() - start);
            if (left.count() <= 0)
                return Error{ErrorCode::Timeout, "response deadline expired"};
        }
        auto got = transport.recv(left);
        if (!got.ok())
            return got.error();
        if (got.value().empty())
            return Error{ErrorCode::Io, "peer hung up mid-frame"};
        buf.append(got.value());
    }
}

} // namespace bvf::server
