/**
 * @file
 * Fleet coordinator implementation.
 */

#include "fleet/coordinator.hh"

#include <optional>
#include <set>

#include "common/crc32.hh"
#include "common/logging.hh"

namespace bvf::fleet
{

using server::Frame;
using server::MsgType;

namespace
{

std::vector<std::string>
workerIds(const std::vector<WorkerAddress> &workers)
{
    std::vector<std::string> ids;
    ids.reserve(workers.size());
    for (const auto &w : workers)
        ids.push_back(w.id());
    return ids;
}

/** Is this response an application-level rejection of the job? */
bool
isAppError(const Frame &frame)
{
    return frame.type == MsgType::ErrorResponse;
}

/** Decode the ErrorCode an ErrorResponse carries (Unknown on junk). */
ErrorCode
appErrorCode(const Frame &frame)
{
    auto wire = server::WireError::decode(frame.payload);
    if (!wire.ok())
        return ErrorCode::Corrupt;
    return static_cast<ErrorCode>(wire.value().code);
}

/**
 * Is this ErrorResponse really a framing complaint? A worker answers
 * Corrupt/Truncated/Unsupported when the *request stream* failed CRC
 * or framing on its side -- which means the bytes were damaged en
 * route, not that the job is bad. Treating it as the job's verdict
 * would quarantine a perfectly good job because a wire hiccuped. A
 * well-framed request the worker refuses never carries these codes
 * (RequestHandler reports it as InvalidArgument).
 */
bool
isFramingError(ErrorCode code)
{
    return code == ErrorCode::Corrupt || code == ErrorCode::Truncated
           || code == ErrorCode::Unsupported;
}

} // namespace

Coordinator::Coordinator(FleetOptions options)
    : options_(std::move(options)), ring_(workerIds(options_.workers)),
      rng_(options_.jitterSeed)
{
    panic_if(options_.workers.empty(),
             "fleet coordinator needs at least one worker");
    clients_.reserve(options_.workers.size());
    health_.assign(options_.workers.size(),
                   WorkerHealth(options_.deadThreshold));
    breakers_.reserve(options_.workers.size());
    for (std::size_t i = 0; i < options_.workers.size(); ++i) {
        const auto &addr = options_.workers[i];
        WorkerClient::DialFn dial;
        if (options_.dialFactory)
            dial = options_.dialFactory(i, addr);
        clients_.push_back(std::make_unique<WorkerClient>(
            addr, std::move(dial), options_.clock));
        breakers_.emplace_back(options_.breakerThreshold,
                               options_.breakerCooldown);
    }
}

Clock::time_point
Coordinator::timeNow()
{
    return options_.clock ? options_.clock->now() : systemClock().now();
}

Coordinator::~Coordinator()
{
    stop();
}

void
Coordinator::start()
{
    if (options_.heartbeatInterval.count() <= 0 || heartbeat_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        stopping_ = false;
    }
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
}

void
Coordinator::stop()
{
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        stopping_ = true;
    }
    stopCv_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
    for (auto &client : clients_)
        client->closeAll();
}

bool
Coordinator::pingWorker(std::size_t index)
{
    server::Ping ping;
    ping.nonce = pingNonce_.fetch_add(1);
    Frame frame{MsgType::PingRequest, ping.encode()};
    // A saturated worker parks pings behind long-running jobs, so a
    // probe bounded by one short interval flaps Alive/Dead under load.
    // A dead endpoint still fails fast (the connect itself errors);
    // the floor only buys a busy-but-alive worker time to answer.
    auto deadline = std::max(options_.heartbeatInterval,
                             options_.heartbeatFloor);
    auto reply = clients_[index]->request(frame, deadline);
    return reply.ok() && reply.value().type == MsgType::PingResponse;
}

void
Coordinator::heartbeatLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(stopMutex_);
            stopCv_.wait_for(lock, options_.heartbeatInterval,
                             [this] { return stopping_; });
            if (stopping_)
                return;
        }
        probeWorkersOnce();
    }
}

void
Coordinator::probeWorkersOnce()
{
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        const bool up = pingWorker(i);
        std::lock_guard<std::mutex> lock(mutex_);
        if (up) {
            health_[i].onSuccess();
            // A pong proves liveness, not capacity. An *open* breaker
            // means live traffic was failing (or the worker said
            // Overloaded); letting a cheap heartbeat close it would
            // re-flood a saturated worker and defeat the half-open
            // single-probe discipline. Only real request outcomes may
            // close an open breaker.
            if (!breakers_[i].open())
                breakers_[i].onSuccess();
        } else {
            health_[i].onFailure();
        }
    }
}

Result<Frame>
Coordinator::execute(const Frame &frame, std::string_view routeKey,
                     ExecuteInfo *info)
{
    requests_.fetch_add(1);
    const std::vector<std::size_t> order = ring_.route(routeKey);

    std::set<std::size_t> appErrorWorkers;
    std::optional<Frame> appError;
    std::optional<Error> lastTransport;
    int transportFailures = 0;

    for (int attempt = 0; attempt < options_.maxAttempts; ++attempt) {
        if (attempt > 0) {
            std::chrono::milliseconds delay{0};
            {
                std::lock_guard<std::mutex> lock(mutex_);
                delay = backoffDelay(options_.backoffBase, attempt - 1,
                                     rng_);
            }
            if (delay.count() > 0) {
                if (options_.clock) {
                    // Simulated time: advance rather than block.
                    options_.clock->sleepFor(delay);
                } else {
                    // Interruptible sleep so stop() is never held
                    // hostage by a retry pass.
                    std::unique_lock<std::mutex> lock(stopMutex_);
                    stopCv_.wait_for(lock, delay,
                                     [this] { return stopping_; });
                    if (stopping_)
                        break;
                }
            }
        }

        for (const std::size_t w : order) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (health_[w].state() == WorkerState::Dead)
                    continue;
                if (appErrorWorkers.count(w))
                    continue; // this worker's verdict is already in
                if (!breakers_[w].allow(timeNow()))
                    continue;
            }

            auto reply =
                clients_[w]->request(frame, options_.requestDeadline);
            const auto now = timeNow();

            if (!reply.ok()) {
                // Transport failure: the worker is in trouble, the
                // job is not. Strike, fail over, never re-pool the
                // tainted connections.
                clients_[w]->closeAll();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    health_[w].onFailure();
                    breakers_[w].onFailure(now);
                }
                ++transportFailures;
                lastTransport = reply.error();
                continue;
            }

            Frame answer = std::move(reply.value());
            if (isAppError(answer)
                && appErrorCode(answer) == ErrorCode::Overloaded) {
                // Alive but saturated: health credit, breaker strike,
                // and the job moves on.
                std::lock_guard<std::mutex> lock(mutex_);
                health_[w].onSuccess();
                breakers_[w].onFailure(now);
                continue;
            }
            if (isAppError(answer)
                && isFramingError(appErrorCode(answer))) {
                // The worker is complaining about the *bytes*, not the
                // job: our request was damaged en route (or the stream
                // desynced). Same reaction as a transport failure --
                // strike, drop the tainted connections, fail over --
                // and crucially NOT a quarantine verdict against the
                // job.
                clients_[w]->closeAll();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    health_[w].onFailure();
                    breakers_[w].onFailure(now);
                }
                ++transportFailures;
                lastTransport =
                    Error{appErrorCode(answer),
                          "worker reported request framing damage"};
                continue;
            }

            {
                std::lock_guard<std::mutex> lock(mutex_);
                health_[w].onSuccess();
                breakers_[w].onSuccess();
            }

            if (!isAppError(answer)) {
                // Served by someone other than the ring primary --
                // whether the primary failed mid-request or was
                // already marked dead and skipped, the job failed
                // over either way.
                if (w != order.front())
                    failovers_.fetch_add(1);
                if (info) {
                    info->worker = w;
                    info->transportFailures = transportFailures;
                    info->distinctAppErrorWorkers =
                        static_cast<int>(appErrorWorkers.size());
                }
                return answer;
            }

            // A healthy worker rejected the job. One opinion might be
            // a sick worker; a second distinct worker convicts the
            // job itself.
            appErrorWorkers.insert(w);
            appError = std::move(answer);
            if (appErrorWorkers.size() >= 2
                || appErrorWorkers.size() >= order.size()) {
                quarantined_.fetch_add(1);
                if (info) {
                    info->worker = w;
                    info->transportFailures = transportFailures;
                    info->distinctAppErrorWorkers =
                        static_cast<int>(appErrorWorkers.size());
                }
                return *appError;
            }
        }
    }

    if (appError) {
        // Ran out of second opinions (everyone else was down); the
        // one verdict we have stands.
        quarantined_.fetch_add(1);
        if (info) {
            info->transportFailures = transportFailures;
            info->distinctAppErrorWorkers =
                static_cast<int>(appErrorWorkers.size());
        }
        return *appError;
    }
    if (info)
        info->transportFailures = transportFailures;
    if (lastTransport)
        return *lastTransport;
    overloaded_.fetch_add(1);
    return Error{ErrorCode::Overloaded,
                 "no live worker available for this job"};
}

std::function<Frame(const Frame &)>
Coordinator::proxyHandler()
{
    return [this](const Frame &frame) -> Frame {
        auto result = execute(frame, routeKeyForFrame(frame));
        if (result.ok())
            return std::move(result.value());
        server::WireError wire;
        wire.code = static_cast<std::uint8_t>(result.error().code);
        wire.message = result.error().message;
        return Frame{MsgType::ErrorResponse, wire.encode()};
    };
}

WorkerState
Coordinator::workerState(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return health_[index].state();
}

bool
Coordinator::breakerOpen(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return breakers_[index].open();
}

FleetStats
Coordinator::stats() const
{
    FleetStats s;
    s.requests = requests_.load();
    s.failovers = failovers_.load();
    s.overloaded = overloaded_.load();
    s.quarantined = quarantined_.load();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < health_.size(); ++i) {
        s.deaths += health_[i].deaths();
        s.revivals += health_[i].revivals();
        s.breakerOpens += breakers_[i].timesOpened();
    }
    return s;
}

std::string
Coordinator::routeKeyForFrame(const Frame &frame)
{
    if (auto key = server::requestRouteKey(frame))
        return std::move(*key);
    return strFormat("payload:%08x",
                     crc32(frame.payload.data(), frame.payload.size()));
}

} // namespace bvf::fleet
