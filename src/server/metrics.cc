/**
 * @file
 * Metrics implementation.
 */

#include "server/metrics.hh"

#include <algorithm>

#include "common/logging.hh"

namespace bvf::server
{

void
LatencyHistogram::record(std::chrono::nanoseconds latency)
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        latency)
                        .count();
    int bucket = 0;
    std::uint64_t edge = 1;
    while (bucket < kBuckets - 1
           && static_cast<std::uint64_t>(us < 0 ? 0 : us) > edge) {
        edge <<= 1;
        ++bucket;
    }
    buckets_[static_cast<std::size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
}

std::uint64_t
LatencyHistogram::count() const
{
    std::uint64_t total = 0;
    for (const auto &b : buckets_)
        total += b.load(std::memory_order_relaxed);
    return total;
}

double
LatencyHistogram::bucketEdge(int i)
{
    return static_cast<double>(1ull << i) * 1e-6;
}

double
LatencyHistogram::quantile(double q) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
        if (seen > rank)
            return bucketEdge(i);
    }
    return bucketEdge(kBuckets - 1);
}

void
Metrics::onRequest(MsgType type)
{
    requests_[msgRow(type)].fetch_add(1, std::memory_order_relaxed);
}

void
Metrics::onResponse(MsgType type, std::chrono::nanoseconds latency)
{
    responses_[msgRow(type)].fetch_add(1, std::memory_order_relaxed);
    latency_.record(latency);
}

void
Metrics::onError(MsgType requestType)
{
    errors_[msgRow(requestType)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Metrics::errors(MsgType requestType) const
{
    return errors_[msgRow(requestType)].load(std::memory_order_relaxed);
}

std::uint64_t
Metrics::errorsTotal() const
{
    std::uint64_t total = 0;
    for (const auto &c : errors_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

double
Metrics::uptimeSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - started_)
        .count();
}

std::uint64_t
Metrics::requestsTotal() const
{
    std::uint64_t total = 0;
    for (const auto &c : requests_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
Metrics::responsesTotal() const
{
    std::uint64_t total = 0;
    for (const auto &c : responses_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

std::string
Metrics::render(std::size_t queueDepth, int workers,
                double utilization) const
{
    std::string out;
    out += "# bvfd metrics\n";
    const auto family = [&](const char *metric, const Counters &counters) {
        for (std::size_t i = 0; i < kMsgRows; ++i) {
            // The label is the message table's family name, snake_case.
            std::string label(msgRowName(i));
            std::replace(label.begin(), label.end(), '-', '_');
            out += strFormat("bvfd_%s{type=\"%s\"} %llu\n", metric,
                             label.c_str(),
                             static_cast<unsigned long long>(
                                 counters[i].load()));
        }
    };
    family("requests_total", requests_);
    family("responses_total", responses_);
    family("request_errors_total", errors_);
    out += strFormat("bvfd_protocol_errors_total %llu\n",
                     static_cast<unsigned long long>(
                         protocolErrors_.load()));
    out += strFormat("bvfd_connections_total %llu\n",
                     static_cast<unsigned long long>(connections_.load()));
    out += strFormat("bvfd_bytes_in_total %llu\n",
                     static_cast<unsigned long long>(bytesIn_.load()));
    out += strFormat("bvfd_bytes_out_total %llu\n",
                     static_cast<unsigned long long>(bytesOut_.load()));
    out += strFormat("bvfd_latency_seconds{quantile=\"0.5\"} %g\n",
                     latency_.quantile(0.5));
    out += strFormat("bvfd_latency_seconds{quantile=\"0.9\"} %g\n",
                     latency_.quantile(0.9));
    out += strFormat("bvfd_latency_seconds{quantile=\"0.99\"} %g\n",
                     latency_.quantile(0.99));
    out += strFormat("bvfd_latency_samples_total %llu\n",
                     static_cast<unsigned long long>(latency_.count()));
    out += strFormat("bvfd_queue_depth %zu\n", queueDepth);
    out += strFormat("bvfd_workers %d\n", workers);
    out += strFormat("bvfd_worker_utilization %g\n", utilization);
    out += strFormat("bvfd_uptime_seconds %g\n", uptimeSeconds());
    out += strFormat(
        "bvfd_build_info{version=\"%s\",protocol=\"%u\"} 1\n",
        kBuildVersion, static_cast<unsigned>(kProtocolVersion));
    return out;
}

} // namespace bvf::server
