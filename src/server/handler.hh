/**
 * @file
 * Request execution, separated from socket plumbing.
 *
 * A RequestHandler turns one decoded request frame into one response
 * frame. It is stateless apart from immutable configuration, so any
 * number of pool workers may call handle() concurrently -- every
 * simulation builds its own machine, accountant and RNG streams, which
 * is the same property that makes the parallel campaign deterministic.
 *
 * Failures never escape as exceptions: a malformed payload, an unknown
 * application or a pricing rejection comes back as an ErrorResponse
 * frame, so one bad request cannot take down the connection, let alone
 * the daemon. The frame's CRC was checked before the handler sees it,
 * so such an error is the request's own verdict: it never carries a
 * framing code (Corrupt, Truncated, Unsupported), which the fleet reads
 * as wire damage.
 */

#ifndef BVF_SERVER_HANDLER_HH
#define BVF_SERVER_HANDLER_HH

#include <memory>

#include "core/experiment.hh"
#include "server/kernel_store.hh"
#include "server/protocol.hh"

namespace bvf::server
{

/** Executes decoded requests. Thread-safe; share one per daemon. */
class RequestHandler
{
  public:
    RequestHandler() : kernels_(std::make_shared<KernelStore>()) {}

    /**
     * Execute @p request and build the response frame. Request frames
     * with a response type are themselves answered with ErrorResponse
     * (a client must never speak response types).
     */
    Frame handle(const Frame &request) const;

    /** Admission store shared by every worker (metrics, lookups). */
    const KernelStore &kernelStore() const { return *kernels_; }

  private:
    /**
     * The one request path: decode @p request as Req, run it with
     * fatal() trapped and frame the response as @p responseType.
     */
    template <typename Req>
    Frame serve(const Frame &request, MsgType responseType) const;

    // What each request computes, given its decoded payload.
    Result<Ping> run(const Ping &req) const;
    Result<EvalCoderResponse> run(const EvalCoderRequest &req) const;
    Result<BitDensityResponse> run(const BitDensityRequest &req) const;
    Result<ChipEnergyResponse> run(const ChipEnergyRequest &req) const;
    Result<StaticQueryResponse> run(const StaticQueryRequest &req) const;
    Result<StaticAdviceResponse> run(const StaticAdviceRequest &req) const;
    Result<SubmitKernelResponse> run(const SubmitKernelRequest &req) const;
    Result<EvalSubmittedResponse>
    run(const EvalSubmittedRequest &req) const;

    /**
     * Shared (not a value) so RequestHandler stays copyable -- copies
     * used by transports and the fleet proxy all see one store.
     */
    std::shared_ptr<KernelStore> kernels_;
};

/** Build an ErrorResponse frame from a structured error. */
Frame errorFrame(const Error &error);

} // namespace bvf::server

#endif // BVF_SERVER_HANDLER_HH
