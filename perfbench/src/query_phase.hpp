/**
 * @file
 * The fccserve path: a seeded pool of flow, window and top-talker
 * requests over the workload's catalog, their expected answers from
 * the in-process ArchiveCatalog, and a closed loop of QueryClient
 * connections against an in-process QueryServer on a Unix socket.
 */

#ifndef PERFBENCH_QUERY_PHASE_HPP
#define PERFBENCH_QUERY_PHASE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "query/server.hpp"
#include "setup.hpp"

namespace perfbench {

/** The three request kinds, equally likely in the closed loop. */
enum class Op : uint8_t
{
    Flow,   ///< `server = A`: every packet of one server's flows
    Window, ///< `time within [t, t + 1 s]`
    Agg,    ///< top-10 talkers over a 10 s flow-start window
};

/** "flow", "window", "agg". */
const char *opName(Op op);

/** One pooled request and its expected answer. */
struct Request
{
    Op op = Op::Flow;
    std::string expr;      ///< query grammar text
    uint64_t packets = 0;  ///< expected packet count (flow, window)
    uint64_t hash = 0;     ///< expected hash of the TSH records
    std::string rendered;  ///< expected aggregate rendering (agg)
};

/** Requests per kind in the pool. */
constexpr size_t requestsPerOp = 32;

/**
 * Draw the pool from @p seed, in the seeded order the closed loop
 * cycles through: flow servers stratified over the capture's servers
 * ranked by connections, window starts stratified over the span in
 * which the capture opens connections — each stratum one uniform
 * draw, so every server (and every start time) is equally likely
 * while each seed sees the same spread of request costs.
 */
std::vector<Request> makePool(const Inputs &in, uint64_t seed);

/**
 * Answer every pooled request in process through the catalog and
 * store the answers as the expected ones. With tracing on, each
 * request is a query.request span (request id = pool index + 1) with
 * query.plan (FccArchive::plan over every member), query.run (the
 * catalog run) and, when @p client is given, query.rpc (the same
 * request through the server, checked against the in-process
 * answer) children; the per-op query.* layer metrics are added.
 */
void answerPool(std::vector<Request> &pool, const Inputs &in,
                Tracer &tracer, fcc::query::QueryClient *client,
                Outcome &outcome, Metrics &metrics);

/** The catalog served on a Unix socket for the life of the object. */
class ServedCatalog
{
  public:
    ServedCatalog(const Inputs &in, const std::string &socketPath);
    ~ServedCatalog();

    ServedCatalog(const ServedCatalog &) = delete;
    ServedCatalog &operator=(const ServedCatalog &) = delete;

    const fcc::util::SocketEndpoint &
    endpoint() const
    {
        return server_.endpoint();
    }
    uint64_t requestsServed() const { return server_.requestsServed(); }

  private:
    std::string socketPath_;
    fcc::query::QueryServer server_;
    std::thread thread_;
};

/**
 * The closed loop: queryClients connections, each sending the next
 * pool request (cycling in pool order) when its previous one
 * returns, every answer checked against the pool's expected one.
 * The loop runs in segments between codec rounds; samples and the
 * pool cursor carry over from one segment to the next.
 */
class QueryLoad
{
  public:
    /** @p pool and @p served must outlive the load. */
    QueryLoad(const std::vector<Request> &pool,
              const ServedCatalog &served);

    /** Run the loop for @p seconds; requests in flight complete. */
    void run(double seconds);

    /** Count the requests in @p outcome, add query_flow_p50_ms,
     *  query_flow_p90_ms and query_ops_per_s, and print every
     *  operation's sample count and percentiles. */
    void report(Outcome &outcome, Metrics &metrics) const;

  private:
    const std::vector<Request> &pool_;
    const ServedCatalog &served_;
    std::atomic<uint64_t> next_{0};
    std::vector<double> ms_[3];
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    double busyS_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_QUERY_PHASE_HPP
