#include "query_phase.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>

#include "query/aggregate.hpp"
#include "query/expr.hpp"
#include "trace/tsh.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace query = fcc::query;
namespace trace = fcc::trace;

namespace {

/** Server pool workers and client connections of the closed loop. */
constexpr uint32_t serverThreads = 2;
constexpr int queryClients = 2;
constexpr uint64_t windowUs = 1'000'000;
constexpr uint64_t aggWindowUs = 10'000'000;
constexpr uint32_t topK = 10;

constexpr Op allOps[] = {Op::Flow, Op::Window, Op::Agg};

/** Hash of packets as the 44-byte TSH records the server sends. */
class RecordHash
{
  public:
    void
    add(const trace::PacketRecord &pkt)
    {
        buf_.clear();
        trace::encodeTshRecord(pkt, buf_);
        hash_.update(buf_);
        ++packets_;
    }
    uint64_t packets() const { return packets_; }
    uint64_t value() const { return hash_.value(); }

  private:
    std::vector<uint8_t> buf_;
    Hash64 hash_;
    uint64_t packets_ = 0;
};

/** In-process catalog output: hashed, not kept. */
class HashSink final : public trace::TraceSink
{
  public:
    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        for (const trace::PacketRecord &pkt : batch)
            hash_.add(pkt);
    }
    void close() override {}
    uint64_t bytesWritten() const override
    {
        return hash_.packets() * trace::tshRecordBytes;
    }
    const RecordHash &hash() const { return hash_; }

  private:
    RecordHash hash_;
};

query::AggregateRequest
aggRequest(const std::string &expr)
{
    query::AggregateRequest req;
    req.kind = query::AggregateKind::TopTalkers;
    req.expr = query::parseExpr(expr);
    req.topK = topK;
    return req;
}

/** One answer from the server, in the form Request stores. */
struct Answer
{
    uint64_t packets = 0;
    uint64_t hash = 0;
    std::string rendered;
};

Answer
ask(query::QueryClient &client, const Request &req)
{
    Answer a;
    if (req.op == Op::Agg) {
        query::AggregateResult result = client.aggregate(
            query::AggregateKind::TopTalkers, topK, req.expr);
        a.rendered = query::renderAggregate(result, aggRequest(req.expr));
        return a;
    }
    query::QueryResponse resp = client.query(req.expr);
    RecordHash h;
    for (const trace::PacketRecord &pkt : resp.records)
        h.add(pkt);
    a.packets = resp.packets;
    a.hash = h.value();
    return a;
}

bool
matches(const Request &req, const Answer &a)
{
    if (req.op == Op::Agg)
        return a.rendered == req.rendered;
    return a.packets == req.packets && a.hash == req.hash;
}

/** Per-op accumulators of the in-process pass. */
struct OpStats
{
    std::vector<double> planS, runS, rpcOverheadS;
    double chunksDecoded = 0, chunksTotal = 0;
    double bytesRead = 0, fileBytes = 0;
    double archivesPruned = 0, archives = 0;
    double packets = 0, requests = 0;
};

} // namespace

const char *
opName(Op op)
{
    switch (op) {
    case Op::Flow: return "flow";
    case Op::Window: return "window";
    case Op::Agg: return "agg";
    }
    return "?";
}

std::vector<Request>
makePool(const Inputs &in, uint64_t seed)
{
    uint64_t state = splitmix64(seed ^ 0x51ed2705);
    auto uniform = [&] {  // in [0, 1)
        state = splitmix64(state);
        return static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    // Stratum i of n: a uniform draw inside [i/n, (i+1)/n) of a range,
    // so every seed samples the same spread of costs.
    auto stratum = [&](size_t i, double range) {
        return (static_cast<double>(i) + uniform()) /
               static_cast<double>(requestsPerOp) * range;
    };
    auto window = [&](size_t i, uint64_t lengthUs) {
        uint64_t span = in.lastUs - in.firstUs;
        uint64_t t0 = in.firstUs +
            (span > lengthUs
                 ? static_cast<uint64_t>(
                       stratum(i, static_cast<double>(span - lengthUs)))
                 : 0);
        return "time within [" + query::formatSecondsUs(t0) + ", " +
               query::formatSecondsUs(t0 + lengthUs) + "]";
    };

    std::vector<Request> pool;
    auto add = [&](Op op, std::string expr) {
        Request req;
        req.op = op;
        req.expr = std::move(expr);
        pool.push_back(std::move(req));
    };
    const std::vector<uint32_t> &servers = in.servers;
    for (size_t i = 0; i < requestsPerOp; ++i) {
        size_t rank = std::min(
            servers.size() - 1,
            static_cast<size_t>(
                stratum(i, static_cast<double>(servers.size()))));
        add(Op::Flow, "server = " + trace::formatIp(servers[rank]));
        add(Op::Window, window(i, windowUs));
        add(Op::Agg, window(i, aggWindowUs));
    }
    // The closed loop cycles through the pool in this seeded order.
    for (size_t i = pool.size() - 1; i > 0; --i) {
        state = splitmix64(state);
        std::swap(pool[i], pool[state % (i + 1)]);
    }
    return pool;
}

void
answerPool(std::vector<Request> &pool, const Inputs &in, Tracer &tracer,
           query::QueryClient *client, Outcome &outcome,
           Metrics &metrics)
{
    const query::ArchiveCatalog &catalog = *in.catalog;
    OpStats stats[3];
    for (size_t i = 0; i < pool.size(); ++i) {
        Request &req = pool[i];
        OpStats &st = stats[static_cast<size_t>(req.op)];
        uint64_t id = i + 1;
        SpanScope root(tracer, "query.request", id);
        query::Expr expr = query::parseExpr(req.expr);

        int plan = tracer.open("query.plan", id);
        for (size_t a = 0; a < catalog.size(); ++a)
            if (catalog.archive(a).hasIndex() &&
                catalog.archive(a).plan(expr).empty())
                ++st.archivesPruned;
        tracer.close(plan);
        st.archives += static_cast<double>(catalog.size());

        int run = tracer.open("query.run", id);
        if (req.op == Op::Agg) {
            query::AggregateRequest agg = aggRequest(req.expr);
            query::AggregateResult result = catalog.aggregate(agg);
            req.rendered = query::renderAggregate(result, agg);
            tracer.close(run);
            for (const query::ServerAggregate &row : result.servers)
                st.packets += static_cast<double>(row.packets);
            st.chunksDecoded +=
                static_cast<double>(result.stats.chunksPlanned);
            st.chunksTotal += static_cast<double>(result.stats.chunksTotal);
            st.bytesRead += static_cast<double>(result.stats.bytesTouched);
            st.fileBytes += static_cast<double>(result.stats.fileBytes);
        } else {
            HashSink sink;
            query::CatalogQueryStats qs = catalog.run(expr, sink);
            tracer.close(run);
            req.packets = sink.hash().packets();
            req.hash = sink.hash().value();
            st.packets += static_cast<double>(req.packets);
            st.chunksDecoded += static_cast<double>(qs.chunksDecoded);
            st.chunksTotal += static_cast<double>(qs.chunksTotal);
            st.bytesRead += static_cast<double>(qs.bytesRead);
            st.fileBytes += static_cast<double>(qs.fileBytes);
        }
        st.requests += 1;
        st.planS.push_back(tracer.duration(plan));
        st.runS.push_back(tracer.duration(run));

        if (client != nullptr) {
            int rpc = tracer.open("query.rpc", id);
            Answer answer = ask(*client, req);
            tracer.close(rpc);
            outcome.check(matches(req, answer),
                          std::string("server answer to ") + req.expr +
                              " equals the catalog's");
            st.rpcOverheadS.push_back(tracer.duration(rpc) -
                                      tracer.duration(run));
        }
    }
    if (!tracer.enabled())
        return;

    auto frac = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    for (Op op : allOps) {
        const OpStats &st = stats[static_cast<size_t>(op)];
        std::string p = std::string("query.") + opName(op) + ".";
        metrics.add(p + "plan_s", median(st.planS), "s");
        metrics.add(p + "run_s", median(st.runS), "s");
        metrics.add(p + "rpc_overhead_s", median(st.rpcOverheadS), "s");
        metrics.add(p + "chunks_decoded_frac",
                    frac(st.chunksDecoded, st.chunksTotal), "fraction");
        metrics.add(p + "bytes_read_frac",
                    frac(st.bytesRead, st.fileBytes), "fraction");
        metrics.add(p + "archives_pruned_frac",
                    frac(st.archivesPruned, st.archives), "fraction");
        metrics.add(p + "packets_per_request",
                    frac(st.packets, st.requests), "packets");
    }
}

namespace {

query::ServerConfig
serverConfig()
{
    query::ServerConfig cfg;
    cfg.threads = serverThreads;
    return cfg;
}

} // namespace

ServedCatalog::ServedCatalog(const Inputs &in,
                             const std::string &socketPath)
    : socketPath_(socketPath),
      server_(*in.catalog,
              fcc::util::SocketEndpoint::parse("unix:" + socketPath),
              serverConfig()),
      thread_([this] { server_.serve(); })
{
}

ServedCatalog::~ServedCatalog()
{
    server_.stop();
    thread_.join();
    std::error_code ec;
    std::filesystem::remove(socketPath_, ec);
}

QueryLoad::QueryLoad(const std::vector<Request> &pool,
                     const ServedCatalog &served)
    : pool_(pool), served_(served)
{
}

void
QueryLoad::run(double seconds)
{
    struct Client
    {
        std::vector<double> ms[3];
        uint64_t attempted = 0;
        uint64_t failed = 0;
        std::string error;
    };
    Client clients[queryClients];
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));

    // Each thread owns its Client; next_ is the one shared cursor.
    auto loop = [&](Client &c) {
        bool inRequest = false;
        try {
            query::QueryClient client(served_.endpoint());
            while (Clock::now() < deadline) {
                const Request &req = pool_[next_++ % pool_.size()];
                Clock::time_point t0 = Clock::now();
                ++c.attempted;
                inRequest = true;
                Answer answer = ask(client, req);
                inRequest = false;
                if (!matches(req, answer)) {
                    ++c.failed;
                    c.error = "wrong answer to " + req.expr;
                    continue;
                }
                c.ms[static_cast<size_t>(req.op)].push_back(
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count());
            }
        } catch (const std::exception &e) {
            if (!inRequest)
                ++c.attempted;  // the connect itself failed
            ++c.failed;
            c.error = e.what();
        }
    };
    {
        std::vector<std::jthread> threads;  // joined at scope end
        for (Client &c : clients)
            threads.emplace_back(loop, std::ref(c));
    }
    busyS_ += secondsSince(start);

    for (const Client &c : clients) {
        attempted_ += c.attempted;
        failed_ += c.failed;
        if (c.failed > 0)
            std::fprintf(stderr,
                         "perfbench: FAILED %llu query request(s): %s\n",
                         static_cast<unsigned long long>(c.failed),
                         c.error.c_str());
        for (size_t op = 0; op < 3; ++op)
            ms_[op].insert(ms_[op].end(), c.ms[op].begin(), c.ms[op].end());
    }
}

void
QueryLoad::report(Outcome &outcome, Metrics &metrics) const
{
    outcome.attempted += attempted_;
    outcome.failed += failed_;
    // Only flow latencies are end-to-end metrics: window and agg
    // requests answer in ~10 ms, and host scheduling and page-fault
    // jitter moved their percentiles by 20-45 % between runs on a
    // shared VM. They are printed for reading, not reported.
    for (Op op : allOps) {
        const std::vector<double> &v = ms_[static_cast<size_t>(op)];
        std::string p = std::string("query_") + opName(op);
        double p50 = percentile(v, 50), p90 = percentile(v, 90);
        if (op == Op::Flow) {
            metrics.add(p + "_p50_ms", p50, "ms");
            metrics.add(p + "_p90_ms", p90, "ms");
        }
        std::printf("%s: %zu samples, p50 %.3f ms, p90 %.3f ms\n",
                    opName(op), v.size(), p50, p90);
    }
    metrics.add("query_ops_per_s",
                busyS_ > 0
                    ? static_cast<double>(attempted_ - failed_) / busyS_
                    : 0.0,
                "req/s");
}

} // namespace perfbench
