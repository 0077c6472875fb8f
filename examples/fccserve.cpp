/**
 * @file
 * fccserve — serve a catalog of sealed FCC archives over a socket,
 * and the matching command-line client.
 *
 *   fccserve [options] serve <dir | a.fcc b.fcc ...>
 *   fccserve [options] ping
 *   fccserve [options] list
 *   fccserve [options] query 'EXPR' [<out>]
 *   fccserve [options] agg  KIND 'EXPR'
 *
 * `serve` opens every archive once, then answers filter and
 * aggregate queries for any number of concurrent clients — each
 * connection is one thread-pool job against the shared immutable
 * catalog. It runs until SIGINT/SIGTERM. The remaining subcommands
 * are the client side: they speak the length-prefixed binary
 * protocol of docs/PROTOCOL.md to a running server. A `query` with
 * an <out> file writes the extracted packets through the normal
 * trace sinks, so the bytes are directly comparable with a local
 * `fccquery --expr` run over the same archives.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "query/server.hpp"
#include "trace/source.hpp"
#include "util/error.hpp"

#include "tools/cli.hpp"

using namespace fcc;

namespace {

query::QueryServer *gServer = nullptr;
volatile std::sig_atomic_t gReload = 0;

extern "C" void
onSignal(int)
{
    if (gServer != nullptr)
        gServer->stop();  // async-signal-safe: atomic + pipe write
}

extern "C" void
onReload(int)
{
    // SIGHUP: stop the accept loop; main reopens the catalog and
    // serves again — how a live fccd output directory is picked up.
    gReload = 1;
    if (gServer != nullptr)
        gServer->stop();
}

bool
isDirectory(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

void
printCatalogStats(const query::CatalogQueryStats &stats)
{
    std::printf("archives:       %llu (%llu pruned)\n",
                static_cast<unsigned long long>(stats.archives),
                static_cast<unsigned long long>(
                    stats.archivesPruned));
    std::printf("chunks decoded: %llu / %llu\n",
                static_cast<unsigned long long>(
                    stats.chunksDecoded),
                static_cast<unsigned long long>(stats.chunksTotal));
    std::printf("bytes read:     %llu / %llu (%.1f%%)\n",
                static_cast<unsigned long long>(stats.bytesRead),
                static_cast<unsigned long long>(stats.fileBytes),
                stats.fileBytes
                    ? 100.0 *
                          static_cast<double>(stats.bytesRead) /
                          static_cast<double>(stats.fileBytes)
                    : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketText = "unix:/tmp/fccserve.sock";
    codec::fcc::FccConfig cfg;
    query::ServerConfig serverCfg;
    trace::TraceFormatSpec outFormat;
    bool countOnly = false;
    bool fullDecode = false;
    uint32_t topK = 10;

    cli::FlagSet flags(
        "[options] <serve|ping|list|query|agg> ...",
        "Serve a catalog of sealed FCC archives over a Unix or TCP\n"
        "socket (binary protocol: docs/PROTOCOL.md), or talk to a\n"
        "running server.");
    flags.epilog(
        "subcommands:\n"
        "  serve <dir | a.fcc b.fcc ...>  run the server (until\n"
        "                                 SIGINT/SIGTERM)\n"
        "  ping                           round-trip an empty "
        "request\n"
        "  list                           the server's archives\n"
        "  query 'EXPR' [<out>]           filter query "
        "(docs/QUERY.md\n"
        "                                 grammar); writes <out> "
        "unless\n"
        "                                 --count\n"
        "  agg KIND 'EXPR'                flow-counts|"
        "byte-histogram|\n"
        "                                 top-talkers aggregate");
    flags.add("--socket", "E",
              "endpoint: unix:/path or tcp:host:port\n"
              "(default unix:/tmp/fccserve.sock; serve on\n"
              "tcp:host:0 picks an ephemeral port and\n"
              "prints it)",
              [&](const char *v) { socketText = v; });
    flags.add("--threads", "N",
              "serve: pool workers = concurrent requests,\n"
              "0 = all cores (default)",
              [&](const char *v) {
                  serverCfg.threads = static_cast<uint32_t>(
                      cli::parseUnsigned(
                          "--threads", v, 0,
                          codec::fcc::FccConfig::maxThreads));
                  cfg.threads = serverCfg.threads;
              });
    flags.add("--count",
              "query: counts only, no output file",
              [&] { countOnly = true; });
    flags.add("--no-index",
              "query: force the servers' full-decode path",
              [&] { fullDecode = true; });
    flags.add("--top", "K",
              "agg top-talkers: row budget (default 10)",
              [&](const char *v) {
                  topK = static_cast<uint32_t>(cli::parseUnsigned(
                      "--top", v, 1, UINT32_MAX));
              });
    flags.add("--out-format", "F",
              "query: auto|tsh|pcap|pcapng (default auto:\n"
              "picked from the <out> extension)",
              [&](const char *v) {
                  outFormat = trace::parseTraceFormatSpec(v);
              });

    cli::ParseResult parsed = flags.parse(argc, argv);
    if (parsed.exit)
        return parsed.code;
    int arg = parsed.next;
    if (arg >= argc) {
        flags.printHelp(argv[0], stderr);
        return 2;
    }
    std::string command = argv[arg++];

    try {
        util::SocketEndpoint endpoint =
            util::SocketEndpoint::parse(socketText);

        if (command == "serve") {
            if (arg >= argc) {
                flags.printHelp(argv[0], stderr);
                return 2;
            }
            std::signal(SIGINT, onSignal);
            std::signal(SIGTERM, onSignal);
            std::signal(SIGHUP, onReload);
            uint64_t served = 0;
            for (;;) {
                // A directory serves what its CATALOG lists (an
                // fccd producer's durable set), falling back to a
                // *.fcc scan; explicit paths serve as given.
                query::ArchiveCatalog catalog =
                    (arg + 1 == argc && isDirectory(argv[arg]))
                        ? query::ArchiveCatalog::fromCatalogFile(
                              argv[arg], cfg)
                        : query::ArchiveCatalog::fromPaths(
                              std::vector<std::string>(
                                  argv + arg, argv + argc),
                              cfg);
                query::QueryServer server(catalog, endpoint,
                                          serverCfg);
                gServer = &server;
                std::printf("serving %zu archive(s) on %s\n",
                            catalog.size(),
                            server.endpoint().str().c_str());
                std::fflush(stdout);
                server.serve();
                gServer = nullptr;
                served += server.requestsServed();
                if (gReload == 0)
                    break;
                gReload = 0;
                std::printf("reloading catalog (SIGHUP)\n");
                std::fflush(stdout);
            }
            std::printf("stopped after %llu request(s)\n",
                        static_cast<unsigned long long>(served));
            return 0;
        }

        query::QueryClient client(endpoint);

        if (command == "ping") {
            client.ping();
            std::printf("ok\n");
            return 0;
        }
        if (command == "list") {
            std::vector<query::ArchiveInfo> archives =
                client.listArchives();
            std::printf("%zu archive(s)\n", archives.size());
            for (const query::ArchiveInfo &info : archives)
                std::printf("  %s: %llu bytes, %s, %llu chunks\n",
                            info.path.c_str(),
                            static_cast<unsigned long long>(
                                info.fileBytes),
                            info.hasIndex ? "indexed"
                                          : "no index",
                            static_cast<unsigned long long>(
                                info.chunks));
            return 0;
        }
        if (command == "query" && arg < argc) {
            std::string exprText = argv[arg++];
            bool wantOut = !countOnly;
            if (wantOut && arg >= argc) {
                flags.printHelp(argv[0], stderr);
                return 2;
            }
            query::QueryResponse resp =
                client.query(exprText, countOnly, fullDecode);
            if (wantOut) {
                auto sink =
                    trace::openTraceSink(argv[arg], outFormat);
                sink->write(std::span<const trace::PacketRecord>(
                    resp.records.data(), resp.records.size()));
                sink->close();
            }
            std::printf(
                "matched:        %llu packets in %llu flows\n",
                static_cast<unsigned long long>(resp.packets),
                static_cast<unsigned long long>(
                    resp.stats.flowsMatched));
            printCatalogStats(resp.stats);
            return 0;
        }
        if (command == "agg" && arg + 1 < argc) {
            query::AggregateRequest req;
            req.kind = query::parseAggregateKind(argv[arg]);
            req.topK = topK;
            req.expr = query::parseExpr(argv[arg + 1]);
            query::AggregateResult result = client.aggregate(
                req.kind, req.topK, argv[arg + 1]);
            std::fputs(
                query::renderAggregate(result, req).c_str(),
                stdout);
            std::printf(
                "bytes touched:  %llu / %llu (reconstruction "
                "would read %llu)\n",
                static_cast<unsigned long long>(
                    result.stats.bytesTouched),
                static_cast<unsigned long long>(
                    result.stats.fileBytes),
                static_cast<unsigned long long>(
                    result.stats.reconstructBytes));
            return 0;
        }
    } catch (const util::Error &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    flags.printHelp(argv[0], stderr);
    return 2;
}
