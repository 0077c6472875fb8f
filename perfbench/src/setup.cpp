#include "setup.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <vector>

#include <malloc.h>

#include "codec/fcc/session.hpp"
#include "common.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace fccc = fcc::codec::fcc;
namespace trace = fcc::trace;

namespace {

// Capture sizes at scale 1. The web capture is the paper's mix at
// 250 flows/s for 360 s (~1.25 M packets, ~55 MB of TSH: larger than
// L2, inside L3). The hostile one (~0.5 M packets, ~22 MB) costs
// about 5x more per byte to compress, so it is half the web size to
// fit as many rounds in a run.
constexpr double captureSeconds = 360.0;
constexpr double webFlowsPerSec = 250.0;
constexpr double synFloodPackets = 200000;
constexpr double mixedTailFlows = 30000;

trace::Trace
webCapture(uint64_t seed, double scale)
{
    trace::WebGenConfig gen;
    gen.seed = seed;
    gen.durationSec = captureSeconds * scale;
    gen.flowsPerSec = webFlowsPerSec;
    return trace::WebTrafficGenerator(gen).generate();
}

/** SynFlood and MixedTail from one seed, merged by timestamp. */
trace::Trace
hostileCapture(uint64_t seed, double scale)
{
    auto scenario = [&](trace::ScenarioKind kind, uint64_t s,
                        double flows) {
        trace::ScenarioConfig cfg = trace::scenarioDefaults(kind, s);
        cfg.durationSec = captureSeconds * scale;
        cfg.flows = static_cast<uint32_t>(
            std::max(1.0, flows * scale));
        return trace::ScenarioGenerator(cfg).generate();
    };
    trace::Trace flood =
        scenario(trace::ScenarioKind::SynFlood, seed, synFloodPackets);
    trace::Trace tail = scenario(trace::ScenarioKind::MixedTail,
                                 splitmix64(seed), mixedTailFlows);
    std::vector<trace::PacketRecord> merged;
    merged.reserve(flood.size() + tail.size());
    std::merge(flood.begin(), flood.end(), tail.begin(), tail.end(),
               std::back_inserter(merged),
               [](const trace::PacketRecord &a,
                  const trace::PacketRecord &b) {
                   return a.timestampNs < b.timestampNs;
               });
    return trace::Trace(std::move(merged));
}

/**
 * Seal @p capture into catalogArchives equal time slices the way
 * fccd runs its session: one CompressSession carrying its template
 * store across epochs, indexed FCC3 with small chunks.
 */
void
sealCatalog(const trace::Trace &capture, const std::string &dir)
{
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.index = true;
    cfg.chunkRecords = catalogChunkRecords;
    cfg.threads = 1;
    fccc::SessionOptions options;
    options.carryTemplates = true;
    fccc::CompressSession session(cfg, options);

    uint64_t t0 = capture[0].timestampNs;
    uint64_t span = capture[capture.size() - 1].timestampNs - t0 + 1;
    int archive = 0;
    auto sealNext = [&] {
        char name[32];
        std::snprintf(name, sizeof name, "/part%02d.fcc", archive++);
        session.sealToFile(dir + name);
    };
    for (const trace::PacketRecord &pkt : capture) {
        uint64_t boundary = t0 + span / catalogArchives *
                                     static_cast<uint64_t>(archive + 1);
        if (archive + 1 < catalogArchives && pkt.timestampNs >= boundary &&
            session.epochPackets() > 0) {
            sealNext();
            session.reArm();
        }
        session.feed(pkt);
    }
    sealNext();
}

/**
 * The capture's servers — addresses receiving a SYN without ACK — by
 * connections opened (descending), then address; and the span from
 * the first to the last such SYN (the long flows' sparse tail after
 * the last arrival is left out of the query windows).
 */
std::vector<uint32_t>
serversOf(const trace::Trace &capture, uint64_t &firstUs, uint64_t &lastUs)
{
    std::unordered_map<uint32_t, uint64_t> opened;
    for (const trace::PacketRecord &pkt : capture)
        if (pkt.hasSyn() && !pkt.hasAck()) {
            if (opened.empty())
                firstUs = pkt.timestampUs();
            lastUs = pkt.timestampUs();
            ++opened[pkt.dstIp];
        }
    std::vector<std::pair<uint32_t, uint64_t>> ranked(opened.begin(),
                                                      opened.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto &a, const auto &b) {
        return a.second != b.second ? a.second > b.second
                                    : a.first < b.first;
    });
    std::vector<uint32_t> servers;
    for (const auto &[ip, n] : ranked)
        servers.push_back(ip);
    return servers;
}

} // namespace

Workload
findWorkload(const std::string &name)
{
    // web and hostile spend most of a run on the fcctool paths, query
    // on the fccserve closed loop; each still measures both.
    if (name == "web" || name == "hostile")
        return {name, 0.6};
    if (name == "query")
        return {name, 0.35};
    throw fcc::util::Error("perfbench: unknown workload '" + name +
                           "' (web, hostile, query)");
}

std::unique_ptr<fcc::query::ArchiveCatalog>
openCatalog(const std::string &dir)
{
    fccc::FccConfig cfg;
    cfg.threads = 1;
    return std::make_unique<fcc::query::ArchiveCatalog>(dir, cfg);
}

Inputs
setUp(const Workload &workload, uint64_t seed, double scale,
      const std::string &workDir, SetupTimes &times)
{
    Inputs in;
    in.tshPath = workDir + "/capture.tsh";
    in.catalogDir = workDir + "/catalog";
    std::filesystem::remove_all(in.catalogDir);
    std::filesystem::create_directories(in.catalogDir);

    Clock::time_point t0 = Clock::now();
    trace::Trace capture = workload.name == "hostile"
        ? hostileCapture(seed, scale)
        : webCapture(seed, scale);
    fcc::util::require(capture.size() > 1,
                       "perfbench: generated capture is empty");
    trace::writeTshFile(capture, in.tshPath);
    in.packets = capture.size();
    in.servers = serversOf(capture, in.firstUs, in.lastUs);
    fcc::util::require(!in.servers.empty(),
                       "perfbench: capture opens no connections");
    in.tshBytes = std::filesystem::file_size(in.tshPath);
    times.generate = secondsSince(t0);

    t0 = Clock::now();
    sealCatalog(capture, in.catalogDir);
    times.compress = secondsSince(t0);

    // The measured phases must not be charged for generator memory.
    capture = trace::Trace();
    malloc_trim(0);

    t0 = Clock::now();
    in.catalog = openCatalog(in.catalogDir);
    times.catalogOpen = secondsSince(t0);
    return in;
}

} // namespace perfbench
