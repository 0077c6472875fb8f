/**
 * @file
 * Synthetic packet-trace generator — the tool the paper lists as
 * future work ("implement a synthetic packet trace generator based
 * on the described methodology"). Produces a Web header trace with
 * the §3 aggregate structure and writes it as TSH and/or pcap.
 *
 * Usage:
 *   ./build/examples/synthetic_trace_gen [seconds] [flows/s] [seed]
 *   ./build/examples/synthetic_trace_gen --scenario <kind>|all [seed]
 *
 * The first form writes synthetic.tsh and synthetic.pcap in the
 * working directory. The second writes <kind>.tsh for one
 * adversarial scenario of trace/scenario_gen.hpp (or for every kind),
 * at the per-kind default shape.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "trace/pcap.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

using namespace fcc;

namespace {

int
writeScenarios(const std::string &which, uint64_t seed)
{
    std::vector<trace::ScenarioKind> kinds;
    try {
        kinds = which == "all"
            ? trace::allScenarios()
            : std::vector{trace::parseScenarioName(which)};
    } catch (const util::Error &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    for (trace::ScenarioKind kind : kinds) {
        trace::ScenarioGenerator gen(
            trace::scenarioDefaults(kind, seed));
        trace::Trace tr = gen.generate();
        std::string path =
            std::string(trace::scenarioName(kind)) + ".tsh";
        trace::writeTshFile(tr, path);
        std::printf("wrote %s (%zu records)\n", path.c_str(),
                    tr.size());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--scenario") == 0) {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: %s --scenario <kind>|all [seed]\n",
                         argv[0]);
            return 1;
        }
        return writeScenarios(
            argv[2], argc > 3
                         ? static_cast<uint64_t>(std::atoll(argv[3]))
                         : 1u);
    }
    trace::WebGenConfig cfg;
    cfg.durationSec = argc > 1 ? std::atof(argv[1]) : 30.0;
    cfg.flowsPerSec = argc > 2 ? std::atof(argv[2]) : 100.0;
    cfg.seed = argc > 3
        ? static_cast<uint64_t>(std::atoll(argv[3]))
        : 1u;
    if (cfg.durationSec <= 0 || cfg.flowsPerSec <= 0) {
        std::fprintf(stderr,
                     "usage: %s [seconds>0] [flows/s>0] [seed]\n",
                     argv[0]);
        return 1;
    }

    trace::WebTrafficGenerator gen(cfg);
    trace::Trace tr = gen.generate();

    trace::writeTshFile(tr, "synthetic.tsh");
    trace::writePcapFile(tr, "synthetic.pcap");

    flow::FlowTable table;
    auto stats = flow::computeFlowStats(table.assemble(tr), tr);

    std::printf("wrote synthetic.tsh (%zu records, %zu bytes) and "
                "synthetic.pcap\n",
                tr.size(), tr.size() * trace::tshRecordBytes);
    std::printf("duration:            %.1f s\n", tr.durationSec());
    std::printf("flows:               %llu\n",
                static_cast<unsigned long long>(stats.flows));
    std::printf("mean flow length:    %.1f packets\n",
                stats.meanFlowLength());
    std::printf("flows < 51 packets:  %.1f%%  (paper: 98%%)\n",
                100.0 * stats.shortFlowShare());
    std::printf("short-flow packets:  %.1f%%  (paper: 75%%)\n",
                100.0 * stats.shortPacketShare());
    std::printf("short-flow bytes:    %.1f%%  (paper: 80%%)\n",
                100.0 * stats.shortByteShare());
    return 0;
}
