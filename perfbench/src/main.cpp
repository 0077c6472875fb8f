/**
 * @file
 * perfbench — the repository's end-to-end benchmark driver.
 *
 *   perfbench --workload web|hostile|query --seed N --seconds S
 *             --trace 0|1 [--scale X] [--corrupt-expected]
 *
 * One run sets the workload up from the seed (several times; the
 * median is setup_s), then measures for S seconds on the paths users
 * run: compressTraceFile/decompressTraceFile as fcctool calls them,
 * and fccserve queries through QueryServer/QueryClient. Every output
 * is checked; the last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics. --trace 0 reports the
 * end-to-end metrics; --trace 1 runs the same work span-recorded
 * and reports the per-layer split instead, writing the spans to
 * .bench_work/spans-<workload>-<seed>.json. Inputs and outputs live
 * under .bench_work/ in the working directory.
 *
 * --scale shrinks the generated inputs (the benchmark's own test
 * runs tiny configurations); --corrupt-expected falsifies one
 * expected query answer, which must then count as a failure.
 * Exit status: 0 when every check passed, 1 otherwise, 2 on usage.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "codec_phase.hpp"
#include "common.hpp"
#include "query_phase.hpp"
#include "setup.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int setupRepeats = 3;
/** Upper bound on the parallel thread count (`_par` metrics). */
constexpr unsigned maxParThreads = 4;
/** Scratch directory, relative to the working directory. */
const std::string benchWork = ".bench_work";

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    double scale = 1.0;
    bool corruptExpected = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "web|hostile|query --seed N --seconds S --trace 0|1 "
                 "[--scale X] [--corrupt-expected]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--corrupt-expected") {
            a.corruptExpected = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = a.seconds > 0;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
            haveTrace = true;
        } else if (flag == "--scale") {
            a.scale = std::strtod(v.c_str(), &end);
            if (!(a.scale > 0 && a.scale <= 1))
                usage("--scale takes a value in (0, 1]");
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            usage("malformed value for " + flag);
    }
    if (a.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds (> 0) and --trace are "
              "required");
    return a;
}

void
printResult(const Outcome &outcome, const Metrics &metrics)
{
    for (const Metric &m : metrics.items())
        std::printf("%-36s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                outcome.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    const char *sep = "";
    for (const Metric &m : metrics.items()) {
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), v, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
run(const Args &args)
{
    Workload workload = findWorkload(args.workload);
    const std::string workDir = benchWork + "/" + workload.name;
    std::filesystem::remove_all(workDir);
    std::filesystem::create_directories(workDir);
    unsigned parThreads = std::clamp(std::thread::hardware_concurrency(),
                                     1u, maxParThreads);
    Outcome outcome;
    Metrics metrics;

    std::vector<SetupTimes> setups;
    Inputs in;
    for (int i = 0; i < setupRepeats; ++i) {
        in = Inputs{};  // release the previous catalog first
        SetupTimes t;
        in = setUp(workload, args.seed, args.scale, workDir, t);
        setups.push_back(t);
    }
    auto setupMedian = [&](auto field) {
        std::vector<double> v;
        for (const SetupTimes &t : setups)
            v.push_back(field(t));
        return median(v);
    };
    std::vector<Request> pool = makePool(in, args.seed);
    const std::string socketPath = workDir + "/q.sock";

    if (!args.trace) {
        Tracer off(false);
        answerPool(pool, in, off, nullptr, outcome, metrics);
        if (args.corruptExpected) {
            Request &r = pool.front();  // the loop's first request
            r.hash ^= 1;
            r.rendered += "!";
        }
        CodecReference ref = codecReference(in, workDir, outcome);
        if (!resetPeakRss())
            std::fprintf(stderr, "perfbench: cannot reset the RSS "
                                 "high-water mark; peak_rss_mb "
                                 "includes set-up\n");
        // Codec rounds and closed-loop segments alternate, in the
        // workload's time split, so every metric samples the whole run.
        CodecRounds codec(in, ref, workDir, parThreads, outcome);
        ServedCatalog served(in, socketPath);
        QueryLoad load(pool, served);
        double queryPerCodec =
            (1 - workload.codecShare) / workload.codecShare;
        Clock::time_point start = Clock::now();
        for (int round = 0;
             round < minCodecRounds || secondsSince(start) < args.seconds;
             ++round) {
            Clock::time_point t0 = Clock::now();
            codec.run();
            load.run(secondsSince(t0) * queryPerCodec);
        }
        codec.report(metrics);
        load.report(outcome, metrics);
        metrics.add("peak_rss_mb", peakRssMb() * 1024 * 1024 / 1e6, "MB");
        metrics.add("setup_s",
                    setupMedian([](const SetupTimes &t) {
                        return t.total();
                    }),
                    "s");
    } else {
        Tracer tracer(true);
        int openSpan = tracer.open("query.open");
        auto fresh = openCatalog(in.catalogDir);
        tracer.close(openSpan);
        double chunks = 0;
        for (size_t a = 0; a < fresh->size(); ++a)
            if (fresh->archive(a).hasIndex())
                chunks += static_cast<double>(
                    fresh->archive(a).index().chunks.size());
        metrics.add("query.open_s", tracer.duration(openSpan), "s");
        metrics.add("query.archives", static_cast<double>(fresh->size()),
                    "count");
        metrics.add("query.chunks_total", chunks, "count");
        fresh.reset();
        {
            // An untraced pass first, so the traced in-process runs and
            // round trips all see warm archives.
            Tracer off(false);
            answerPool(pool, in, off, nullptr, outcome, metrics);
            ServedCatalog served(in, socketPath);
            fcc::query::QueryClient client(served.endpoint());
            answerPool(pool, in, tracer, &client, outcome, metrics);
            metrics.add("query.requests_served",
                        static_cast<double>(served.requestsServed()),
                        "count");
        }
        CodecReference ref = codecReference(in, workDir, outcome);
        tracedCodecRounds(in, ref, workDir, parThreads, args.seconds,
                          tracer, outcome, metrics);
        metrics.add("setup.generate_s",
                    setupMedian([](const SetupTimes &t) {
                        return t.generate;
                    }),
                    "s");
        metrics.add("setup.compress_s",
                    setupMedian([](const SetupTimes &t) {
                        return t.compress;
                    }),
                    "s");
        metrics.add("setup.catalog_open_s",
                    setupMedian([](const SetupTimes &t) {
                        return t.catalogOpen;
                    }),
                    "s");
        tracer.writeJson(benchWork + "/spans-" + workload.name + "-" +
                         std::to_string(args.seed) + ".json");
    }

    in = Inputs{};
    std::filesystem::remove_all(workDir);
    printResult(outcome, metrics);
    return outcome.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
