#include "codec_phase.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "codec/fcc/session.hpp"
#include "codec/fcc/stream.hpp"
#include "trace/source.hpp"
#include "util/io.hpp"

namespace perfbench {

namespace fccc = fcc::codec::fcc;
namespace trace = fcc::trace;

namespace {

/** fcctool's defaults: FCC3 + deflate + index, 4096-record chunks. */
fccc::FccConfig
fcctoolConfig(unsigned threads)
{
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.backend = fcc::codec::backend::EntropyBackend::Deflate;
    cfg.index = true;
    cfg.chunkRecords = 4096;
    cfg.threads = threads;
    return cfg;
}

/** Decompression sink that records a trace.sink span around every
 *  call into the real TSH file sink. */
class SpannedSink final : public trace::TraceSink
{
  public:
    SpannedSink(std::unique_ptr<trace::TraceSink> inner, Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        SpanScope span(tracer_, "trace.sink");
        inner_->write(batch);
    }
    void
    close() override
    {
        SpanScope span(tracer_, "trace.sink");
        inner_->close();
    }
    uint64_t bytesWritten() const override
    {
        return inner_->bytesWritten();
    }

  private:
    std::unique_ptr<trace::TraceSink> inner_;
    Tracer &tracer_;
};

/** What a session-composed compression produced. */
struct Composed
{
    int root = -1;
    uint64_t closedInFeed = 0;
    fccc::SealInfo seal;
    uint64_t templates = 0;
    uint64_t templatesNew = 0;
};

/**
 * compressTraceFile spelled out as its public calls, each a span:
 * the same batch size, session and file write, so the archive is
 * byte-identical.
 */
Composed
composedCompress(const std::string &tshPath, const std::string &fccPath,
                 unsigned threads, Tracer &tracer)
{
    Composed c;
    SpanScope root(tracer, "compress");
    c.root = root.id();
    auto src = trace::openTraceSource(tshPath);
    fccc::CompressSession session(fcctoolConfig(threads));
    std::vector<trace::PacketRecord> batch(4096);
    for (;;) {
        size_t n;
        {
            SpanScope span(tracer, "trace.read");
            n = src->read(batch);
        }
        if (n == 0)
            break;
        SpanScope span(tracer, "codec.feed");
        session.feed(
            std::span<const trace::PacketRecord>(batch.data(), n));
    }
    session.addInputBytes(src->bytesConsumed());
    c.closedInFeed = session.epochRecords();
    std::vector<uint8_t> bytes;
    {
        SpanScope span(tracer, "codec.seal");
        bytes = session.seal(&c.seal);
    }
    c.templates = session.storeTemplates();
    c.templatesNew = session.epochTemplatesCreated();
    {
        SpanScope span(tracer, "codec.write");
        fcc::util::FileByteSink out(fccPath);
        out.write(bytes);
        out.close();
    }
    return c;
}

/** decompressTraceFile spelled out as its public calls; returns the
 *  root span and the packets drained. */
int
composedDecompress(const std::string &fccPath, const std::string &outPath,
                   unsigned threads, Tracer &tracer, uint64_t &packets)
{
    SpanScope root(tracer, "decompress");
    fccc::DecompressSession session(fcctoolConfig(threads));
    {
        SpanScope span(tracer, "codec.open");
        session.open(fccPath);
    }
    SpannedSink sink(trace::openTraceSink(outPath), tracer);
    SpanScope span(tracer, "codec.drain");
    packets = session.drainTo(sink).packets;
    return root.id();
}

std::string
atThreads(unsigned threads)
{
    return " at " + std::to_string(threads) + " thread(s)";
}

/** One traced round's layer times, keyed by metric name. */
using Split = std::vector<std::pair<std::string, double>>;

/** The split of the round whose wall time is the median. */
const Split &
medianSplit(std::vector<Split> &splits)
{
    // The wall time is each split's last entry.
    std::sort(splits.begin(), splits.end(),
              [](const Split &a, const Split &b) {
                  return a.back().second < b.back().second;
              });
    return splits[(splits.size() - 1) / 2];
}

} // namespace

CodecReference
codecReference(const Inputs &in, const std::string &workDir,
               Outcome &outcome)
{
    CodecReference ref;
    const std::string fccPath = workDir + "/ref.fcc";
    const std::string outPath = workDir + "/ref.tsh";
    fccc::compressTraceFile(in.tshPath, fccPath, fcctoolConfig(1));
    ref.archiveHash = hashFile(fccPath);
    ref.archiveBytes = std::filesystem::file_size(fccPath);

    fccc::StreamStats st =
        fccc::decompressTraceFile(fccPath, outPath, fcctoolConfig(1));
    ref.outputHash = hashFile(outPath);
    ref.outputBytes = std::filesystem::file_size(outPath);
    std::filesystem::remove(outPath);  // only its hash is compared
    outcome.check(st.packets == in.packets &&
                      ref.outputBytes == in.packets * trace::tshRecordBytes,
                  "decompressed packet count equals the input's");
    return ref;
}

CodecRounds::CodecRounds(const Inputs &in, const CodecReference &ref,
                         const std::string &workDir, unsigned parThreads,
                         Outcome &outcome)
    : in_(in), ref_(ref), refFcc_(workDir + "/ref.fcc"),
      fccPath_(workDir + "/round.fcc"), outPath_(workDir + "/round.tsh"),
      parThreads_(parThreads), outcome_(outcome)
{
}

void
CodecRounds::compress(unsigned threads, std::vector<double> &times)
{
    Clock::time_point t0 = Clock::now();
    fccc::compressTraceFile(in_.tshPath, fccPath_, fcctoolConfig(threads));
    times.push_back(secondsSince(t0));
    outcome_.check(hashFile(fccPath_) == ref_.archiveHash,
                   "archive bytes" + atThreads(threads) +
                       " equal the 1-thread reference");
}

void
CodecRounds::decompress(unsigned threads, std::vector<double> &times)
{
    Clock::time_point t0 = Clock::now();
    fccc::StreamStats st = fccc::decompressTraceFile(
        refFcc_, outPath_, fcctoolConfig(threads));
    times.push_back(secondsSince(t0));
    outcome_.check(st.packets == in_.packets &&
                       hashFile(outPath_) == ref_.outputHash,
                   "decompressed TSH" + atThreads(threads) +
                       " equals the 1-thread reference");
    // Dropped while still in the page cache, so no writeback of
    // earlier rounds competes with later ones.
    std::filesystem::remove(outPath_);
}

void
CodecRounds::run()
{
    compress(1, comp1_);
    compress(parThreads_, compPar_);
    decompress(1, decomp1_);
    decompress(parThreads_, decompPar_);
}

void
CodecRounds::report(Metrics &metrics) const
{
    double inMb = static_cast<double>(in_.tshBytes) / 1e6;
    double outMb = static_cast<double>(ref_.outputBytes) / 1e6;
    metrics.add("compress_mbps", inMb / median(comp1_), "MB/s");
    metrics.add("compress_mbps_par", inMb / median(compPar_), "MB/s");
    metrics.add("decompress_mbps", outMb / median(decomp1_), "MB/s");
    metrics.add("decompress_mbps_par", outMb / median(decompPar_), "MB/s");
    metrics.add("compression_factor",
                static_cast<double>(in_.tshBytes) /
                    static_cast<double>(ref_.archiveBytes),
                "x");
}

void
tracedCodecRounds(const Inputs &in, const CodecReference &ref,
                  const std::string &workDir, unsigned parThreads,
                  double budgetS, Tracer &tracer, Outcome &outcome,
                  Metrics &metrics)
{
    const std::string refFcc = workDir + "/ref.fcc";
    const std::string fccPath = workDir + "/round.fcc";
    const std::string outPath = workDir + "/round.tsh";
    const unsigned threadCounts[2] = {1, parThreads};
    std::vector<Split> compSplits[2], decompSplits[2];
    std::vector<double> tracedWall, untracedWall;
    Composed counts;

    Clock::time_point start = Clock::now();
    for (int round = 0;
         round < minCodecRounds || secondsSince(start) < budgetS; ++round) {
        for (int t = 0; t < 2; ++t) {
            unsigned threads = threadCounts[t];
            Composed c = composedCompress(in.tshPath, fccPath, threads,
                                          tracer);
            outcome.check(hashFile(fccPath) == ref.archiveHash,
                          "traced archive" + atThreads(threads) +
                              " equals compressTraceFile's");
            counts = c;
            compSplits[t].push_back({
                {"trace.read_s", tracer.selfTimeUnder(c.root, "trace.read")},
                {"codec.feed_s", tracer.selfTimeUnder(c.root, "codec.feed")},
                {"codec.seal_s", tracer.selfTimeUnder(c.root, "codec.seal")},
                {"codec.write_s",
                 tracer.selfTimeUnder(c.root, "codec.write")},
                {"bench.compress_other_s", tracer.selfTime(c.root)},
                {"bench.compress_wall_s", tracer.duration(c.root)},
            });

            uint64_t packets = 0;
            int root = composedDecompress(refFcc, outPath, threads,
                                          tracer, packets);
            outcome.check(packets == in.packets &&
                              hashFile(outPath) == ref.outputHash,
                          "traced decompression" + atThreads(threads) +
                              " equals the reference");
            decompSplits[t].push_back({
                {"codec.open_s", tracer.selfTimeUnder(root, "codec.open")},
                {"codec.drain_self_s",
                 tracer.selfTimeUnder(root, "codec.drain")},
                {"trace.sink_s", tracer.durationUnder(root, "trace.sink")},
                {"bench.decompress_other_s", tracer.selfTime(root)},
                {"bench.decompress_wall_s", tracer.duration(root)},
            });
            if (threads != 1)
                continue;

            // The same work untraced, for the tracing overhead.
            tracedWall.push_back(tracer.duration(c.root) +
                                 tracer.duration(root));
            Clock::time_point t0 = Clock::now();
            fccc::compressTraceFile(in.tshPath, fccPath, fcctoolConfig(1));
            fccc::decompressTraceFile(refFcc, outPath, fcctoolConfig(1));
            untracedWall.push_back(secondsSince(t0));
        }
    }

    double packets = static_cast<double>(in.packets);
    double flows = static_cast<double>(counts.seal.records);
    for (int t = 0; t < 2; ++t) {
        std::string suffix = t == 0 ? "" : "_par";
        const Split &comp = medianSplit(compSplits[t]);
        const Split &decomp = medianSplit(decompSplits[t]);
        for (const Split *split : {&comp, &decomp})
            for (const auto &[name, value] : *split)
                metrics.add(name + suffix, value, "s");
        if (t != 0)
            continue;
        auto part = [](const Split &s, std::string_view name) {
            for (const auto &[n, v] : s)
                if (n == name)
                    return v;
            return 0.0;
        };
        metrics.add("trace.read_mbps",
                    static_cast<double>(in.tshBytes) / 1e6 /
                        part(comp, "trace.read_s"),
                    "MB/s");
        metrics.add("codec.feed_ns_per_packet",
                    part(comp, "codec.feed_s") * 1e9 / packets, "ns");
        metrics.add("codec.seal_ns_per_flow",
                    part(comp, "codec.seal_s") * 1e9 / flows, "ns");
        metrics.add("codec.drain_ns_per_packet",
                    part(decomp, "codec.drain_self_s") * 1e9 / packets,
                    "ns");
        metrics.add("trace.sink_mbps",
                    static_cast<double>(ref.outputBytes) / 1e6 /
                        part(decomp, "trace.sink_s"),
                    "MB/s");
    }
    metrics.add("bench.trace_overhead_frac",
                median(tracedWall) / median(untracedWall) - 1.0,
                "fraction");

    // Exact counts: what the session saw and sealed.
    metrics.add("codec.flows_closed_in_feed",
                static_cast<double>(counts.closedInFeed), "count");
    metrics.add("codec.flows_open_at_seal",
                static_cast<double>(counts.seal.records -
                                    counts.closedInFeed),
                "count");
    metrics.add("codec.archive_bytes",
                static_cast<double>(counts.seal.bytes), "bytes");
    metrics.add("codec.bytes_per_flow",
                static_cast<double>(counts.seal.bytes) / flows, "bytes");
    metrics.add("codec.chunks", static_cast<double>(counts.seal.chunks),
                "count");

    // Flow-layer outcomes, read back from the sealed datasets.
    fccc::DecompressSession reader(fcctoolConfig(1));
    reader.open(refFcc);
    const fccc::Datasets &d = reader.datasets();
    uint64_t shortRecords = static_cast<uint64_t>(std::count_if(
        d.timeSeq.begin(), d.timeSeq.end(),
        [](const fccc::TimeSeqRecord &r) { return !r.isLong; }));
    metrics.add("flow.flows", flows, "count");
    metrics.add("flow.packets_per_flow",
                static_cast<double>(counts.seal.packets) / flows, "packets");
    metrics.add("flow.short_frac",
                static_cast<double>(shortRecords) / flows, "fraction");
    metrics.add("flow.templates", static_cast<double>(counts.templates),
                "count");
    metrics.add("flow.templates_new",
                static_cast<double>(counts.templatesNew), "count");
    metrics.add("flow.flows_per_template",
                d.shortTemplates.empty()
                    ? 0.0
                    : static_cast<double>(shortRecords) /
                          static_cast<double>(d.shortTemplates.size()),
                "flows");
}

} // namespace perfbench
