/**
 * @file
 * The fcctool paths: file-to-file compression and decompression of
 * the workload's capture with fcctool's defaults (FCC3 columnar
 * container, deflate backend, chunk/flow index, 4096-record chunks),
 * at one thread and at the parallel thread count.
 */

#ifndef PERFBENCH_CODEC_PHASE_HPP
#define PERFBENCH_CODEC_PHASE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "setup.hpp"

namespace perfbench {

/** What every later round's outputs must equal, and their sizes. */
struct CodecReference
{
    uint64_t archiveHash = 0;
    uint64_t archiveBytes = 0;
    uint64_t outputHash = 0;  ///< decompressed TSH
    uint64_t outputBytes = 0;
};

/**
 * Warm-up round that fixes the reference outputs: compressTraceFile
 * and decompressTraceFile at one thread. Also gates the decompressed
 * packet count against the input's.
 */
CodecReference codecReference(const Inputs &in,
                              const std::string &workDir,
                              Outcome &outcome);

/** Rounds a run makes even when its time budget is spent. */
constexpr int minCodecRounds = 3;

/**
 * The untraced timed rounds: each round runs compressTraceFile and
 * decompressTraceFile at one thread and at the parallel thread
 * count, every output checked against the reference.
 */
class CodecRounds
{
  public:
    CodecRounds(const Inputs &in, const CodecReference &ref,
                const std::string &workDir, unsigned parThreads,
                Outcome &outcome);

    /** One round of the four timed calls. */
    void run();

    /** Adds compress_mbps, compress_mbps_par, decompress_mbps,
     *  decompress_mbps_par (medians over the rounds) and
     *  compression_factor. */
    void report(Metrics &metrics) const;

  private:
    void compress(unsigned threads, std::vector<double> &times);
    void decompress(unsigned threads, std::vector<double> &times);

    const Inputs &in_;
    const CodecReference &ref_;
    std::string refFcc_, fccPath_, outPath_;
    unsigned parThreads_;
    Outcome &outcome_;
    std::vector<double> comp1_, compPar_, decomp1_, decompPar_;
};

/**
 * Traced rounds: compression composed from the public session calls
 * (TraceSource::read, CompressSession::feed/seal, the file write) and
 * decompression (DecompressSession::open/drainTo into a span-wrapped
 * TSH sink), each span-recorded, at one thread and @p parThreads;
 * every round also times the untraced one-shot calls for the
 * tracing overhead. Adds the trace./codec./flow. per-layer metrics
 * and bench.trace_overhead_frac.
 */
void tracedCodecRounds(const Inputs &in, const CodecReference &ref,
                       const std::string &workDir,
                       unsigned parThreads, double budgetS,
                       Tracer &tracer, Outcome &outcome,
                       Metrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_CODEC_PHASE_HPP
