/**
 * @file
 * The reconstruction loop: batched unit expansion on one pool,
 * per-unit canonical sort in the workers, k-way merge and bounded
 * flush on the calling thread. See reconstruct.hpp.
 */

#include "codec/fcc/reconstruct.hpp"

#include <algorithm>
#include <memory>

#include "codec/fcc/fcc_codec.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fcc::codec::fcc {

namespace {

/** Records per unit of an unchunked layout. */
constexpr size_t sliceRecords = 4096;

/** Packets per sink write, so a sink's encode buffer stays small. */
constexpr size_t writeBatch = 4096;

uint64_t
firstRecordUs(std::span<const TimeSeqRecord> records)
{
    return records.empty() ? 0 : records.front().firstTimestampUs;
}

} // namespace

uint64_t
reconstruct(size_t units, const UnitExpander &expandUnit,
            uint32_t threads, trace::TraceSink &sink)
{
    std::unique_ptr<util::ThreadPool> pool =
        util::ThreadPool::forJobs(threads, units);
    size_t batch = 2 * size_t{pool ? pool->size() : 1u};
    std::vector<std::vector<trace::PacketRecord>> runs(
        std::min(batch, units));
    std::vector<uint64_t> firstUs(runs.size());
    std::vector<trace::PacketRecord> pending;
    std::vector<trace::PacketRecord> merged;
    std::vector<std::span<const trace::PacketRecord>> spans;
    uint64_t written = 0;

    for (size_t base = 0; base < units; base += batch) {
        size_t n = std::min(batch, units - base);
        auto expandOne = [&](size_t i) {
            runs[i].clear();
            firstUs[i] = expandUnit(base + i, runs[i]);
            std::sort(runs[i].begin(), runs[i].end(),
                      trace::packetCanonicalLess);
        };
        if (pool)
            pool->parallelFor(n, expandOne);
        else
            for (size_t i = 0; i < n; ++i)
                expandOne(i);

        spans.assign(1, pending);
        spans.insert(spans.end(), runs.begin(), runs.begin() + n);
        merged.clear();
        trace::mergeCanonicalRuns(spans, merged);

        // No later unit starts before this batch's last first
        // record, so every older packet is final.
        auto cut = merged.end();
        if (base + n < units) {
            uint64_t boundUs =
                *std::max_element(firstUs.begin(), firstUs.begin() + n);
            uint64_t boundNs = boundUs > ~uint64_t{0} / 1000
                ? ~uint64_t{0}
                : boundUs * 1000;
            cut = std::partition_point(
                merged.begin(), merged.end(),
                [boundNs](const trace::PacketRecord &pkt) {
                    return pkt.timestampNs < boundNs;
                });
        }
        std::span<const trace::PacketRecord> flush(merged.begin(), cut);
        for (size_t off = 0; off < flush.size(); off += writeBatch)
            sink.write(flush.subspan(
                off, std::min(writeBatch, flush.size() - off)));
        written += flush.size();
        pending.assign(cut, merged.end());
    }
    sink.close();
    return written;
}

uint64_t
reconstructDatasets(const Datasets &d, uint64_t decompressSeed,
                    uint32_t threads,
                    const RecordExpander &expandRecords,
                    trace::TraceSink &sink)
{
    std::span<const TimeSeqRecord> records(d.timeSeq);
    if (d.chunkSizes.empty()) {
        // One RNG stream over all records, carried across slices:
        // one worker expands them in order.
        util::Rng rng(decompressSeed);
        size_t slices = (records.size() + sliceRecords - 1) /
                        sliceRecords;
        return reconstruct(
            slices,
            [&](size_t s, std::vector<trace::PacketRecord> &out) {
                size_t begin = s * sliceRecords;
                auto slice = records.subspan(
                    begin,
                    std::min(sliceRecords, records.size() - begin));
                expandRecords(slice, rng, out);
                return firstRecordUs(slice);
            },
            1, sink);
    }

    size_t chunks = d.chunkSizes.size();
    std::vector<size_t> offset(chunks + 1, 0);
    for (size_t c = 0; c < chunks; ++c)
        offset[c + 1] = offset[c] + d.chunkSizes[c];
    util::require(offset[chunks] == records.size(),
                  "fcc: chunk sizes disagree with time-seq");
    return reconstruct(
        chunks,
        [&](size_t c, std::vector<trace::PacketRecord> &out) {
            auto chunk = records.subspan(offset[c], d.chunkSizes[c]);
            // One stream per chunk: chunks expand in any order.
            util::Rng rng(chunkRngSeed(decompressSeed, c));
            expandRecords(chunk, rng, out);
            return firstRecordUs(chunk);
        },
        threads, sink);
}

} // namespace fcc::codec::fcc
