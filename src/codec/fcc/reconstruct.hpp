/**
 * @file
 * The one reconstruction loop of the §4 decompressor. The paper
 * scans the time-seq records in order and flushes a time-ordered
 * buffer of rebuilt packets as it goes; every front end that turns
 * records back into packets — FccTraceCompressor::expand() and
 * decompress(), the streaming DecompressSession::drainTo() and the
 * query executor (src/query) — runs that scan through reconstruct().
 *
 * The scan works on *units*: the chunks of a chunked layout, or
 * fixed record slices of an unchunked one. Units expand in batches
 * on a pool; each worker sorts its unit's packets by
 * trace::packetCanonicalLess, and the calling thread k-way merges
 * the sorted runs with the packets still pending from the previous
 * batch (trace::mergeCanonicalRuns). Everything older than the
 * batch's flush bound is written, the rest carries over. Records are
 * time-sorted across units and no packet precedes its flow's first
 * record, so the bound — the first-record timestamp of the batch's
 * last unit — needs no lookahead into units not yet expanded, and
 * memory stays near one batch plus the flows still active at its
 * end. The output is the canonical total order, so it is the same
 * bytes at any thread count and through every front end.
 */

#ifndef FCC_CODEC_FCC_RECONSTRUCT_HPP
#define FCC_CODEC_FCC_RECONSTRUCT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "codec/fcc/datasets.hpp"
#include "trace/packet.hpp"
#include "trace/source.hpp"
#include "util/rng.hpp"

namespace fcc::codec::fcc {

/**
 * Expands unit @p unit, appending its packets to @p out in any
 * order, and returns the unit's first time-seq record timestamp in
 * microseconds — a lower bound on every packet of this and every
 * later unit — or 0 for a unit without records.
 */
using UnitExpander = std::function<uint64_t(
    size_t unit, std::vector<trace::PacketRecord> &out)>;

/**
 * Reconstruct @p units units, in time-seq order, into @p sink in
 * packetCanonicalLess order, close the sink and return the packets
 * written. Units expand in batches of 2 x workers on one pool of
 * util::ThreadPool::workersFor(@p threads, @p units) workers. With
 * one worker the units expand in index order on the calling thread,
 * so consecutive units may share state such as one RNG stream.
 */
uint64_t reconstruct(size_t units, const UnitExpander &expandUnit,
                     uint32_t threads, trace::TraceSink &sink);

/**
 * Expands @p records, drawing the §4 random fields from @p rng and
 * appending the packets to @p out in any order.
 */
using RecordExpander = std::function<void(
    std::span<const TimeSeqRecord> records, util::Rng &rng,
    std::vector<trace::PacketRecord> &out)>;

/**
 * reconstruct() over the time-seq dataset of @p datasets. A chunked
 * layout (FCC2, FCC3) has one unit per chunk, each drawing from its
 * own chunkRngSeed(@p decompressSeed, chunk) stream, on up to
 * @p threads workers. An unchunked layout (FCC1, FCC3 written with
 * chunkRecords == 0) is cut into fixed record slices that expand in
 * order on the calling thread from the one stream seeded by
 * @p decompressSeed.
 *
 * @throws fcc::util::Error when the chunk sizes disagree with the
 *         time-seq dataset, or whatever @p expandRecords throws.
 */
uint64_t reconstructDatasets(const Datasets &datasets,
                             uint64_t decompressSeed, uint32_t threads,
                             const RecordExpander &expandRecords,
                             trace::TraceSink &sink);

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_RECONSTRUCT_HPP
