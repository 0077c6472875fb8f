/**
 * @file
 * Session-based compression API: the open-ended form of the FCC
 * codec the continuous-capture archiver (src/archive, fccd) runs on.
 *
 * The one-shot entry points of stream.hpp compress exactly one
 * source into exactly one file. A CompressSession decouples the
 * three lifetimes that conflates: packets are feed() in whenever
 * they arrive, chunk boundaries are cut on demand (rotateChunk(),
 * time-based, on top of the record-count slicing of
 * FccConfig::chunkRecords), and seal() closes the current *epoch*
 * into one self-contained archive — after which reArm() starts the
 * next epoch without rebuilding the session.
 *
 * The session is the codec's only compress engine: the one-shot
 * file entry points of stream.hpp and the in-memory
 * FccTraceCompressor::compress() are single-epoch sessions.
 *
 * Seal order: flows are characterized and clustered as they close,
 * but seal() writes them in canonical flow order
 * (flow::canonicalFlowOrderKey: first-packet ns, then 5-tuple) and
 * numbers the address table and both template tables in first-use
 * order over that sequence. The archive's layout therefore does not
 * depend on the order in which flows happened to close.
 *
 * Template carry: the short-flow cluster store (flow::TemplateStore)
 * survives seal()/reArm() when SessionOptions::carryTemplates is
 * set, so a re-armed epoch matches recurring behaviour against the
 * clusters earlier epochs already learned instead of re-growing them
 * from nothing. Sealed archives stay self-contained either way: each
 * epoch serializes only the templates it referenced, renumbered in
 * first-use order — which is why a carry-off session's epochs are
 * bit-identical to independent one-shot runs over the split input.
 *
 * DecompressSession is the matching read side: one session holds the
 * config and cumulative stats while open()/drainTo() iterate over
 * any number of archives (an fccd output directory, say), each
 * reconstructed with the §4 bounded-memory flush of the codec's one
 * reconstruction loop (reconstruct.hpp).
 */

#ifndef FCC_CODEC_FCC_SESSION_HPP
#define FCC_CODEC_FCC_SESSION_HPP

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/stream.hpp"
#include "flow/template_store.hpp"
#include "trace/source.hpp"

namespace fcc::codec::fcc {

/** Session behaviour knobs (the codec knobs live in FccConfig). */
struct SessionOptions
{
    /**
     * Keep the short-flow template store across seal()/reArm(), so
     * re-armed epochs skip the cluster warm-up. Off, every epoch
     * clusters from scratch — byte-identical to running the one-shot
     * compressor on each epoch's packets separately.
     */
    bool carryTemplates = true;
};

/** What one seal() produced. */
struct SealInfo
{
    uint64_t records = 0;     ///< time-seq records (flows) sealed
    uint64_t packets = 0;     ///< packets they encode
    uint64_t chunks = 0;      ///< chunk count of the archive
    uint64_t bytes = 0;       ///< serialized archive size
    uint64_t minFirstUs = 0;  ///< earliest flow start (µs), 0 if none
    uint64_t maxLastUs = 0;   ///< latest packet timestamp seen (µs)
    uint64_t templatesNew = 0;///< clusters created this epoch
    uint64_t shortFlows = 0;  ///< records matched to a cluster
    uint64_t longFlows = 0;   ///< records stored verbatim
    SizeBreakdown sizes;      ///< serialized dataset sizes
};

/**
 * An open-ended compression session over the FCC codec.
 *
 * Lifecycle: constructed *armed*; feed() accumulates flow state and
 * closed-flow datasets; seal() closes every open flow and serializes
 * the epoch (the session is then *sealed* — feed() throws); reArm()
 * starts the next epoch. Input must be time-ordered within an epoch;
 * reArm() resets the clock, so epochs may restart from zero.
 *
 * The one-shot wrappers of stream.hpp and FccTraceCompressor are
 * thin shells over a single-epoch session.
 */
class CompressSession
{
  public:
    /**
     * @throws fcc::util::Error when cfg does not validate
     *         (FccConfig::validate()).
     */
    explicit CompressSession(const FccConfig &cfg,
                             const SessionOptions &options = {});

    /** Out-of-line: OpenFlow is complete only in session.cpp. */
    ~CompressSession();

    CompressSession(const CompressSession &) = delete;
    CompressSession &operator=(const CompressSession &) = delete;

    /** Feed one packet. @throws fcc::util::Error when sealed or on
     *  time-disordered input. */
    void feed(const trace::PacketRecord &pkt);

    /** Feed a batch (equivalent to feeding each in order). */
    void feed(std::span<const trace::PacketRecord> batch);

    /**
     * Cut the current chunk at the stream position reached so far:
     * every flow that *started* at or before the last fed packet's
     * timestamp seals into earlier chunks than any flow starting
     * after it. The archiver calls this on its wall/trace-time chunk
     * policy; record-count slicing (FccConfig::chunkRecords) still
     * applies within the cut segments. FCC3 layouts only — the row
     * containers know only the fixed record-count slicing.
     *
     * @throws fcc::util::Error when the session is sealed or the
     *         container is not FCC3.
     */
    void rotateChunk();

    /**
     * Close every open flow, serialize the epoch's datasets into one
     * self-contained archive and return its bytes. The session
     * becomes sealed until reArm().
     *
     * @throws fcc::util::Error when already sealed.
     */
    std::vector<uint8_t> seal(SealInfo *info = nullptr);

    /** seal() straight into a file (plain write — the crash-safe
     *  fsync/rename discipline lives in archive::ArchiveWriter). */
    SealInfo sealToFile(const std::string &path);

    /**
     * Start the next epoch: per-epoch state (open flows, datasets,
     * address table, input clock, chunk cuts) resets; the template
     * store persists when SessionOptions::carryTemplates is set.
     *
     * @throws fcc::util::Error when the session is not sealed.
     */
    void reArm();

    /** True between seal() and reArm(). */
    bool sealed() const { return sealed_; }

    /** Cumulative stats across all epochs; inputBytes only counts
     *  what addInputBytes() attributed. */
    const StreamStats &stats() const { return stats_; }

    /** Attribute source-container bytes to stats().inputBytes (the
     *  session sees decoded records, not container bytes). */
    void addInputBytes(uint64_t bytes) { stats_.inputBytes += bytes; }

    /** Flows closed into the current epoch so far. */
    uint64_t epochRecords() const { return datasets_.timeSeq.size(); }

    /** Packets fed into the current epoch so far. */
    uint64_t epochPackets() const { return epochPackets_; }

    /** Timestamp (µs) of the last packet fed this epoch, 0 if none. */
    uint64_t lastTimestampUs() const { return lastNs_ / 1000; }

    /** Timestamp (µs) of the first packet fed this epoch. */
    uint64_t firstTimestampUs() const { return firstUs_; }

    /** Clusters in the (possibly carried) template store. */
    uint64_t storeTemplates() const { return store_.size(); }

    /** Clusters created during the current epoch. */
    uint64_t epochTemplatesCreated() const { return templatesNew_; }

    const FccConfig &config() const { return cfg_; }
    const SessionOptions &options() const { return options_; }

  private:
    struct OpenFlow;

    void closeFlow(const flow::FlowKey &key, OpenFlow &flowState);
    void sortCanonically();
    void resetEpoch();

    FccConfig cfg_;
    SessionOptions options_;
    flow::Characterizer chi_;
    flow::TemplateStore store_;

    /** Canonical sort key of one closed flow's record. */
    struct SealKey
    {
        uint64_t firstTimestampNs = 0;
        flow::FlowKey key;
    };

    // Per-epoch state, reset by reArm(). Until seal() a closed
    // record holds its server address in addressIndex and, if short,
    // its template-store index in templateIndex; seal() sorts the
    // records and renumbers both.
    Datasets datasets_;
    /** Parallel to datasets_.timeSeq until seal(). */
    std::vector<SealKey> sealKeys_;
    std::unordered_map<flow::FlowKey, OpenFlow> open_;
    /** rotateChunk() cut positions: last fed timestamp (µs). */
    std::vector<uint64_t> chunkCutsUs_;
    uint64_t lastNs_ = 0;
    uint64_t firstUs_ = 0;
    bool sawPacket_ = false;
    uint64_t epochPackets_ = 0;
    uint64_t templatesNew_ = 0;
    bool sealed_ = false;

    StreamStats stats_;
};

/**
 * The matching decompression session: holds config and cumulative
 * stats while open()/drainTo() walk any number of archives. Each
 * archive reconstructs with the §4 bounded-memory flush of
 * reconstruct.hpp — chunked layouts expand their chunks
 * concurrently (cfg.threads) between flushes, bit-identically at
 * any thread count.
 */
class DecompressSession
{
  public:
    /**
     * @throws fcc::util::Error when cfg does not validate
     *         (FccConfig::validate()).
     */
    explicit DecompressSession(const FccConfig &cfg = {});

    DecompressSession(const DecompressSession &) = delete;
    DecompressSession &operator=(const DecompressSession &) = delete;

    /**
     * Decode an archive's datasets into the session (mmap'd read,
     * container auto-detected, pooled FCC3 column decode). Replaces
     * any previously open archive.
     *
     * @throws fcc::util::Error on I/O failure or malformed input.
     */
    void open(const std::string &fccPath);

    /** True after a successful open(), until drainTo(). */
    bool isOpen() const { return open_; }

    /** The open archive's decoded datasets. @throws when !isOpen() */
    const Datasets &datasets() const;

    /**
     * Reconstruct the open archive into @p sink (which is closed on
     * return) and release it. Returns the stats of *this* archive;
     * stats() accumulates across all drained archives.
     *
     * @throws fcc::util::Error when no archive is open.
     */
    StreamStats drainTo(trace::TraceSink &sink);

    /** Cumulative stats across every archive drained so far
     *  (epochs = archives). */
    const StreamStats &stats() const { return stats_; }

    const FccConfig &config() const { return cfg_; }

  private:
    FccConfig cfg_;
    Datasets datasets_;
    uint64_t archiveBytes_ = 0;
    bool open_ = false;
    StreamStats stats_;
};

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_SESSION_HPP
