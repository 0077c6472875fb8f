/**
 * @file
 * Session-based compression/decompression: the open-ended epoch
 * machinery the one-shot wrappers of stream.cpp and the archiver
 * daemon (src/archive) both run on. The flow-closing rules are the
 * paper's §3 (graceful FIN/FIN/ACK, RST, idle timeout, shared with
 * FlowTable through flow::Connection), the reconstruction path the
 * §4 bounded-memory flush of reconstruct.cpp.
 */

#include "codec/fcc/session.hpp"

#include <algorithm>
#include <numeric>

#include "flow/connection.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

namespace fcc::codec::fcc {

/**
 * Incremental single-flow state: the shared connection tracker plus
 * enough to classify packets online (the dependence bit only needs
 * the previous packet's direction) and to emit the flow's datasets
 * entry when it closes.
 */
struct CompressSession::OpenFlow
{
    explicit OpenFlow(const trace::PacketRecord &first) : conn(first)
    {
    }

    flow::Connection conn;
    bool prevFromClient = true;
    uint32_t rttUs = 0;  ///< first direction-change gap
    std::vector<uint16_t> sValues;
    std::vector<uint64_t> packetUs;
};

CompressSession::CompressSession(const FccConfig &cfg,
                                 const SessionOptions &options)
    : cfg_(cfg), options_(options), chi_(cfg.weights),
      store_(cfg.rule)
{
    cfg_.validate();
    datasets_.weights = cfg_.weights;
    stats_.epochs = 1;
}

CompressSession::~CompressSession() = default;

void
CompressSession::feed(const trace::PacketRecord &pkt)
{
    util::require(!sealed_,
                  "fcc session: feed() on a sealed session "
                  "(reArm() first)");
    util::require(pkt.timestampNs >= lastNs_,
                  "fcc stream: input not time-ordered");
    lastNs_ = pkt.timestampNs;
    if (!sawPacket_) {
        firstUs_ = pkt.timestampUs();
        sawPacket_ = true;
    }
    ++epochPackets_;
    ++stats_.packets;

    flow::FlowKey key = flow::FlowKey::fromPacket(pkt);
    auto it = open_.find(key);
    if (it != open_.end() &&
        it->second.conn.idleExpired(pkt,
                                    cfg_.flowTable.idleTimeoutNs)) {
        closeFlow(key, it->second);
        open_.erase(it);
        it = open_.end();
    }
    if (it == open_.end())
        it = open_.try_emplace(key, pkt).first;
    OpenFlow &flowState = it->second;

    flow::Connection::Step step = flowState.conn.observe(pkt);
    flow::PacketClass cls;
    cls.flag = flow::flagClass(pkt.tcpFlags);
    cls.size = flow::sizeClass(pkt.payloadBytes);
    cls.dependent = !flowState.sValues.empty() &&
                    step.fromClient != flowState.prevFromClient;
    if (cls.dependent && flowState.rttUs == 0) {
        uint64_t gap = pkt.timestampUs() - flowState.packetUs.back();
        flowState.rttUs = static_cast<uint32_t>(
            std::min<uint64_t>(gap, 0xffffffffu));
    }
    flowState.sValues.push_back(chi_.encode(cls));
    flowState.packetUs.push_back(pkt.timestampUs());
    flowState.prevFromClient = step.fromClient;

    if (step.closes) {
        closeFlow(key, flowState);
        open_.erase(it);
    }
}

void
CompressSession::feed(std::span<const trace::PacketRecord> batch)
{
    for (const trace::PacketRecord &pkt : batch)
        feed(pkt);
}

void
CompressSession::rotateChunk()
{
    util::require(!sealed_,
                  "fcc session: rotateChunk() on a sealed session");
    util::require(cfg_.container == ContainerFormat::Fcc3,
                  "fcc session: time-based chunk rotation requires "
                  "the fcc3 container");
    if (!sawPacket_)
        return;  // nothing fed yet: no position to cut at
    uint64_t cutUs = lastNs_ / 1000;
    if (chunkCutsUs_.empty() || chunkCutsUs_.back() < cutUs)
        chunkCutsUs_.push_back(cutUs);
}

void
CompressSession::closeFlow(const flow::FlowKey &key,
                           OpenFlow &flowState)
{
    ++stats_.flows;
    TimeSeqRecord rec;
    rec.firstTimestampUs = flowState.packetUs.front();
    // Provisional: the server address itself, renumbered at seal.
    rec.addressIndex = flowState.conn.serverIp;

    if (flowState.sValues.size() <= cfg_.shortLimit) {
        flow::SfVector sf;
        sf.values = std::move(flowState.sValues);
        flow::TemplateMatch match = store_.findOrInsert(sf);
        if (match.isNew)
            ++templatesNew_;
        rec.isLong = false;
        // Provisional: the store index, compacted at seal.
        rec.templateIndex = match.index;
        rec.rttUs = flowState.rttUs;
    } else {
        LongTemplate tmpl;
        tmpl.sValues = std::move(flowState.sValues);
        tmpl.iptUs.resize(flowState.packetUs.size());
        tmpl.iptUs[0] = 0;
        for (size_t i = 1; i < flowState.packetUs.size(); ++i)
            tmpl.iptUs[i] =
                flowState.packetUs[i] - flowState.packetUs[i - 1];
        rec.isLong = true;
        rec.templateIndex =
            static_cast<uint32_t>(datasets_.longTemplates.size());
        datasets_.longTemplates.push_back(std::move(tmpl));
    }
    datasets_.timeSeq.push_back(rec);
    sealKeys_.push_back({flowState.conn.firstTimestampNs, key});
}

void
CompressSession::sortCanonically()
{
    // Canonical record order, whatever order the flows closed in;
    // the close index breaks the (rare) tie of one 5-tuple starting
    // twice in the same nanosecond.
    std::vector<uint32_t> order(datasets_.timeSeq.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [this](uint32_t a, uint32_t b) {
                  auto ka = flow::canonicalFlowOrderKey(
                      sealKeys_[a].firstTimestampNs, sealKeys_[a].key);
                  auto kb = flow::canonicalFlowOrderKey(
                      sealKeys_[b].firstTimestampNs, sealKeys_[b].key);
                  return ka != kb ? ka < kb : a < b;
              });
    // The keys have served; free them before the serializer's
    // buffers.
    sealKeys_ = {};

    // Number addresses and templates in first-use order over the
    // sorted records. Short templates compact to the store entries
    // this epoch references, so a sealed archive is self-contained
    // whatever earlier epochs left in a carried store.
    std::vector<TimeSeqRecord> sorted;
    sorted.reserve(order.size());
    std::vector<LongTemplate> longTemplates;
    longTemplates.reserve(datasets_.longTemplates.size());
    std::unordered_map<uint32_t, uint32_t> addrIndex;
    std::unordered_map<uint32_t, uint32_t> shortIndex;
    for (uint32_t i : order) {
        TimeSeqRecord rec = datasets_.timeSeq[i];
        auto [ait, isNewAddr] = addrIndex.try_emplace(
            rec.addressIndex,
            static_cast<uint32_t>(datasets_.addresses.size()));
        if (isNewAddr)
            datasets_.addresses.push_back(rec.addressIndex);
        rec.addressIndex = ait->second;
        if (rec.isLong) {
            longTemplates.push_back(std::move(
                datasets_.longTemplates[rec.templateIndex]));
            rec.templateIndex =
                static_cast<uint32_t>(longTemplates.size() - 1);
        } else {
            auto [tit, isNewRef] = shortIndex.try_emplace(
                rec.templateIndex,
                static_cast<uint32_t>(
                    datasets_.shortTemplates.size()));
            if (isNewRef)
                datasets_.shortTemplates.push_back(
                    store_.at(rec.templateIndex));
            rec.templateIndex = tit->second;
        }
        sorted.push_back(rec);
    }
    datasets_.timeSeq = std::move(sorted);
    datasets_.longTemplates = std::move(longTemplates);
}

std::vector<uint8_t>
CompressSession::seal(SealInfo *info)
{
    util::require(!sealed_,
                  "fcc session: seal() on a sealed session");
    sealed_ = true;

    for (auto &[key, flowState] : open_)
        closeFlow(key, flowState);
    open_.clear();
    sortCanonically();

    // Explicit time-based chunk cuts (rotateChunk): records are now
    // sorted by flow start, so "everything started by the cut" is a
    // prefix; the record-count policy still slices inside segments.
    if (!chunkCutsUs_.empty()) {
        size_t records = datasets_.timeSeq.size();
        std::vector<uint32_t> layout;
        size_t begin = 0;
        auto emitSegment = [&](size_t end) {
            size_t step = cfg_.chunkRecords > 0
                ? cfg_.chunkRecords
                : end - begin;
            while (begin < end) {
                size_t n = std::min(step, end - begin);
                layout.push_back(static_cast<uint32_t>(n));
                begin += n;
            }
        };
        for (uint64_t cutUs : chunkCutsUs_) {
            auto it = std::upper_bound(
                datasets_.timeSeq.begin() + begin,
                datasets_.timeSeq.end(), cutUs,
                [](uint64_t t, const TimeSeqRecord &r) {
                    return t < r.firstTimestampUs;
                });
            emitSegment(static_cast<size_t>(
                it - datasets_.timeSeq.begin()));
        }
        emitSegment(records);
        datasets_.chunkSizes = std::move(layout);
    }

    SizeBreakdown sizes;
    // Container dispatch (FCC1/FCC2/FCC3); FCC3 runs its per-column
    // encode jobs on cfg.threads.
    std::vector<uint8_t> bytes =
        serializeDatasets(datasets_, cfg_, sizes);

    uint64_t records = datasets_.timeSeq.size();
    uint64_t chunks = 0;
    if (!datasets_.chunkSizes.empty())
        chunks = datasets_.chunkSizes.size();
    else if (cfg_.container != ContainerFormat::Fcc1 &&
             cfg_.chunkRecords > 0)
        chunks = (records + cfg_.chunkRecords - 1) /
                 cfg_.chunkRecords;

    stats_.outputBytes += bytes.size();
    stats_.chunksSealed += chunks;
    ++stats_.archivesSealed;

    if (info != nullptr) {
        info->records = records;
        info->packets = epochPackets_;
        info->chunks = chunks;
        info->bytes = bytes.size();
        info->minFirstUs = records > 0
            ? datasets_.timeSeq.front().firstTimestampUs
            : 0;
        info->maxLastUs = lastNs_ / 1000;
        info->templatesNew = templatesNew_;
        info->longFlows = datasets_.longTemplates.size();
        info->shortFlows = records - info->longFlows;
        info->sizes = sizes;
    }
    return bytes;
}

SealInfo
CompressSession::sealToFile(const std::string &path)
{
    SealInfo info;
    std::vector<uint8_t> bytes = seal(&info);
    util::FileByteSink out(path);
    out.write(bytes);
    out.close();
    return info;
}

void
CompressSession::resetEpoch()
{
    datasets_ = Datasets{};
    datasets_.weights = cfg_.weights;
    // A fresh map, not clear(): clear() keeps the grown bucket
    // count, and seal()'s final sweep iterates this map — a re-armed
    // epoch must walk it in exactly a fresh session's order.
    open_ = decltype(open_){};
    sealKeys_.clear();
    chunkCutsUs_.clear();
    lastNs_ = 0;
    firstUs_ = 0;
    sawPacket_ = false;
    epochPackets_ = 0;
    templatesNew_ = 0;
}

void
CompressSession::reArm()
{
    util::require(sealed_,
                  "fcc session: reArm() on an armed session");
    resetEpoch();
    if (!options_.carryTemplates)
        store_ = flow::TemplateStore(cfg_.rule);
    sealed_ = false;
    ++stats_.epochs;
}

// ---- decompression --------------------------------------------------

DecompressSession::DecompressSession(const FccConfig &cfg)
    : cfg_(cfg)
{
    cfg_.validate();
}

void
DecompressSession::open(const std::string &fccPath)
{
    // The compressed artifact is read via mmap when possible — the
    // Datasets it decodes to live in memory by design; the
    // *reconstructed packets* never do.
    auto in = util::openByteSource(fccPath);
    std::vector<uint8_t> owned;
    std::span<const uint8_t> bytes = util::readAllBytes(*in, owned);
    archiveBytes_ = bytes.size();
    // One shared decode entry point: zlib-hybrid unwrap, container
    // auto-detection, pooled FCC3 column decode.
    datasets_ = deserializeAuto(bytes, cfg_.threads);
    open_ = true;
}

const Datasets &
DecompressSession::datasets() const
{
    util::require(open_, "fcc session: no archive open");
    return datasets_;
}

StreamStats
DecompressSession::drainTo(trace::TraceSink &sink)
{
    util::require(open_, "fcc session: no archive open");

    StreamStats archiveStats;
    archiveStats.inputBytes = archiveBytes_;
    archiveStats.flows = datasets_.timeSeq.size();
    // Paper §4: the one reconstruction loop flushes rebuilt packets
    // in canonical order as it scans the records, so peak memory
    // stays near one batch of chunks plus the active flows.
    archiveStats.packets =
        FccTraceCompressor(cfg_).expandTo(datasets_, sink);
    archiveStats.outputBytes = sink.bytesWritten();

    datasets_ = Datasets{};
    archiveBytes_ = 0;
    open_ = false;

    stats_.packets += archiveStats.packets;
    stats_.flows += archiveStats.flows;
    stats_.inputBytes += archiveStats.inputBytes;
    stats_.outputBytes += archiveStats.outputBytes;
    ++stats_.epochs;
    return archiveStats;
}

} // namespace fcc::codec::fcc
