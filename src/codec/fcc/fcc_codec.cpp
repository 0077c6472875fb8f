/**
 * @file
 * The flow-clustering compressor (§3) and decompressor (§4):
 * assemble flows, match short-flow SF vectors against the
 * template store, store long flows verbatim, then regenerate
 * packets from templates + time-seq records on decompression.
 * Optionally DEFLATEs the serialized datasets.
 *
 * Compression is a single-epoch CompressSession (session.cpp): one
 * flow assembler, one cluster store, one canonical seal order.
 * Decompression expands through the one reconstruction loop of
 * reconstruct.cpp. Threads only parallelize the FCC3 column
 * encode/decode and the per-chunk expansion; output is
 * byte-identical at any thread count.
 */

#include "codec/fcc/fcc_codec.hpp"

#include <string>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/index.hpp"
#include "codec/fcc/reconstruct.hpp"
#include "codec/fcc/session.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace fcc::codec::fcc {

namespace {

/** Draw a random class B or C address (paper §4's source rule). */
uint32_t
drawClassBOrC(util::Rng &rng)
{
    if (rng.chance(0.5))
        return 0x80000000u |
               static_cast<uint32_t>(rng.uniformInt(0, 0x3fffffff));
    return 0xc0000000u |
           static_cast<uint32_t>(rng.uniformInt(0, 0x1fffffff));
}

} // namespace

uint64_t
chunkRngSeed(uint64_t decompressSeed, size_t chunk)
{
    return util::hashCombine(decompressSeed, chunk);
}

const char *
containerFormatName(ContainerFormat container)
{
    switch (container) {
      case ContainerFormat::Fcc1:
        return "fcc1";
      case ContainerFormat::Fcc2:
        return "fcc2";
      case ContainerFormat::Fcc3:
        return "fcc3";
    }
    return "?";
}

ContainerFormat
parseContainerName(const std::string &name)
{
    const ContainerFormat all[] = {ContainerFormat::Fcc1,
                                   ContainerFormat::Fcc2,
                                   ContainerFormat::Fcc3};
    for (ContainerFormat container : all)
        if (name == containerFormatName(container))
            return container;
    throw util::Error("unknown container format: " + name);
}

void
FccConfig::validate() const
{
    switch (container) {
      case ContainerFormat::Fcc1:
      case ContainerFormat::Fcc2:
      case ContainerFormat::Fcc3:
        break;
      default:
        throw util::Error("fcc: bad container format");
    }
    util::require(static_cast<uint8_t>(backend) <
                      backend::entropyBackendCount,
                  "fcc: bad entropy backend tag");
    util::require(!index || container == ContainerFormat::Fcc3,
                  "fcc: the chunk/flow index requires the fcc3 "
                  "container");
    util::require(!index || chunkRecords > 0,
                  "fcc3: the index requires a chunked time-seq "
                  "layout (chunkRecords > 0)");
    util::require(weights.decodable(),
                  "fcc: weights are not uniquely decodable");
    util::require(flow::Characterizer(weights).maxValue() <= 0xff,
                  "fcc: weights produce S values above one byte");
    util::require(shortLimit >= 1,
                  "fcc: short/long split must be >= 1 packet");
    // 0 means auto; anything explicit must be sane (catches signed
    // garbage like --threads -1 wrapped through uint32_t).
    if (threads > maxThreads)
        throw util::Error(
            std::string("fcc: thread count out of range (max ")
                .append(std::to_string(maxThreads))
                .append(")"));
    switch (fidelity) {
      case Fidelity::Exact:
      case Fidelity::Quantized:
      case Fidelity::Header:
      case Fidelity::Flow:
        break;
      default:
        throw util::Error("fcc: bad fidelity tier");
    }
    util::require(fidelity == Fidelity::Exact ||
                      container == ContainerFormat::Fcc3,
                  "fcc: lossy fidelity tiers require the fcc3 "
                  "container");
    util::require(fidelity != Fidelity::Quantized || quantumUs >= 1,
                  "fcc: the quantized tier needs a grid >= 1 us");
}

std::vector<uint8_t>
serializeDatasets(const Datasets &datasets, const FccConfig &cfg,
                  SizeBreakdown &breakdown,
                  std::vector<ColumnStat> *columns)
{
    if (columns != nullptr)
        columns->clear();
    cfg.validate();
    std::vector<uint8_t> bytes;
    switch (cfg.container) {
      case ContainerFormat::Fcc1:
        bytes = serialize(datasets, breakdown);
        break;
      case ContainerFormat::Fcc2:
        bytes = serializeChunked(datasets, cfg.chunkRecords,
                                 breakdown);
        break;
      case ContainerFormat::Fcc3: {
        IndexOptions indexOptions;
        indexOptions.gapUs = cfg.defaultGapUs;
        // Degrade to the configured tier just before serialization,
        // so assembly, chunking, and the index all see the same
        // (already-lossy) datasets.
        if (cfg.fidelity != Fidelity::Exact) {
            FidelityParams params;
            params.quantumUs = cfg.quantumUs;
            params.smallPayload = cfg.smallPayload;
            params.largePayload = cfg.largePayload;
            params.defaultGapUs = cfg.defaultGapUs;
            Datasets degraded =
                applyFidelity(datasets, cfg.fidelity, params);
            return serializeColumnar(
                degraded, cfg.chunkRecords, cfg.backend, breakdown,
                cfg.threads, columns,
                cfg.index ? &indexOptions : nullptr);
        }
        // The per-column backends supersede the whole-blob squeeze.
        return serializeColumnar(datasets, cfg.chunkRecords,
                                 cfg.backend, breakdown, cfg.threads,
                                 columns,
                                 cfg.index ? &indexOptions : nullptr);
      }
      default:
        throw util::Error("fcc: bad container format");
    }
    if (cfg.deflateDatasets)
        bytes = deflate::zlibCompress(bytes);
    return bytes;
}

Datasets
deserializeAuto(std::span<const uint8_t> data, uint32_t threads,
                ContainerStat *stat)
{
    // The hybrid container wraps a row stream in zlib: CMF 0x78;
    // the plain formats start with 'F' of "FCC".
    std::vector<uint8_t> inflated;
    if (!data.empty() && data[0] == 0x78) {
        inflated = deflate::zlibDecompress(data);
        data = inflated;
    }
    // Only the columnar container has parallel decode jobs; its
    // pool lives for the decode alone.
    return deserialize(data, threads, stat);
}

FccTraceCompressor::FccTraceCompressor(const FccConfig &cfg)
    : cfg_(cfg)
{
    // Validate eagerly: a bad config should fail construction, not
    // the first compress() call.
    cfg_.validate();
}

std::vector<uint8_t>
FccTraceCompressor::compressWithStats(const trace::Trace &trace,
                                      FccCompressStats &stats) const
{
    CompressSession session(cfg_);
    session.feed(std::span<const trace::PacketRecord>(trace.packets()));
    SealInfo info;
    std::vector<uint8_t> bytes = session.seal(&info);

    stats = FccCompressStats{};
    stats.flows = info.records;
    stats.shortFlows = info.shortFlows;
    stats.longFlows = info.longFlows;
    stats.shortTemplatesCreated = info.templatesNew;
    stats.shortTemplateHits = info.shortFlows - info.templatesNew;
    stats.sizes = info.sizes;
    return bytes;
}

std::vector<uint8_t>
FccTraceCompressor::compress(const trace::Trace &trace) const
{
    FccCompressStats stats;
    return compressWithStats(trace, stats);
}

trace::Trace
FccTraceCompressor::expand(const Datasets &d) const
{
    trace::Trace out;
    trace::CollectTraceSink sink(out);
    expandTo(d, sink);
    return out;
}

uint64_t
FccTraceCompressor::expandTo(const Datasets &d,
                             trace::TraceSink &sink) const
{
    util::require(d.fidelity != Fidelity::Flow,
                  "fcc: flow-fidelity archives carry no per-packet "
                  "data to reconstruct");
    return reconstructDatasets(
        d, cfg_.decompressSeed, cfg_.threads,
        [&](std::span<const TimeSeqRecord> records, util::Rng &rng,
            std::vector<trace::PacketRecord> &out) {
            for (const TimeSeqRecord &rec : records)
                expandFlow(d, rec, rng, out);
        },
        sink);
}

void
FccTraceCompressor::expandFlow(const Datasets &d,
                               const TimeSeqRecord &rec,
                               util::Rng &rng,
                               std::vector<trace::PacketRecord> &out) const
{
    flow::Characterizer chi(d.weights);
    {
        util::require(rec.templateIndex <
                          (rec.isLong ? d.longTemplates.size()
                                      : d.shortTemplates.size()),
                      "fcc: time-seq template index out of range");
        util::require(rec.addressIndex < d.addresses.size(),
                      "fcc: time-seq address index out of range");
        const std::vector<uint16_t> *sValues;
        const std::vector<uint64_t> *iptUs = nullptr;
        if (rec.isLong) {
            const LongTemplate &tmpl =
                d.longTemplates[rec.templateIndex];
            sValues = &tmpl.sValues;
            iptUs = &tmpl.iptUs;
        } else {
            sValues = &d.shortTemplates[rec.templateIndex].values;
        }

        // Paper §4: server address from the address dataset; client
        // address random class B/C; client port random ephemeral;
        // server port 80.
        uint32_t serverIp = d.addresses[rec.addressIndex];
        uint32_t clientIp = drawClassBOrC(rng);
        uint16_t clientPort = static_cast<uint16_t>(
            rng.uniformInt(1024, 65000));

        // Synthesized TCP state, mirroring the workload generator.
        uint32_t cSeq = static_cast<uint32_t>(rng.next());
        uint32_t sSeq = static_cast<uint32_t>(rng.next());
        uint16_t cIpId = static_cast<uint16_t>(rng.next());
        uint16_t sIpId = static_cast<uint16_t>(rng.next());
        uint16_t window = static_cast<uint16_t>(
            rng.uniformInt(16, 255) << 8);

        // Packet timestamps are t * 1000 ns: reject stored timing
        // that would wrap them (unbounded varints on outside input)
        // instead of emitting packets out of time order.
        constexpr uint64_t maxUs = ~uint64_t{0} / 1000;
        const char *overflow =
            "fcc: reconstructed timestamp overflows";
        uint64_t t = rec.firstTimestampUs;
        util::require(t <= maxUs, overflow);
        bool fromClient = true;
        for (size_t i = 0; i < sValues->size(); ++i) {
            flow::PacketClass cls = chi.decode((*sValues)[i]);

            // Direction chain: the dependence bit says whether the
            // direction flipped; the first packet's direction comes
            // from its flag class.
            if (i == 0) {
                fromClient = cls.flag != flow::FlagClass::SynAck;
            } else if (cls.dependent) {
                fromClient = !fromClient;
            }

            // Timing: long flows replay exact inter-packet times;
            // short flows space dependent packets by the flow RTT
            // and others by a small fixed gap (§4).
            if (i > 0) {
                uint64_t stepUs = rec.isLong ? (*iptUs)[i]
                                  : cls.dependent ? rec.rttUs
                                                  : cfg_.defaultGapUs;
                util::require(stepUs <= maxUs - t, overflow);
                t += stepUs;
            }

            uint16_t payload = 0;
            if (cls.size == flow::SizeClass::Small)
                payload = cfg_.smallPayload;
            else if (cls.size == flow::SizeClass::Large)
                payload = cfg_.largePayload;

            uint8_t flags = 0;
            using namespace trace::tcp_flags;
            switch (cls.flag) {
              case flow::FlagClass::Syn:
                flags = Syn;
                break;
              case flow::FlagClass::SynAck:
                flags = Syn | Ack;
                break;
              case flow::FlagClass::Ack:
                flags = payload > 0 ? (Ack | Psh) : Ack;
                break;
              case flow::FlagClass::FinRst:
                flags = Fin | Ack;
                break;
            }

            trace::PacketRecord pkt;
            pkt.timestampNs = t * 1000ull;
            pkt.protocol = trace::ip_proto::Tcp;
            pkt.tcpFlags = flags;
            pkt.payloadBytes = payload;
            pkt.window = window;
            // §4 addressing: every packet of the flow carries the
            // stored destination and the flow's random source (the
            // direction-aware variant swaps them for s->c packets).
            bool addrAsClient =
                fromClient || !cfg_.directionAwareAddresses;
            if (addrAsClient) {
                pkt.srcIp = clientIp;
                pkt.dstIp = serverIp;
                pkt.srcPort = clientPort;
                pkt.dstPort = cfg_.serverPort;
                pkt.seq = cSeq;
                pkt.ack = (flags & Ack) ? sSeq : 0;
                pkt.ipId = cIpId++;
                cSeq += payload;
                if (flags & (Syn | Fin))
                    ++cSeq;
            } else {
                pkt.srcIp = serverIp;
                pkt.dstIp = clientIp;
                pkt.srcPort = cfg_.serverPort;
                pkt.dstPort = clientPort;
                pkt.seq = sSeq;
                pkt.ack = (flags & Ack) ? cSeq : 0;
                pkt.ipId = sIpId++;
                sSeq += payload;
                if (flags & (Syn | Fin))
                    ++sSeq;
            }
            out.push_back(pkt);
        }
    }
}

trace::Trace
FccTraceCompressor::decompress(std::span<const uint8_t> data) const
{
    return expand(deserializeAuto(data, cfg_.threads));
}

} // namespace fcc::codec::fcc
