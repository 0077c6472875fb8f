/**
 * @file
 * Streaming (file-to-file) FCC interface tests: byte equality with
 * the in-memory codec (one engine), the session's flow rules and
 * canonical seal order, construction-time config bounds, the §4
 * incremental flush, and error paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/session.hpp"
#include "codec/fcc/stream.hpp"
#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

trace::Trace
webTrace(uint64_t seed, double seconds)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 80.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

using fcc::test::tempPath;

/** Explicit TSH spec: these fixtures move raw 44-byte records. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

void
writeBytes(const std::string &path, const std::vector<uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Field-wise total order so traces compare as multisets. */
bool
packetLess(const trace::PacketRecord &a, const trace::PacketRecord &b)
{
    auto key = [](const trace::PacketRecord &p) {
        return std::tuple(p.timestampNs, p.srcIp, p.dstIp, p.srcPort,
                          p.dstPort, p.tcpFlags, p.payloadBytes,
                          p.seq, p.ack, p.window, p.ipId);
    };
    return key(a) < key(b);
}

} // namespace

TEST(Stream, CompressedFileDecodesLikeInMemory)
{
    trace::Trace original = webTrace(31, 6.0);
    std::string tshIn = tempPath("stream_in.tsh");
    std::string fccOut = tempPath("stream_out.fcc");
    trace::writeTshFile(original, tshIn);

    auto stats = fccc::compressTraceFile(tshIn, fccOut, {}, kTsh);
    EXPECT_EQ(stats.packets, original.size());
    EXPECT_EQ(stats.inputBytes,
              original.size() * trace::tshRecordBytes);
    EXPECT_GT(stats.flows, 100u);
    EXPECT_LT(stats.ratio(), 0.06);
    EXPECT_GT(stats.ratio(), 0.01);

    // The file decodes with the normal codec and preserves flow
    // structure exactly.
    std::vector<uint8_t> bytes = readFile(fccOut);
    fccc::FccTraceCompressor codec;
    trace::Trace restored = codec.decompress(bytes);
    EXPECT_EQ(restored.size(), original.size());

    flow::FlowTable table;
    auto origStats =
        flow::computeFlowStats(table.assemble(original), original);
    auto backStats =
        flow::computeFlowStats(table.assemble(restored), restored);
    EXPECT_EQ(backStats.flows, origStats.flows);
    EXPECT_EQ(backStats.lengthCounts, origStats.lengthCounts);

    std::remove(tshIn.c_str());
    std::remove(fccOut.c_str());
}

TEST(Stream, StreamingRatioMatchesInMemory)
{
    // One engine: the in-memory codec and the file path write the
    // same bytes in every container/backend/index/fidelity cell, at
    // every thread count. The in-memory side compresses the trace as
    // the file holds it (TSH keeps microseconds).
    std::string tshIn = tempPath("ratio_in.tsh");
    std::string fccOut = tempPath("ratio_out.fcc");
    trace::writeTshFile(webTrace(32, 6.0), tshIn);
    trace::Trace original = trace::readTshFile(tshIn);

    std::vector<fccc::FccConfig> cells;
    for (fccc::ContainerFormat container :
         {fccc::ContainerFormat::Fcc1, fccc::ContainerFormat::Fcc2}) {
        for (bool hybrid : {false, true}) {
            fccc::FccConfig cfg;
            cfg.container = container;
            cfg.chunkRecords =
                container == fccc::ContainerFormat::Fcc1 ? 0 : 256;
            cfg.deflateDatasets = hybrid;
            cells.push_back(cfg);
        }
    }
    for (auto backend : {codec::backend::EntropyBackend::Store,
                         codec::backend::EntropyBackend::Deflate,
                         codec::backend::EntropyBackend::Range,
                         codec::backend::EntropyBackend::RangeLanes}) {
        for (bool index : {false, true}) {
            fccc::FccConfig cfg;
            cfg.container = fccc::ContainerFormat::Fcc3;
            cfg.backend = backend;
            cfg.chunkRecords = 256;
            cfg.index = index;
            cells.push_back(cfg);
        }
    }
    for (fccc::Fidelity tier : {fccc::Fidelity::Quantized,
                                fccc::Fidelity::Header,
                                fccc::Fidelity::Flow}) {
        fccc::FccConfig cfg;
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.chunkRecords = 256;
        cfg.index = true;
        cfg.fidelity = tier;
        cells.push_back(cfg);
    }

    for (fccc::FccConfig cfg : cells) {
        std::vector<uint8_t> reference;
        for (uint32_t threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(
                std::string(fccc::containerFormatName(cfg.container)) +
                " backend " +
                std::to_string(static_cast<int>(cfg.backend)) +
                " fidelity " +
                std::to_string(static_cast<int>(cfg.fidelity)) +
                (cfg.index ? " indexed" : "") +
                (cfg.deflateDatasets ? " hybrid" : "") + ", threads " +
                std::to_string(threads));
            cfg.threads = threads;
            auto stats =
                fccc::compressTraceFile(tshIn, fccOut, cfg, kTsh);
            auto inMemory =
                fccc::FccTraceCompressor(cfg).compress(original);
            EXPECT_EQ(stats.outputBytes, inMemory.size());
            EXPECT_EQ(readFile(fccOut), inMemory);
            if (reference.empty())
                reference = inMemory;
            EXPECT_EQ(inMemory, reference);
        }
    }

    std::remove(tshIn.c_str());
    std::remove(fccOut.c_str());
}

TEST(Stream, IdleTimeoutIsNanosecondExact)
{
    // Two same-5-tuple ACKs exactly one idle timeout apart, the
    // first off a microsecond boundary: the gap does not exceed the
    // timeout, so both assemblers must see one connection.
    trace::PacketRecord pkt;
    pkt.srcIp = 0x0a000001;
    pkt.dstIp = 0x0a000002;
    pkt.srcPort = 40000;
    pkt.dstPort = 80;
    pkt.tcpFlags = trace::tcp_flags::Ack;
    trace::Trace tr;
    pkt.timestampNs = 1000000500ull;
    tr.add(pkt);
    pkt.timestampNs += flow::FlowTableConfig{}.idleTimeoutNs;
    tr.add(pkt);

    size_t assembled = flow::FlowTable().assemble(tr).size();
    EXPECT_EQ(assembled, 1u);

    fccc::CompressSession session(fccc::FccConfig{});
    session.feed(std::span<const trace::PacketRecord>(tr.packets()));
    fccc::SealInfo info;
    session.seal(&info);
    EXPECT_EQ(info.records, assembled);
}

TEST(Stream, SealOrderIsCanonicalNotCloseOrder)
{
    // Flows a and b start within one microsecond; b (later by ns,
    // smaller 5-tuple) is torn down first. The sealed time-seq must
    // list them in canonicalFlowOrderKey order — a before b — not in
    // close order, µs order or 5-tuple order.
    auto packet = [](uint32_t server, uint64_t ns, uint8_t flags) {
        trace::PacketRecord pkt;
        pkt.srcIp = 0x0a000001;
        pkt.dstIp = server;
        pkt.srcPort = 40000;
        pkt.dstPort = 80;
        pkt.tcpFlags = flags;
        pkt.timestampNs = ns;
        return pkt;
    };
    using namespace trace::tcp_flags;
    const uint32_t serverA = 0x14000002;
    const uint32_t serverB = 0x14000001;
    trace::PacketRecord a0 = packet(serverA, 5000000100ull, Syn);
    trace::PacketRecord b0 = packet(serverB, 5000000200ull, Syn);
    trace::PacketRecord b1 = packet(serverB, 5001000000ull, Rst);
    trace::PacketRecord a1 = packet(serverA, 5002000000ull, Rst);
    ASSERT_LT(flow::canonicalFlowOrderKey(
                  a0.timestampNs, flow::FlowKey::fromPacket(a0)),
              flow::canonicalFlowOrderKey(
                  b0.timestampNs, flow::FlowKey::fromPacket(b0)));
    ASSERT_LT(flow::FlowKey::fromPacket(b0).ipB,
              flow::FlowKey::fromPacket(a0).ipB);

    fccc::CompressSession session(fccc::FccConfig{});
    for (const auto &pkt : {a0, b0, b1, a1})
        session.feed(pkt);
    fccc::Datasets d = fccc::deserializeAuto(session.seal(), 1);
    ASSERT_EQ(d.timeSeq.size(), 2u);
    EXPECT_EQ(d.addresses[d.timeSeq[0].addressIndex], serverA);
    EXPECT_EQ(d.addresses[d.timeSeq[1].addressIndex], serverB);
    // First-use numbering over the sorted records.
    EXPECT_EQ(d.timeSeq[0].addressIndex, 0u);
    EXPECT_EQ(d.timeSeq[1].addressIndex, 1u);
}

TEST(Stream, ThreadCountIsBoundedAtConstruction)
{
    // Every constructor validates, so an absurd worker count fails
    // before any thread pool could be built.
    for (uint32_t threads :
         {fccc::FccConfig::maxThreads + 1, uint32_t{UINT32_MAX}}) {
        fccc::FccConfig cfg;
        cfg.threads = threads;
        EXPECT_THROW(cfg.validate(), util::Error);
        EXPECT_THROW(fccc::CompressSession{cfg}, util::Error);
        EXPECT_THROW(fccc::DecompressSession{cfg}, util::Error);
        EXPECT_THROW(fccc::FccTraceCompressor{cfg}, util::Error);
    }
    fccc::FccConfig cfg;
    cfg.threads = fccc::FccConfig::maxThreads;
    EXPECT_NO_THROW(cfg.validate());

    // The other two per-codec checks live in validate() too.
    fccc::FccConfig noSplit;
    noSplit.shortLimit = 0;
    EXPECT_THROW(fccc::CompressSession{noSplit}, util::Error);
    fccc::FccConfig wide;
    wide.weights = flow::Weights{100, 20, 5};  // max S above 0xff
    EXPECT_THROW(fccc::DecompressSession{wide}, util::Error);
}

TEST(Stream, DecompressMatchesBatchExactly)
{
    // Feeding a batch-compressed stream through the streaming
    // decompressor must reproduce the batch reconstruction packet
    // for packet (same seed, same record order).
    trace::Trace original = webTrace(33, 5.0);
    fccc::FccTraceCompressor codec;
    auto bytes = codec.compress(original);
    trace::Trace batch = codec.decompress(bytes);

    std::string fccIn = tempPath("batch.fcc");
    std::string tshOut = tempPath("streamed.tsh");
    writeBytes(fccIn, bytes);
    auto stats =
        fccc::decompressTraceFile(fccIn, tshOut, {}, kTsh);
    EXPECT_EQ(stats.packets, batch.size());
    EXPECT_EQ(stats.flows,
              flow::FlowTable().assemble(original).size());

    trace::Trace streamed = trace::readTshFile(tshOut);
    ASSERT_EQ(streamed.size(), batch.size());

    // Compare as multisets (equal timestamps may interleave
    // differently between the heap flush and the batch sort).
    std::vector<trace::PacketRecord> a = batch.packets();
    std::vector<trace::PacketRecord> b = streamed.packets();
    std::sort(a.begin(), a.end(), packetLess);
    std::sort(b.begin(), b.end(), packetLess);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].timestampUs(), b[i].timestampUs()) << i;
        EXPECT_EQ(a[i].srcIp, b[i].srcIp) << i;
        EXPECT_EQ(a[i].dstIp, b[i].dstIp) << i;
        EXPECT_EQ(a[i].tcpFlags, b[i].tcpFlags) << i;
        EXPECT_EQ(a[i].payloadBytes, b[i].payloadBytes) << i;
    }

    // The streamed output is itself time-ordered.
    EXPECT_TRUE(streamed.isTimeOrdered());

    std::remove(fccIn.c_str());
    std::remove(tshOut.c_str());
}

TEST(Stream, FullFileRoundTrip)
{
    trace::Trace original = webTrace(34, 4.0);
    std::string tshIn = tempPath("rt_in.tsh");
    std::string fccMid = tempPath("rt_mid.fcc");
    std::string tshOut = tempPath("rt_out.tsh");
    trace::writeTshFile(original, tshIn);

    fccc::compressTraceFile(tshIn, fccMid, {}, kTsh);
    auto stats =
        fccc::decompressTraceFile(fccMid, tshOut, {}, kTsh);
    EXPECT_EQ(stats.packets, original.size());

    trace::Trace restored = trace::readTshFile(tshOut);
    EXPECT_EQ(restored.size(), original.size());
    EXPECT_TRUE(restored.isTimeOrdered());

    std::remove(tshIn.c_str());
    std::remove(fccMid.c_str());
    std::remove(tshOut.c_str());
}

TEST(Stream, CrossContainerMatrixDecodesIdentically)
{
    // One trace, compressed as FCC1, FCC2 and FCC3, must decompress
    // to the identical TSH bytes. Expansion is driven by the chunk
    // layout (one RNG stream per chunk, or the sequential legacy
    // stream when unchunked), so equal layouts mean equal bytes:
    // unchunked, all three containers agree; chunked, FCC2 and FCC3
    // agree.
    trace::Trace original = webTrace(35, 5.0);
    std::string tshIn = tempPath("matrix_in.tsh");
    trace::writeTshFile(original, tshIn);

    auto compressAs = [&](fccc::ContainerFormat container,
                          uint32_t chunkRecords,
                          const char *name) {
        fccc::FccConfig cfg;
        cfg.container = container;
        cfg.chunkRecords = chunkRecords;
        std::string fcc = tempPath(name) + ".fcc";
        fccc::compressTraceFile(tshIn, fcc, cfg);
        std::string tsh = tempPath(name) + ".tsh";
        fccc::decompressTraceFile(fcc, tsh, cfg, kTsh);
        std::vector<uint8_t> bytes = readFile(tsh);
        EXPECT_FALSE(bytes.empty()) << name;
        std::remove(fcc.c_str());
        std::remove(tsh.c_str());
        return bytes;
    };

    // Unchunked: all three containers, one sequential RNG stream.
    auto v1 = compressAs(fccc::ContainerFormat::Fcc1, 0, "mx1");
    auto v2 = compressAs(fccc::ContainerFormat::Fcc2, 0, "mx2");
    auto v3 = compressAs(fccc::ContainerFormat::Fcc3, 0, "mx3");
    EXPECT_EQ(v1, v2);
    EXPECT_EQ(v1, v3);

    // Chunked: FCC2 and FCC3 share the chunk layout and RNG streams.
    auto c2 = compressAs(fccc::ContainerFormat::Fcc2, 256, "mc2");
    auto c3 = compressAs(fccc::ContainerFormat::Fcc3, 256, "mc3");
    EXPECT_EQ(c2, c3);

    std::remove(tshIn.c_str());
}

TEST(Stream, Fcc3DeflateNoLargerThanFcc2)
{
    // The acceptance bar of the columnar refactor: on the reference
    // seed-2005 trace, FCC3 with the deflate backend must not lose
    // to the FCC2 whole-blob baseline.
    trace::Trace original = webTrace(2005, 8.0);
    std::string tshIn = tempPath("sz_in.tsh");
    trace::writeTshFile(original, tshIn);

    fccc::FccConfig cfg2;
    cfg2.container = fccc::ContainerFormat::Fcc2;
    std::string f2 = tempPath("sz2.fcc");
    auto s2 = fccc::compressTraceFile(tshIn, f2, cfg2);

    fccc::FccConfig cfg3;
    cfg3.container = fccc::ContainerFormat::Fcc3;
    cfg3.backend = codec::backend::EntropyBackend::Deflate;
    std::string f3 = tempPath("sz3.fcc");
    auto s3 = fccc::compressTraceFile(tshIn, f3, cfg3);

    EXPECT_LE(s3.outputBytes, s2.outputBytes);
    EXPECT_GT(s3.outputBytes, 0u);

    std::remove(tshIn.c_str());
    std::remove(f2.c_str());
    std::remove(f3.c_str());
}

TEST(Stream, Fcc3ByteIdenticalAcrossThreadCounts)
{
    // FCC3 with the deflate backend round-trips byte-identically at
    // 1/2/4/8 threads, both directions.
    trace::Trace original = webTrace(36, 5.0);
    std::string tshIn = tempPath("thr_in.tsh");
    trace::writeTshFile(original, tshIn);

    std::vector<uint8_t> refFcc, refTsh;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        fccc::FccConfig cfg;
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.threads = threads;
        cfg.chunkRecords = 64;  // span several chunks
        std::string fcc = tempPath("thr.fcc");
        fccc::compressTraceFile(tshIn, fcc, cfg);
        std::vector<uint8_t> fccBytes = readFile(fcc);
        auto tshBytes = trace::writeTsh(
            fccc::FccTraceCompressor(cfg).decompress(fccBytes));
        if (threads == 1) {
            refFcc = fccBytes;
            refTsh = tshBytes;
            EXPECT_FALSE(refFcc.empty());
        } else {
            EXPECT_EQ(fccBytes, refFcc) << threads << " threads";
            EXPECT_EQ(tshBytes, refTsh) << threads << " threads";
        }
        std::remove(fcc.c_str());
    }
    std::remove(tshIn.c_str());
}

TEST(Stream, HybridDeflateRoundTripsViaStreaming)
{
    // The whole-blob hybrid deflate must work file-to-file in both
    // directions: streaming compression writes the zlib wrapper
    // (same single serializeDatasets entry point as the in-memory
    // codec) and streaming decompression unwraps it before
    // container detection.
    trace::Trace original = webTrace(37, 4.0);
    std::string tshIn = tempPath("hybrid_in.tsh");
    trace::writeTshFile(original, tshIn);

    fccc::FccConfig cfg;
    cfg.deflateDatasets = true;
    std::string fccMid = tempPath("hybrid.fcc");
    std::string tshOut = tempPath("hybrid.tsh");
    auto cstats = fccc::compressTraceFile(tshIn, fccMid, cfg);

    std::ifstream in(fccMid, std::ios::binary);
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], 0x78);  // zlib CMF
    EXPECT_EQ(cstats.outputBytes, bytes.size());

    auto stats =
        fccc::decompressTraceFile(fccMid, tshOut, cfg, kTsh);
    EXPECT_EQ(stats.packets, original.size());
    EXPECT_EQ(stats.inputBytes, bytes.size());

    std::remove(tshIn.c_str());
    std::remove(fccMid.c_str());
    std::remove(tshOut.c_str());
}

TEST(Stream, MissingInputFileThrows)
{
    EXPECT_THROW(fccc::compressTraceFile(tempPath("nope.tsh"),
                                         tempPath("x.fcc"), {},
                                         kTsh),
                 util::Error);
    EXPECT_THROW(fccc::decompressTraceFile(tempPath("nope.fcc"),
                                           tempPath("x.tsh"), {},
                                           kTsh),
                 util::Error);
}

TEST(Stream, PartialTshRecordRejected)
{
    std::string path = tempPath("partial.tsh");
    std::vector<uint8_t> bad(trace::tshRecordBytes + 7, 0);
    // Make the first record a valid IPv4 header so only the trailing
    // partial record is at fault.
    trace::Trace one;
    trace::PacketRecord pkt;
    one.add(pkt);
    auto good = trace::writeTsh(one);
    std::copy(good.begin(), good.end(), bad.begin());
    writeBytes(path, bad);
    EXPECT_THROW(fccc::compressTraceFile(path, tempPath("x.fcc"),
                                         {}, kTsh),
                 util::Error);
    std::remove(path.c_str());
}

TEST(Stream, UnorderedInputRejected)
{
    trace::Trace tr;
    trace::PacketRecord pkt;
    pkt.timestampNs = 2000000;
    tr.add(pkt);
    pkt.timestampNs = 1000000;
    tr.add(pkt);
    std::string path = tempPath("unordered.tsh");
    trace::writeTshFile(tr, path);
    EXPECT_THROW(fccc::compressTraceFile(path, tempPath("x.fcc"),
                                         {}, kTsh),
                 util::Error);
    std::remove(path.c_str());
}
