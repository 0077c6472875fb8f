/**
 * @file
 * Adversarial-input robustness: every codec must survive systematic
 * corruption of its own output — single-byte flips at every offset
 * (stride-sampled) and truncation at every length — by either
 * throwing fcc::util::Error or returning a well-formed trace. No
 * crashes, no unbounded allocation, no silent UB.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "codec/compressor.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/stream.hpp"
#include "query/query.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

#include "test_common.hpp"

using namespace fcc;

namespace {

trace::Trace
webTrace()
{
    trace::WebGenConfig cfg;
    cfg.seed = 101;
    cfg.durationSec = 2.0;
    cfg.flowsPerSec = 50.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

/** Decompress must either throw util::Error or return a trace. */
void
mustNotCrash(const codec::TraceCompressor &codec,
             const std::vector<uint8_t> &bytes, const char *what)
{
    try {
        trace::Trace out = codec.decompress(bytes);
        // A successfully decoded trace must at least be sane.
        EXPECT_LE(out.size(), 10u * 1000 * 1000) << what;
    } catch (const util::Error &) {
        // expected for most corruptions
    }
}

class CodecRobustness
    : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<codec::TraceCompressor>
    makeCodec() const
    {
        for (auto &codec : codec::makeAllCodecs())
            if (codec->name() == GetParam())
                return std::move(codec);
        ADD_FAILURE() << "unknown codec " << GetParam();
        return nullptr;
    }
};

} // namespace

TEST_P(CodecRobustness, SingleByteFlips)
{
    auto codec = makeCodec();
    auto bytes = codec->compress(webTrace());
    ASSERT_GT(bytes.size(), 64u);

    // Flip every byte in the header region and a stride sample of
    // the body; three different flip patterns.
    for (uint8_t pattern : {0xffu, 0x01u, 0x80u}) {
        for (size_t pos = 0; pos < bytes.size();
             pos += pos < 64 ? 1 : 31) {
            auto bad = bytes;
            bad[pos] ^= pattern;
            mustNotCrash(*codec, bad, codec->name().c_str());
        }
    }
}

TEST_P(CodecRobustness, TruncationSweep)
{
    auto codec = makeCodec();
    auto bytes = codec->compress(webTrace());
    for (size_t len = 0; len < bytes.size();
         len += len < 64 ? 1 : 97) {
        auto bad = bytes;
        bad.resize(len);
        mustNotCrash(*codec, bad, codec->name().c_str());
    }
}

TEST_P(CodecRobustness, RandomGarbage)
{
    auto codec = makeCodec();
    util::Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> garbage(
            rng.uniformInt(0, 4096));
        for (auto &byte : garbage)
            byte = static_cast<uint8_t>(rng.next());
        mustNotCrash(*codec, garbage, codec->name().c_str());
    }
}

TEST_P(CodecRobustness, ValidHeaderGarbageBody)
{
    auto codec = makeCodec();
    auto bytes = codec->compress(webTrace());
    util::Rng rng(8);
    for (int trial = 0; trial < 20; ++trial) {
        auto bad = bytes;
        // Keep the first 16 bytes (magic etc.), randomize the rest.
        for (size_t i = 16; i < bad.size(); ++i)
            bad[i] = static_cast<uint8_t>(rng.next());
        mustNotCrash(*codec, bad, codec->name().c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRobustness,
                         ::testing::Values("gzip", "vj", "peuhkuri",
                                           "fcc"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---- cross-seed round-trip properties --------------------------------------

struct RoundTripParam
{
    uint64_t seed;
    double seconds;
    double rate;
};

class FccRoundTripSweep
    : public ::testing::TestWithParam<RoundTripParam>
{};

TEST_P(FccRoundTripSweep, StructurePreserved)
{
    auto [seed, seconds, rate] = GetParam();
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = rate;
    trace::WebTrafficGenerator gen(cfg);
    trace::Trace original = gen.generate();

    codec::fcc::FccTraceCompressor codec;
    auto bytes = codec.compress(original);
    trace::Trace restored = codec.decompress(bytes);

    // Invariants that must hold for every workload:
    EXPECT_EQ(restored.size(), original.size());
    EXPECT_TRUE(restored.isTimeOrdered());
    EXPECT_LT(bytes.size(),
              original.size() * trace::tshRecordBytes / 8)
        << "ratio above 12.5%";
    // Double round trip is stable in size.
    auto bytes2 = codec.compress(restored);
    trace::Trace restored2 = codec.decompress(bytes2);
    EXPECT_EQ(restored2.size(), restored.size());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FccRoundTripSweep,
    ::testing::Values(RoundTripParam{1, 2.0, 30.0},
                      RoundTripParam{2, 2.0, 150.0},
                      RoundTripParam{3, 8.0, 40.0},
                      RoundTripParam{4, 4.0, 80.0},
                      RoundTripParam{5, 1.0, 400.0},
                      RoundTripParam{6, 16.0, 20.0},
                      RoundTripParam{7, 3.0, 60.0},
                      RoundTripParam{8, 5.0, 100.0}));

// ---- overflowing reconstruction timing ------------------------------

namespace {

/**
 * An FCC1 archive of two long flows whose second flow's stored
 * inter-packet time pushes its packet past the nanosecond range:
 * (2000 + 2305843009213692452) us * 1000 wraps to 500 000 ns, before
 * the first flow starts.
 */
std::vector<uint8_t>
overflowingArchive()
{
    namespace fccc = codec::fcc;
    flow::Characterizer chi;
    flow::PacketClass syn;
    syn.flag = flow::FlagClass::Syn;
    flow::PacketClass ack;
    ack.flag = flow::FlagClass::Ack;
    ack.dependent = true;

    fccc::Datasets d;
    d.addresses = {0x0a000001u};
    for (uint64_t secondIpt : {uint64_t{100},
                               uint64_t{2305843009213692452ull}}) {
        fccc::LongTemplate tmpl;
        tmpl.sValues = {chi.encode(syn), chi.encode(ack)};
        tmpl.iptUs = {0, secondIpt};
        d.longTemplates.push_back(tmpl);
    }
    for (uint32_t i = 0; i < 2; ++i) {
        fccc::TimeSeqRecord rec;
        rec.firstTimestampUs = 1000 * (i + 1);
        rec.isLong = true;
        rec.templateIndex = i;
        d.timeSeq.push_back(rec);
    }
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc1;
    fccc::SizeBreakdown sizes;
    return fccc::serializeDatasets(d, cfg, sizes);
}

} // namespace

TEST(FccOverflow, WrappingTimestampsRejectedByEveryFrontEnd)
{
    std::vector<uint8_t> bytes = overflowingArchive();
    codec::fcc::FccTraceCompressor codec;
    EXPECT_THROW(codec.decompress(bytes), util::Error);

    std::string path = fcc::test::tempPath("overflow.fcc");
    {
        util::FileByteSink out(path);
        out.write(bytes);
        out.close();
    }
    trace::Trace drained;
    trace::CollectTraceSink sink(drained);
    EXPECT_THROW(codec::fcc::decompressToSink(path, sink),
                 util::Error);
    trace::Trace queried;
    trace::CollectTraceSink querySink(queried);
    EXPECT_THROW(query::FccArchive(path).run(query::Expr::matchAll(),
                                             querySink),
                 util::Error);
    std::remove(path.c_str());
}
