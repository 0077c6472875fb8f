/**
 * @file
 * Flow assembly: demultiplex a time-ordered packet trace into
 * bidirectional TCP connections.
 *
 * Mirrors the paper's compressor front end (§3): packets are grouped
 * by canonical 5-tuple; a connection is flushed when its teardown
 * completes (RST, or the ACK following FINs in both directions), when
 * it stays idle longer than a timeout, or at end of trace. Those
 * per-connection rules live in flow/connection.hpp, shared with the
 * compressor's session.
 */

#ifndef FCC_FLOW_FLOW_TABLE_HPP
#define FCC_FLOW_FLOW_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "flow/flow_key.hpp"
#include "trace/trace.hpp"

namespace fcc::flow {

/** One assembled bidirectional connection. */
struct AssembledFlow
{
    FlowKey key;

    uint32_t clientIp = 0;   ///< connection initiator
    uint32_t serverIp = 0;
    uint16_t clientPort = 0;
    uint16_t serverPort = 0;

    /** Indices into the source trace, in time order. */
    std::vector<uint32_t> packetIndex;
    /** Direction of each packet (parallel to packetIndex). */
    std::vector<bool> fromClient;

    uint64_t firstTimestampNs = 0;

    size_t size() const { return packetIndex.size(); }
};

/** Flow assembly parameters. */
struct FlowTableConfig
{
    /** Idle gap that closes a connection (0 disables). */
    uint64_t idleTimeoutNs = 60ull * 1000000000ull;
};

/**
 * Sort key of the deterministic flow order: first-packet timestamp,
 * ties broken by the canonical 5-tuple. Every code path that orders
 * flows (FlowTable::assemble, the compressor's seal) uses this one
 * key, so the compressed time-seq dataset lists flows in exactly the
 * order the analysis side assembles them, whatever order they
 * closed in.
 */
inline auto
canonicalFlowOrderKey(uint64_t firstTimestampNs, const FlowKey &key)
{
    return std::tuple(firstTimestampNs, key.ipA, key.ipB, key.portA,
                      key.portB, key.protocol);
}

/** canonicalFlowOrderKey comparison on assembled flows. */
bool canonicalFlowLess(const AssembledFlow &a, const AssembledFlow &b);

/**
 * Assembles connections out of a packet trace.
 *
 * The input must be time-ordered; flows are returned in
 * canonicalFlowLess order (first packet's timestamp, then 5-tuple),
 * matching the compressor's time-seq dataset order.
 */
class FlowTable
{
  public:
    explicit FlowTable(const FlowTableConfig &cfg = {});

    /**
     * Group every packet of @p trace into connections.
     *
     * @throws fcc::util::Error if @p trace is not time-ordered.
     */
    std::vector<AssembledFlow> assemble(const trace::Trace &trace) const;

  private:
    FlowTableConfig cfg_;
};

} // namespace fcc::flow

#endif // FCC_FLOW_FLOW_TABLE_HPP
