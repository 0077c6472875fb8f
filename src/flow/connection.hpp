/**
 * @file
 * The per-connection rules of flow assembly (paper §3), written once:
 * who initiated the connection, which way each packet travels, when
 * the teardown completes (RST, or the ACK after FINs in both
 * directions) and when an idle gap means the 5-tuple was reused.
 * The analysis-side FlowTable and the compressor's CompressSession
 * both drive their packets through this state machine, so they agree
 * on where every connection starts and ends.
 */

#ifndef FCC_FLOW_CONNECTION_HPP
#define FCC_FLOW_CONNECTION_HPP

#include <cstdint>

#include "trace/packet.hpp"

namespace fcc::flow {

/** The tracking state of one open bidirectional connection. */
struct Connection
{
    // Widest first: one of these lives in every open flow.
    uint64_t firstTimestampNs = 0;
    uint64_t lastTimestampNs = 0;
    uint32_t clientIp = 0;  ///< connection initiator
    uint32_t serverIp = 0;
    uint16_t clientPort = 0;
    uint16_t serverPort = 0;
    bool finFromClient = false;
    bool finFromServer = false;

    /** What observe() learned about one packet. */
    struct Step
    {
        bool fromClient = true;  ///< client-to-server direction
        bool closes = false;     ///< the teardown completed
    };

    /**
     * Open a connection at its first packet. The initiator is the
     * sender, unless that packet is a SYN+ACK (capture started
     * mid-handshake), in which case the receiver initiated.
     */
    explicit Connection(const trace::PacketRecord &first)
        : firstTimestampNs(first.timestampNs),
          lastTimestampNs(first.timestampNs)
    {
        bool synAck = first.hasSyn() && first.hasAck();
        clientIp = synAck ? first.dstIp : first.srcIp;
        clientPort = synAck ? first.dstPort : first.srcPort;
        serverIp = synAck ? first.srcIp : first.dstIp;
        serverPort = synAck ? first.srcPort : first.dstPort;
    }

    /**
     * True when @p pkt of the same 5-tuple arrives more than
     * @p idleTimeoutNs after this connection's last packet: a new
     * connection reusing the ports, so this one ends first. The
     * comparison is ns-exact; 0 disables the timeout.
     */
    bool
    idleExpired(const trace::PacketRecord &pkt,
                uint64_t idleTimeoutNs) const
    {
        return idleTimeoutNs > 0 &&
               pkt.timestampNs - lastTimestampNs > idleTimeoutNs;
    }

    /** Account one packet of this connection (in time order). */
    Step
    observe(const trace::PacketRecord &pkt)
    {
        Step step;
        step.fromClient =
            pkt.srcIp == clientIp && pkt.srcPort == clientPort;
        lastTimestampNs = pkt.timestampNs;
        if (pkt.hasFin()) {
            if (step.fromClient)
                finFromClient = true;
            else
                finFromServer = true;
        }
        // RST ends the connection at once; a pure ACK after FINs in
        // both directions is the final ack of a graceful close.
        bool gracefulDone = finFromClient && finFromServer &&
                            !pkt.hasFin() && pkt.hasAck();
        step.closes = pkt.hasRst() || gracefulDone;
        return step;
    }
};

} // namespace fcc::flow

#endif // FCC_FLOW_CONNECTION_HPP
