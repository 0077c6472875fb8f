/**
 * @file
 * PacketRecord helpers: dotted-quad IPv4 formatting/parsing and
 * human-readable one-line packet rendering.
 */

#include "trace/packet.hpp"

#include <cstdio>
#include <vector>

#include "util/error.hpp"

namespace fcc::trace {

std::string
formatIp(uint32_t addr)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u",
                  (addr >> 24) & 0xff, (addr >> 16) & 0xff,
                  (addr >> 8) & 0xff, addr & 0xff);
    return buf;
}

uint32_t
parseIp(const std::string &text)
{
    unsigned a, b, c, d;
    char tail;
    int n = std::sscanf(text.c_str(), "%u.%u.%u.%u%c",
                        &a, &b, &c, &d, &tail);
    util::require(n == 4 && a < 256 && b < 256 && c < 256 && d < 256,
                  "parseIp: malformed IPv4 address");
    return (a << 24) | (b << 16) | (c << 8) | d;
}

std::string
formatTcpFlags(uint8_t flags)
{
    static const struct { uint8_t bit; const char *name; } names[] = {
        { tcp_flags::Syn, "SYN" }, { tcp_flags::Ack, "ACK" },
        { tcp_flags::Fin, "FIN" }, { tcp_flags::Rst, "RST" },
        { tcp_flags::Psh, "PSH" }, { tcp_flags::Urg, "URG" },
    };
    std::string out;
    for (const auto &entry : names) {
        if (flags & entry.bit) {
            if (!out.empty())
                out += '|';
            out += entry.name;
        }
    }
    return out.empty() ? "-" : out;
}

std::string
PacketRecord::str() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%.6fs %s:%u > %s:%u %s payload=%u",
                  timestampSec(),
                  formatIp(srcIp).c_str(), srcPort,
                  formatIp(dstIp).c_str(), dstPort,
                  formatTcpFlags(tcpFlags).c_str(), payloadBytes);
    return buf;
}

} // namespace fcc::trace
