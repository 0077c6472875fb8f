/**
 * @file
 * Trace container: stable time sort, order checking, duration and
 * time-window slicing over the packet vector, and the canonical
 * k-way merge of sorted packet runs.
 */

#include "trace/trace.hpp"

#include <algorithm>

namespace fcc::trace {

Trace::Trace(std::vector<PacketRecord> packets)
    : packets_(std::move(packets))
{
}

void
Trace::sortByTime()
{
    std::stable_sort(packets_.begin(), packets_.end(),
                     [](const PacketRecord &a, const PacketRecord &b) {
                         return a.timestampNs < b.timestampNs;
                     });
}

bool
Trace::isTimeOrdered() const
{
    return std::is_sorted(packets_.begin(), packets_.end(),
                          [](const PacketRecord &a, const PacketRecord &b) {
                              return a.timestampNs < b.timestampNs;
                          });
}

double
Trace::durationSec() const
{
    if (packets_.size() < 2)
        return 0.0;
    return static_cast<double>(packets_.back().timestampNs -
                               packets_.front().timestampNs) * 1e-9;
}

uint64_t
Trace::totalWireBytes() const
{
    uint64_t total = 0;
    for (const auto &pkt : packets_)
        total += pkt.ipTotalLength();
    return total;
}

uint64_t
Trace::totalPayloadBytes() const
{
    uint64_t total = 0;
    for (const auto &pkt : packets_)
        total += pkt.payloadBytes;
    return total;
}

Trace
Trace::sliceSeconds(double start, double length) const
{
    Trace out;
    if (packets_.empty())
        return out;
    uint64_t t0 = packets_.front().timestampNs;
    uint64_t lo = t0 + static_cast<uint64_t>(start * 1e9);
    uint64_t hi = lo + static_cast<uint64_t>(length * 1e9);
    for (const auto &pkt : packets_) {
        if (pkt.timestampNs >= lo && pkt.timestampNs < hi)
            out.add(pkt);
    }
    return out;
}

void
mergeCanonicalRuns(std::span<const std::span<const PacketRecord>> runs,
                   std::vector<PacketRecord> &out)
{
    struct Cursor
    {
        const PacketRecord *at;
        const PacketRecord *end;
        size_t run;
    };
    std::vector<Cursor> heap;
    size_t total = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
        total += runs[r].size();
        if (!runs[r].empty())
            heap.push_back({runs[r].data(),
                            runs[r].data() + runs[r].size(), r});
    }
    out.reserve(out.size() + total);
    if (heap.size() == 1) {
        out.insert(out.end(), heap[0].at, heap[0].end);
        return;
    }
    // Heap ordered so its top is the next packet out; the run index
    // breaks ties between equal packets.
    auto after = [](const Cursor &a, const Cursor &b) {
        if (packetCanonicalLess(*b.at, *a.at))
            return true;
        if (packetCanonicalLess(*a.at, *b.at))
            return false;
        return a.run > b.run;
    };
    std::make_heap(heap.begin(), heap.end(), after);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), after);
        Cursor &next = heap.back();
        out.push_back(*next.at);
        if (++next.at == next.end)
            heap.pop_back();
        else
            std::push_heap(heap.begin(), heap.end(), after);
    }
}

} // namespace fcc::trace
