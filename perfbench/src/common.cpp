#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace perfbench {

// ---- Tracer -------------------------------------------------------

int
Tracer::open(std::string_view name, uint64_t request)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = std::string(name);
    span.start = std::chrono::duration<double>(Clock::now() - origin_)
                     .count();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    spans_.push_back(std::move(span));
    int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    Span &span = spans_[static_cast<size_t>(id)];
    span.end = std::chrono::duration<double>(Clock::now() - origin_)
                   .count();
    // Spans nest strictly (one recording thread, RAII scopes).
    fcc::util::require(!stack_.empty() && stack_.back() == id,
                       "perfbench: spans closed out of order");
    stack_.pop_back();
    if (span.parent >= 0)
        spans_[static_cast<size_t>(span.parent)].childTime +=
            span.end - span.start;
}

double
Tracer::duration(int id) const
{
    if (id < 0)
        return 0.0;
    const Span &span = spans_[static_cast<size_t>(id)];
    return span.end - span.start;
}

double
Tracer::selfTime(int id) const
{
    if (id < 0)
        return 0.0;
    return duration(id) - spans_[static_cast<size_t>(id)].childTime;
}

bool
Tracer::inSubtree(int id, int root) const
{
    for (int at = id; at >= 0; at = spans_[static_cast<size_t>(at)].parent)
        if (at == root)
            return true;
    return false;
}

double
Tracer::selfTimeUnder(int root, std::string_view name) const
{
    double sum = 0.0;
    if (root < 0)
        return sum;
    // Descendants were opened after the root, before it closed.
    for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i)
        if (spans_[i].name == name && inSubtree(static_cast<int>(i), root))
            sum += selfTime(static_cast<int>(i));
    return sum;
}

double
Tracer::durationUnder(int root, std::string_view name) const
{
    double sum = 0.0;
    if (root < 0)
        return sum;
    for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i)
        if (spans_[i].name == name && inSubtree(static_cast<int>(i), root))
            sum += duration(static_cast<int>(i));
    return sum;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    fcc::util::require(f != nullptr,
                       "perfbench: cannot write span file " + path);
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %d, \"request\": %llu}%s\n",
                     i, s.name.c_str(), s.start, s.end, s.parent,
                     static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    bool ok = std::fclose(f) == 0;
    fcc::util::require(ok, "perfbench: error writing " + path);
}

// ---- Hash64 -------------------------------------------------------

namespace {

inline uint64_t
mixWord(uint64_t state, uint64_t word)
{
    state ^= word * 0x9fb21c651e98df25ull;
    state = (state << 29) | (state >> 35);
    return state * 0xd6e8feb86659fd93ull + 0x2545f4914f6cdd1dull;
}

} // namespace

void
Hash64::update(std::span<const uint8_t> bytes)
{
    length_ += bytes.size();
    size_t i = 0;
    if (tailLen_ > 0) {
        size_t take = std::min(bytes.size(), 8 - tailLen_);
        std::memcpy(tail_ + tailLen_, bytes.data(), take);
        tailLen_ += take;
        i = take;
        if (tailLen_ < 8)
            return;
        uint64_t word;
        std::memcpy(&word, tail_, 8);
        state_ = mixWord(state_, word);
        tailLen_ = 0;
    }
    for (; i + 8 <= bytes.size(); i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes.data() + i, 8);
        state_ = mixWord(state_, word);
    }
    tailLen_ = bytes.size() - i;
    std::memcpy(tail_, bytes.data() + i, tailLen_);
}

uint64_t
Hash64::value() const
{
    uint64_t word = 0;
    std::memcpy(&word, tail_, tailLen_);
    return splitmix64(mixWord(mixWord(state_, word), length_));
}

uint64_t
hashFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fcc::util::require(in.good(), "perfbench: cannot read " + path);
    std::vector<uint8_t> buf(1 << 20);
    Hash64 h;
    while (in) {
        in.read(reinterpret_cast<char *>(buf.data()),
                static_cast<std::streamsize>(buf.size()));
        std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        h.update(std::span<const uint8_t>(buf.data(),
                                          static_cast<size_t>(got)));
    }
    fcc::util::require(in.eof(), "perfbench: error reading " + path);
    return h.value();
}

// ---- order statistics ---------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

// ---- resident set -------------------------------------------------

bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    return 0.0;
}

// ---- Outcome ------------------------------------------------------

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

} // namespace perfbench
