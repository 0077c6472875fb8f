/**
 * @file
 * Shared pieces of the end-to-end benchmark: the wall clock, the
 * in-memory span recorder of the traced run, the output hash the
 * correctness gates compare, order statistics, the peak-RSS probe and
 * the named-metric collection main() prints.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Spans of the traced run, kept in memory and written as JSON when
 * the run ends. A span has a name, start and end (seconds since the
 * recorder was made), the span open when it started (its parent) and
 * the request id of the query operation it belongs to (0 otherwise).
 * Spans are recorded from one thread only, so each span's parent is
 * the innermost span still open.
 *
 * A disabled recorder records nothing and costs one branch per call,
 * so traced and untraced code share one path.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id, or -1 when disabled. */
    int open(std::string_view name, uint64_t request = 0);

    /** Close span @p id (a no-op for -1). */
    void close(int id);

    /** End minus start of a closed span. */
    double duration(int id) const;

    /** Duration minus the time its direct children cover. */
    double selfTime(int id) const;

    /** Sum of selfTime() over every span named @p name in the
     *  subtree rooted at @p root (root included). */
    double selfTimeUnder(int root, std::string_view name) const;

    /** Sum of duration() over spans named @p name under @p root. */
    double durationUnder(int root, std::string_view name) const;

    /** Write every span as a JSON array to @p path. */
    void writeJson(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        double childTime = 0.0;
        int parent = -1;
        uint64_t request = 0;
    };

    bool inSubtree(int id, int root) const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, std::string_view name,
              uint64_t request = 0)
        : tracer_(tracer), id_(tracer.open(name, request))
    {
    }
    ~SpanScope() { tracer_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/** Incremental 64-bit hash of a byte stream (output identity gate;
 *  not cryptographic — it only has to tell different outputs apart). */
class Hash64
{
  public:
    void update(std::span<const uint8_t> bytes);
    uint64_t value() const;

  private:
    uint64_t state_ = 0x9e3779b97f4a7c15ull;
    uint64_t length_ = 0;
    uint8_t tail_[8] = {};
    size_t tailLen_ = 0;
};

/** Hash of a whole file's bytes; @throws fcc::util::Error on I/O. */
uint64_t hashFile(const std::string &path);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p p (0..100) of @p values (0 when empty).
 */
double percentile(std::vector<double> values, double p);

/** Reset the kernel's resident-set high-water mark to the current
 *  RSS (/proc/self/clear_refs = 5); false when not permitted. */
bool resetPeakRss();

/** VmHWM of this process in MiB (0 when unreadable). */
double peakRssMb();

/** SplitMix64 step: a stateless, seedable stream of draws. */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Named metrics of one run, in the order they were added. */
class Metrics
{
  public:
    void
    add(std::string name, double value, std::string unit)
    {
        items_.push_back({std::move(name), value, std::move(unit)});
    }
    const std::vector<Metric> &items() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/** Attempted/failed operation tally behind the correctness gates. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Count one operation; a false @p ok is reported on stderr. */
    void check(bool ok, const std::string &what);
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
