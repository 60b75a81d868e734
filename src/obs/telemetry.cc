#include "obs/telemetry.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/stats.hh"

namespace instant3d {
namespace obs {

namespace detail {

std::atomic<uint32_t> enabledFlag{1};

/**
 * Stable per-thread shard slot. A plain round-robin ticket spreads
 * threads evenly over the slots without hashing thread ids.
 */
uint32_t
counterShardIndex()
{
    static std::atomic<uint32_t> nextTicket{0};
    thread_local uint32_t shard =
        nextTicket.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint32_t>(numCounterShards);
    return shard;
}

namespace {
/** INSTANT3D_TELEMETRY=0 disables recording from startup. */
const bool envApplied = [] {
    if (const char *env = std::getenv("INSTANT3D_TELEMETRY"))
        if (env[0] == '0' && env[1] == '\0')
            enabledFlag.store(0, std::memory_order_relaxed);
    return true;
}();
} // namespace

} // namespace detail

void
setEnabled(bool on)
{
#ifdef INSTANT3D_DISABLE_TELEMETRY
    (void)on;
#else
    detail::enabledFlag.store(on ? 1 : 0, std::memory_order_relaxed);
#endif
}

// -------------------------------------------------------- histograms

int
LatencyHistogram::bucketIndex(double ms)
{
    if (!(ms > 0.0)) // <= 0 and NaN land in the underflow bucket.
        return 0;
    int exp2 = 0;
    double frac = std::frexp(ms, &exp2); // ms = frac * 2^exp2
    const int octave = exp2 - 1;         // ms in [2^octave, 2^octave+1)
    if (octave < histMinExp)
        return 0;
    if (octave >= histMaxExp)
        return histNumBuckets - 1;
    int sub = static_cast<int>((frac - 0.5) * 2.0 * histSubBuckets);
    sub = std::min(std::max(sub, 0), histSubBuckets - 1);
    return 1 + (octave - histMinExp) * histSubBuckets + sub;
}

double
LatencyHistogram::bucketLeft(int bucket)
{
    if (bucket <= 0)
        return 0.0;
    if (bucket >= histNumBuckets - 1)
        return std::ldexp(1.0, histMaxExp);
    const int octave = histMinExp + (bucket - 1) / histSubBuckets;
    const int sub = (bucket - 1) % histSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(sub) / histSubBuckets,
                      octave);
}

double
LatencyHistogram::bucketRight(int bucket)
{
    if (bucket <= 0)
        return std::ldexp(1.0, histMinExp);
    if (bucket >= histNumBuckets - 1)
        return std::numeric_limits<double>::infinity();
    return bucketLeft(bucket + 1);
}

HistogramSnapshot
LatencyHistogram::snapshot() const
{
    HistogramSnapshot s;
    for (int b = 0; b < histNumBuckets; b++) {
        s.buckets[b] = buckets[b].load(std::memory_order_relaxed);
        s.count += s.buckets[b];
    }
    return s;
}

void
LatencyHistogram::reset()
{
    for (auto &b : buckets)
        b.store(0, std::memory_order_relaxed);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &o)
{
    for (int b = 0; b < histNumBuckets; b++)
        buckets[b] += o.buckets[b];
    count += o.count;
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    // Same rank convention as PercentileTracker: the target is the
    // real-valued order statistic p/100 * (n - 1), then interpolate
    // linearly across the landing bucket's width.
    p = std::min(100.0, std::max(0.0, p));
    const double target =
        p / 100.0 * static_cast<double>(count - 1);
    uint64_t before = 0;
    for (int b = 0; b < histNumBuckets; b++) {
        if (buckets[b] == 0)
            continue;
        const double inBucket = static_cast<double>(buckets[b]);
        if (target < static_cast<double>(before) + inBucket) {
            const double left = LatencyHistogram::bucketLeft(b);
            double right = LatencyHistogram::bucketRight(b);
            if (!std::isfinite(right))
                return left; // Overflow bucket: report its floor.
            const double frac =
                (target - static_cast<double>(before) + 0.5) /
                inBucket;
            return left +
                   std::min(1.0, std::max(0.0, frac)) * (right - left);
        }
        before += buckets[b];
    }
    return LatencyHistogram::bucketLeft(histNumBuckets - 1);
}

double
HistogramSnapshot::mean() const
{
    if (count == 0)
        return 0.0;
    double sum = 0.0;
    for (int b = 0; b < histNumBuckets; b++) {
        if (buckets[b] == 0)
            continue;
        const double left = LatencyHistogram::bucketLeft(b);
        const double right = LatencyHistogram::bucketRight(b);
        const double mid =
            std::isfinite(right) ? 0.5 * (left + right) : left;
        sum += mid * static_cast<double>(buckets[b]);
    }
    return sum / static_cast<double>(count);
}

// ---------------------------------------------------------- registry

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked intentionally: components deregister collectors in their
    // destructors, which may run during static teardown.
    static MetricsRegistry *g = new MetricsRegistry;
    return *g;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto &slot = gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto &slot = histograms[name];
    if (!slot)
        slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

uint64_t
MetricsRegistry::addCollector(Collector fn)
{
    std::lock_guard<std::mutex> lock(mtx);
    uint64_t handle = nextCollectorHandle++;
    collectors[handle] = std::move(fn);
    return handle;
}

void
MetricsRegistry::removeCollector(uint64_t handle)
{
    std::lock_guard<std::mutex> lock(mtx);
    collectors.erase(handle);
}

void
MetricsSink::counter(const std::string &name, uint64_t value)
{
    (*counters)[name] += value;
}

void
MetricsSink::gauge(const std::string &name, double value)
{
    (*gauges)[name] += value;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot s;
    std::lock_guard<std::mutex> lock(mtx);
    for (const auto &kv : counters)
        s.counters[kv.first] += kv.second->value();
    for (const auto &kv : gauges)
        s.gauges[kv.first] += kv.second->value();
    for (const auto &kv : histograms)
        s.histograms[kv.first].merge(kv.second->snapshot());
    MetricsSink sink;
    sink.counters = &s.counters;
    sink.gauges = &s.gauges;
    for (const auto &kv : collectors)
        kv.second(sink);
    return s;
}

// ------------------------------------------------------------ export

namespace {

/** Prometheus metric name: instant3d_ prefix, [a-z0-9_] body. */
std::string
promName(const std::string &name)
{
    std::string out = "instant3d_";
    for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c))
                   ? static_cast<char>(
                         std::tolower(static_cast<unsigned char>(c)))
                   : '_';
    return out;
}

void
appendFmt(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

} // namespace

std::string
MetricsSnapshot::prometheusText() const
{
    std::string out;
    for (const auto &kv : counters) {
        const std::string n = promName(kv.first);
        appendFmt(out, "# TYPE %s counter\n", n.c_str());
        appendFmt(out, "%s %llu\n", n.c_str(),
                  static_cast<unsigned long long>(kv.second));
    }
    for (const auto &kv : gauges) {
        const std::string n = promName(kv.first);
        appendFmt(out, "# TYPE %s gauge\n", n.c_str());
        appendFmt(out, "%s %.6g\n", n.c_str(), kv.second);
    }
    for (const auto &kv : histograms) {
        const std::string n = promName(kv.first);
        appendFmt(out, "# TYPE %s summary\n", n.c_str());
        for (double q : {50.0, 95.0, 99.0})
            appendFmt(out, "%s{quantile=\"%.2f\"} %.6g\n", n.c_str(),
                      q / 100.0, kv.second.percentile(q));
        appendFmt(out, "%s_count %llu\n", n.c_str(),
                  static_cast<unsigned long long>(kv.second.count));
    }
    return out;
}

std::string
MetricsSnapshot::json() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &kv : counters) {
        appendFmt(out, "%s\n    \"%s\": %llu", first ? "" : ",",
                  kv.first.c_str(),
                  static_cast<unsigned long long>(kv.second));
        first = false;
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &kv : gauges) {
        appendFmt(out, "%s\n    \"%s\": %.6g", first ? "" : ",",
                  kv.first.c_str(), kv.second);
        first = false;
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &kv : histograms) {
        appendFmt(out,
                  "%s\n    \"%s\": {\"count\": %llu, \"p50\": %.6g, "
                  "\"p95\": %.6g, \"p99\": %.6g}",
                  first ? "" : ",", kv.first.c_str(),
                  static_cast<unsigned long long>(kv.second.count),
                  kv.second.percentile(50.0),
                  kv.second.percentile(95.0),
                  kv.second.percentile(99.0));
        first = false;
    }
    out += "\n  }\n}\n";
    return out;
}

// ------------------------------------------------------ scoped timer

ScopedTimer::ScopedTimer(LatencyHistogram *hist)
    : histogram(enabled() ? hist : nullptr)
{
    if (histogram)
        t0 = monotonicSeconds();
}

ScopedTimer::~ScopedTimer()
{
    if (histogram)
        histogram->record((monotonicSeconds() - t0) * 1e3);
}

} // namespace obs
} // namespace instant3d
