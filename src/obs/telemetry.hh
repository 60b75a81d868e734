/**
 * @file
 * Telemetry metrics: a process-wide registry of named counters,
 * gauges, and log-bucketed latency histograms.
 *
 * Design goals, in order:
 *
 *  1. **Mergeable histograms.** Every LatencyHistogram shares one
 *     fixed bucket layout (4 sub-buckets per power-of-2 octave over
 *     [2^-10, 2^20) milliseconds), so histograms recorded on
 *     different shards or threads merge *exactly* -- bucket-wise
 *     integer addition, no resampling error -- unlike
 *     PercentileTracker's sort-all-samples approach, which cannot
 *     merge without concatenating sample sets. Percentile queries
 *     interpolate linearly inside the landing bucket, so they agree
 *     with an exact tracker to within one bucket width (~12-25%
 *     relative resolution).
 *  2. **Cheap hot path.** Counter::add is one relaxed atomic add to a
 *     per-thread shard slot (collapsed at snapshot); a histogram
 *     record is a bucket computation plus one relaxed add. Every
 *     recording site first pays exactly one relaxed load of the
 *     global enable flag -- the same disarm pattern as
 *     fault_injection.hh -- and compiling with
 *     -DINSTANT3D_DISABLE_TELEMETRY turns all sites into
 *     constant-false no-ops.
 *  3. **Bit-neutrality.** Nothing here touches pixels: served images
 *     are bit-identical with telemetry enabled, disabled, or compiled
 *     out (asserted in tests/test_obs.cc).
 *
 * Naming scheme: dot-separated "<subsystem>.<metric>" with an "_ms"
 * suffix on latency histograms ("serve.total_ms", "router.total_ms",
 * "train.phase.march_ms"). Components that already keep their own
 * counter structs (ServeStats / FleetStats / TrainStats) register a
 * *collector* instead of double-counting on the hot path: at snapshot
 * time each collector mirrors its struct into the page, and same-name
 * contributions from different instances (e.g. fleet shards) sum.
 *
 * Snapshots export as a Prometheus-style text page and as a JSON
 * block; the INSTANT3D_TELEMETRY environment variable ("0" disables)
 * sets the initial enable state (default: enabled).
 */

#ifndef INSTANT3D_OBS_TELEMETRY_HH
#define INSTANT3D_OBS_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace instant3d {
namespace obs {

namespace detail {
extern std::atomic<uint32_t> enabledFlag;
uint32_t counterShardIndex();
} // namespace detail

/**
 * The per-site check: is telemetry recording? One relaxed atomic load
 * when consulted; constant false under INSTANT3D_DISABLE_TELEMETRY.
 */
inline bool
enabled()
{
#ifdef INSTANT3D_DISABLE_TELEMETRY
    return false;
#else
    return detail::enabledFlag.load(std::memory_order_relaxed) != 0;
#endif
}

/** Runtime toggle (a no-op when compiled out). */
void setEnabled(bool on);

/** Counter shard slots (threads hash onto one; snapshot sums all). */
constexpr int numCounterShards = 16;

/**
 * Monotonically increasing event count. Thread-sharded: concurrent
 * writers land on (mostly) distinct cache lines, and value() collapses
 * the shards. The hot path is one relaxed load (enable check) plus one
 * relaxed fetch_add.
 */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        if (!enabled())
            return;
        slots[detail::counterShardIndex()].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        uint64_t sum = 0;
        for (const Slot &s : slots)
            sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

    void
    reset()
    {
        for (Slot &s : slots)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> v{0};
    };
    Slot slots[numCounterShards];
};

/** Last-write-wins instantaneous value (queue depth, bytes held). */
class Gauge
{
  public:
    void
    set(double value)
    {
        if (!enabled())
            return;
        v.store(value, std::memory_order_relaxed);
    }

    double value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v{0.0};
};

// -------------------------------------------------------- histograms

/** Sub-buckets per power-of-2 octave. */
constexpr int histSubBuckets = 4;
/** Smallest tracked octave: values in [2^-10, 2^-9) ms (~1 us). */
constexpr int histMinExp = -10;
/** One past the largest tracked octave: 2^20 ms (~17.5 min). */
constexpr int histMaxExp = 20;
/** Interior buckets + underflow (index 0) + overflow (last index). */
constexpr int histNumBuckets =
    (histMaxExp - histMinExp) * histSubBuckets + 2;

/**
 * Plain (non-atomic) copy of a histogram's bucket counts. Because the
 * bucket edges are fixed process-wide constants, merge() is exact:
 * merging per-shard snapshots is indistinguishable from having
 * recorded every sample into one histogram.
 */
struct HistogramSnapshot
{
    uint64_t buckets[histNumBuckets] = {};
    uint64_t count = 0;

    /** Exact bucket-wise merge. */
    void merge(const HistogramSnapshot &o);

    /**
     * p in [0, 100]: linear interpolation inside the landing bucket
     * (matching PercentileTracker's rank convention to within one
     * bucket width). Returns 0 when empty.
     */
    double percentile(double p) const;

    double mean() const; //!< Bucket-midpoint approximation.
};

/**
 * Log-bucketed latency histogram in milliseconds with the fixed
 * process-wide bucket layout described in the file header. record()
 * is thread-safe (relaxed atomic bucket adds).
 */
class LatencyHistogram
{
  public:
    void
    record(double ms)
    {
        if (!enabled())
            return;
        buckets[bucketIndex(ms)].fetch_add(1,
                                           std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;
    void reset();

    /** Bucket landing index of a value (0 = underflow bucket). */
    static int bucketIndex(double ms);
    /** Inclusive left edge of a bucket (0 for the underflow bucket). */
    static double bucketLeft(int bucket);
    /** Exclusive right edge (+inf for the overflow bucket). */
    static double bucketRight(int bucket);

  private:
    std::atomic<uint64_t> buckets[histNumBuckets] = {};
};

// ---------------------------------------------------------- registry

/**
 * What a collector writes into at snapshot time. Same-name
 * contributions sum (the cross-shard aggregate is the interesting
 * number for counters; gauges sum too -- fleet totals -- which is
 * documented in README "Observability").
 */
class MetricsSink
{
  public:
    void counter(const std::string &name, uint64_t value);
    void gauge(const std::string &name, double value);

  private:
    friend class MetricsRegistry;
    std::map<std::string, uint64_t> *counters = nullptr;
    std::map<std::string, double> *gauges = nullptr;
};

/** One exported page: everything the registry knows, at one instant. */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /**
     * Prometheus-style exposition text: one "# TYPE" header per
     * metric, names sanitized to [a-z0-9_] with an "instant3d_"
     * prefix, histograms as quantile-labeled summaries plus _count.
     */
    std::string prometheusText() const;

    /**
     * JSON object: {"counters": {...}, "gauges": {...},
     * "histograms": {"name": {"count": n, "p50": .., "p95": ..,
     * "p99": ..}}}.
     */
    std::string json() const;
};

/**
 * Process-wide metrics registry. Metric objects are created on first
 * lookup and never destroyed (references stay valid for the process
 * lifetime, so hot paths hold pointers and never re-lookup).
 * Collectors are registered per component instance and removed before
 * the instance dies; snapshot() runs every collector under the
 * registry lock, so removeCollector() also synchronizes against an
 * in-flight snapshot touching the component.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &histogram(const std::string &name);

    using Collector = std::function<void(MetricsSink &)>;
    uint64_t addCollector(Collector fn);
    void removeCollector(uint64_t handle);

    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mtx;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms;
    std::map<uint64_t, Collector> collectors;
    uint64_t nextCollectorHandle = 1;
};

/**
 * RAII phase timer: on destruction records the elapsed milliseconds
 * into `*hist`. It is free when `hist` is null or telemetry is off at
 * construction: the clock is only read when the sample will be kept.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(LatencyHistogram *hist);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    LatencyHistogram *histogram;
    double t0 = 0.0;
};

} // namespace obs
} // namespace instant3d

#endif // INSTANT3D_OBS_TELEMETRY_HH
