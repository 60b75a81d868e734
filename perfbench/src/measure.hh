/**
 * @file
 * The benchmark's own arithmetic and reporting: latency percentiles
 * with the tail rule, due-time latency, unattributed fractions, the
 * metric report printed as the result line, and host facts.
 *
 * Everything here is pure (no clocks, no program state) except the
 * host/RSS queries, so the self-test can pin it down exactly.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Latency recorded for a failed, rejected or wrong-pixel request. */
constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/** Fewest samples that must lie beyond a reported tail percentile. */
constexpr size_t kTailBeyond = 10;

/** Percentile the tail reports when the sample is large enough. */
constexpr size_t kTailPercentile = 95;

/** The tail of a latency sample (see tailOf). */
struct Tail
{
    double value = 0.0;      //!< Latency at the tail percentile.
    double percentile = 0.0; //!< Share of samples at or below, in %.
    size_t beyond = 0;       //!< Samples strictly beyond the tail rank.
    size_t count = 0;        //!< Sample size.
};

/** Median (lower middle for even sizes); infinities sort last. */
double median(std::vector<double> v);

/**
 * The nearest-rank kTailPercentile of the sample, lowered where needed
 * so that at least kTailBeyond samples lie beyond it: rank
 * min(ceil(0.95 n) - 1, n - 1 - kTailBeyond) of the ascending sample.
 * A fixed percentile keeps more samples beyond it as the sample grows,
 * so the tail does not rest on its last 10 samples. Samples too small
 * to leave 10 beyond report their maximum with `beyond` < 10.
 */
Tail tailOf(std::vector<double> v);

/**
 * Open-loop latency of one request in ms: from when it was *due* to be
 * sent (not when the generator got round to sending it) to when its
 * result was seen, so a late generator's stall is charged to the
 * requests it delayed.
 */
double dueLatencyMs(double due_s, double ready_s);

/** 1 - sum(parts) / total; 0 when total is not positive. */
double unattributedFrac(double total, const std::vector<double> &parts);

/** Mean of a sample; 0 when empty. */
double mean(const std::vector<double> &v);

/** Resident-set high-water mark of this process in MiB. */
double peakRssMb();

/** Monotonic wall clock in seconds. */
double nowS();

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run reports: operation counts, the correctness verdict,
 * and the metrics in the order they were added.
 */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** Count one operation; a false `ok` also marks it failed. */
    void op(bool ok) { attempted++; if (!ok) failed++; }

    /** Record a correctness mismatch (printed to stderr at once). */
    void mismatch(const std::string &what);

    bool correct() const { return mismatches == 0; }

    /** Human-readable "name = value unit" lines (stdout). */
    void printTable() const;

    /** The single-line JSON result object. */
    std::string resultJson() const;

  private:
    std::vector<Metric> list;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatches = 0;
};

/** JSON number for a double; non-finite values print as 1e300. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
