/**
 * @file
 * Self-test of the benchmark's own arithmetic: the tail rule and its
 * count, due-time latency under a late generator, failures as infinite
 * latency, and the unattributed fraction. Exits nonzero on any miss.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "measure.hh"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        failures++;
        std::fprintf(stderr, "perfbench_selftest: FAIL: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

} // namespace

int
main()
{
    using namespace perfbench;

    // Tail rule: p95, lowered until >= 10 samples lie beyond it.
    std::vector<double> hundred;
    for (int i = 100; i >= 1; i--)
        hundred.push_back(i);
    Tail t = tailOf(hundred);
    expect(t.value == 90.0, "tail of 1..100 is 90");
    expect(t.beyond == 10, "tail of 1..100 leaves 10 beyond");
    expect(near(t.percentile, 90.0), "tail of 1..100 is lowered to p90");
    expect(t.count == 100, "tail counts its samples");

    std::vector<double> thousand;
    for (int i = 1; i <= 1000; i++)
        thousand.push_back(i);
    t = tailOf(thousand);
    expect(t.value == 950.0 && t.beyond == 50 && near(t.percentile, 95.0),
           "tail of 1..1000 is p95 = 950 with 50 beyond");

    std::vector<double> two_twenty;
    for (int i = 1; i <= 220; i++)
        two_twenty.push_back(i);
    t = tailOf(two_twenty);
    expect(t.value == 209.0 && t.beyond == 11,
           "tail of 1..220 is the nearest-rank p95 (rank 209)");
    two_twenty.pop_back();
    t = tailOf(two_twenty);
    expect(t.value == 209.0 && t.beyond == 10,
           "tail of 1..219 is lowered to keep 10 beyond");

    std::vector<double> eleven;
    for (int i = 1; i <= 11; i++)
        eleven.push_back(i);
    t = tailOf(eleven);
    expect(t.value == 1.0 && t.beyond == 10, "tail of 11 samples is the min");
    t = tailOf({5.0, 7.0});
    expect(t.value == 7.0 && t.beyond == 0,
           "a sample without 10 beyond reports its max, 0 beyond");

    // Due-time latency: a generator 50 ms late still charges the
    // request from its due time.
    const double due = 10.000, sent = 10.050, ready = 10.120;
    expect(near(dueLatencyMs(due, ready), 120.0),
           "latency runs from the due time");
    expect(!near(dueLatencyMs(due, ready), dueLatencyMs(sent, ready)),
           "latency is not measured from the late send");

    // Failures are infinite latency: they push percentiles up, never
    // vanish from the sample.
    std::vector<double> lat = {1, 2, 3, kFailedLatency, kFailedLatency};
    expect(median(lat) == 3.0, "2 failures of 5 leave the median at 3");
    expect(std::isinf(median({1, 2, kFailedLatency, kFailedLatency,
                              kFailedLatency})),
           "a failed majority makes the median infinite");
    std::vector<double> mostly_ok(30, 5.0);
    mostly_ok.push_back(kFailedLatency);
    expect(median(mostly_ok) == 5.0, "one failure of 31 leaves p50");
    std::vector<double> tail_fail(20, 5.0);
    for (int i = 0; i < 11; i++)
        tail_fail.push_back(kFailedLatency);
    expect(std::isinf(tailOf(tail_fail).value),
           "11 failures of 31 make the tail infinite");

    // Unattributed fraction.
    expect(near(unattributedFrac(10.0, {2.0, 3.0, 4.0}), 0.1),
           "10 - (2+3+4) leaves 10% unattributed");
    expect(near(unattributedFrac(10.0, {6.0, 6.0}), -0.2),
           "over-attribution reads negative");
    expect(unattributedFrac(0.0, {1.0}) == 0.0, "no total, no fraction");

    // The result line keeps full precision and stays valid JSON.
    Report r;
    r.add("x_ms", 1.0 / 3.0, "ms");
    r.op(true);
    r.op(false);
    expect(r.resultJson() ==
               "{\"correct\": true, \"attempted\": 2, \"failed\": 1, "
               "\"metrics\": {\"x_ms\": {\"value\": 0.33333333333333331, "
               "\"unit\": \"ms\"}}}",
           "result line format");
    expect(jsonNumber(kFailedLatency) == "1e300",
           "infinite latency prints as a finite JSON number");

    if (failures)
        return 1;
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
