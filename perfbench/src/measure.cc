#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    size_t mid = (v.size() - 1) / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid),
                     v.end());
    return v[mid];
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.count = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const size_t nearest = (kTailPercentile * n + 99) / 100 - 1;
    size_t rank =
        n > kTailBeyond ? std::min(nearest, n - 1 - kTailBeyond) : n - 1;
    t.value = v[rank];
    t.beyond = n - 1 - rank;
    t.percentile = 100.0 * static_cast<double>(rank + 1) /
                   static_cast<double>(n);
    return t;
}

double
dueLatencyMs(double due_s, double ready_s)
{
    return (ready_s - due_s) * 1e3;
}

double
unattributedFrac(double total, const std::vector<double> &parts)
{
    if (!(total > 0.0))
        return 0.0;
    double sum = 0.0;
    for (double p : parts)
        sum += p;
    return 1.0 - sum / total;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    list.push_back({name, value, unit});
}

void
Report::mismatch(const std::string &what)
{
    mismatches++;
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
}

void
Report::printTable() const
{
    for (const Metric &m : list)
        std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-40s %16llu/%llu\n", "failed/attempted",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "1e300";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
Report::resultJson() const
{
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < list.size(); i++) {
        if (i)
            s += ", ";
        s += "\"" + list[i].name + "\": {\"value\": " +
             jsonNumber(list[i].value) + ", \"unit\": \"" + list[i].unit +
             "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
