/**
 * @file
 * perfbench: runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload <serve_full|serve_preview>
 *             --seed N --seconds S --trace 0|1 --workdir DIR
 *             [--param name=value ...]
 *
 * Prints a host line, one line per metric, and as the last line the
 * JSON result {"correct", "attempted", "failed", "metrics"}. Exits 1
 * when any output was wrong, 2 on bad arguments. Normally started by
 * run.py, which builds it and passes the workload constants.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/cpu_features.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
Params::num(const std::string &name) const
{
    return std::stod(str(name));
}

std::string
Params::str(const std::string &name) const
{
    auto it = kv.find(name);
    if (it == kv.end())
        throw std::runtime_error("missing --param " + name);
    return it->second;
}

std::vector<std::string>
Params::items(const std::string &name) const
{
    std::vector<std::string> out;
    std::stringstream ss(str(name));
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

std::vector<double>
Params::list(const std::string &name) const
{
    std::vector<double> out;
    for (const std::string &item : items(name))
        out.push_back(std::stod(item));
    return out;
}

namespace {

/** CPUs this process may run on (what `nproc` prints). */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

void
printHost(const HostInfo &h)
{
    std::printf(
        "# host {\"nproc\": %d, \"hardware_concurrency\": %u, "
        "\"cpu_features\": \"%s\", \"compiled_simd\": \"%s\", "
        "\"build_type\": \"%s\", \"kernel_backend\": \"%s\", "
        "\"train_threads\": %d, \"shards\": %d, \"shard_workers\": %d, "
        "\"concurrency_numbers\": \"%s\"}\n",
        h.nproc, h.hardwareConcurrency,
        instant3d::cpuFeatureString().c_str(),
        instant3d::compiledSimdString().c_str(), PERFBENCH_BUILD_TYPE,
        h.kernelBackend.c_str(), h.trainThreads, h.shards, h.shardWorkers,
        h.nproc > 1 ? "measured on a multicore host"
                    : "1-core host: concurrency-sensitive numbers are "
                      "labelled, not gated");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --workdir DIR "
                 "[--param name=value ...]\n",
                 why);
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunContext ctx;
    ctx.workDir = ".";
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            ctx.workload = value;
        else if (flag == "--seed")
            ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            ctx.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            ctx.trace = value == "1";
        else if (flag == "--workdir")
            ctx.workDir = value;
        else if (flag == "--param" && value.find('=') != std::string::npos)
            ctx.params.set(value.substr(0, value.find('=')),
                           value.substr(value.find('=') + 1));
        else
            return usage(("unknown argument " + flag).c_str());
    }
    if (ctx.seconds <= 0)
        return usage("--seconds must be positive");
    ctx.nproc = usableCpus();
    std::filesystem::create_directories(ctx.workDir);

    HostInfo host;
    host.nproc = ctx.nproc;
    host.hardwareConcurrency = std::thread::hardware_concurrency();
    Report report;
    try {
        if (ctx.workload == "serve_full" || ctx.workload == "serve_preview")
            runServe(ctx, report, host);
        else
            return usage(("unknown workload " + ctx.workload).c_str());
    } catch (const std::exception &e) {
        return usage(e.what());
    }

    printHost(host);
    std::printf("# %s seed=%llu seconds=%g trace=%d\n", ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.trace ? 1 : 0);
    report.printTable();
    std::printf("%s\n", report.resultJson().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
