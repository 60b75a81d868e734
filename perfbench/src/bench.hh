/**
 * @file
 * Shared declarations of the benchmark: run parameters, the training
 * helpers every workload uses (the quickstart scene under the shipped
 * Instant-3D config), the traced-training layer record, and the
 * workload entry points.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hh"
#include "nerf/trainer.hh"

namespace perfbench {

/** Workload constants, passed as --param name=value by run.py. */
class Params
{
  public:
    void set(const std::string &name, const std::string &value)
    { kv[name] = value; }
    double num(const std::string &name) const;
    std::string str(const std::string &name) const;
    /** Comma-separated value split into its items. */
    std::vector<std::string> items(const std::string &name) const;
    std::vector<double> list(const std::string &name) const;

  private:
    std::map<std::string, std::string> kv;
};

/** One invocation: which workload, its seed, window and tracing. */
struct RunContext
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int nproc = 1;        //!< Usable CPUs; caps threads and workers.
    std::string workDir;  //!< Scratch dir for checkpoints (in checkout).
    Params params;
};

/** Host and build facts printed before the result line. */
struct HostInfo
{
    int nproc = 1;
    unsigned hardwareConcurrency = 0;
    std::string kernelBackend;
    int trainThreads = 0;
    int shardWorkers = 0;
    int shards = 0;
};

// ------------------------------------------------------------ training

/** The quickstart dataset: 8 train + 2 test views at 28x28. */
instant3d::Dataset makeQuickstartDataset(const std::string &scene);

/** Shipped Instant-3D field (decoupled, S_D:S_C = 1:0.25). */
instant3d::FieldConfig shippedFieldConfig();

/**
 * Shipped Instant-3D training config (F_D:F_C = 1:0.5) with the
 * occupancy grid on, threads capped at `threads`, every other field at
 * its default.
 */
instant3d::TrainConfig shippedTrainConfig(uint64_t seed, int threads);

/** Per-unit stage costs of one probe mark (medians over repeats). */
struct StageSample
{
    int mark = 0;
    double marchUs = 0, queryUs = 0, backwardUs = 0, reduceUs = 0,
           adamUs = 0;
    double rays = 0, samples = 0;
    double sumMs() const
    { return (marchUs + queryUs + backwardUs + reduceUs + adamUs) / 1e3; }
};

/** What a traced training run records, beyond its wall time. */
struct TrainTrace
{
    std::vector<double> iterMs;
    std::vector<bool> refreshDue;
    std::vector<double> points;
    std::vector<double> entriesStepped;
    std::vector<StageSample> probes;
    double occupiedFrac = 0.0;
    double activeEntries = 0.0;
};

/** Result of one from-scratch training run. */
struct TrainRun
{
    double seconds = 0.0; //!< Iteration loop wall time only.
    int nonFiniteLosses = 0;
};

/**
 * Train `iterations` iterations. With `trace`, also record per-
 * iteration work counts and run stage probes on a cloned field at the
 * iteration marks `mark_fracs` (fractions of the run); probe time is
 * excluded from the returned wall time.
 */
TrainRun trainFor(instant3d::Trainer &trainer,
                  const instant3d::Dataset &data,
                  const instant3d::TrainConfig &tcfg, int iterations,
                  TrainTrace *trace, const std::vector<double> &mark_fracs,
                  int nproc);

/** Add the trainer / occupancy / adam / stage per-layer metrics. */
void addTrainLayerMetrics(const TrainTrace &trace, Report &report);

// ------------------------------------------------------------ workloads

/** serve_full or serve_preview, untraced or traced. */
void runServe(const RunContext &ctx, Report &report, HostInfo &host);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
