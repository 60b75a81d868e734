/**
 * @file
 * Training side of the benchmark: the training loop every served scene
 * goes through in set-up, and the traced layer record (per-iteration
 * schedule timings plus stage probes on a cloned field).
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "common/workspace.hh"
#include "core/instant3d_config.hh"
#include "nerf/adam.hh"
#include "scene/scene.hh"

namespace perfbench {

using namespace instant3d;

Dataset
makeQuickstartDataset(const std::string &scene)
{
    DatasetConfig dcfg;
    dcfg.numTrainViews = 8;
    dcfg.numTestViews = 2;
    dcfg.imageWidth = 28;
    dcfg.imageHeight = 28;
    return makeDataset(makeSyntheticScene(scene), dcfg);
}

FieldConfig
shippedFieldConfig()
{
    HashEncodingConfig base_grid;
    base_grid.numLevels = 5;
    base_grid.log2TableSize = 13;
    base_grid.baseResolution = 8;
    base_grid.growthFactor = 1.6f;
    FieldConfig cfg = instant3dShippedConfig().makeFieldConfig(base_grid);
    cfg.hiddenDim = 16;
    return cfg;
}

TrainConfig
shippedTrainConfig(uint64_t seed, int threads)
{
    TrainConfig cfg;
    instant3dShippedConfig().applyTo(cfg);
    cfg.useOccupancyGrid = true;
    cfg.numThreads = threads;
    cfg.seed = seed;
    return cfg;
}

namespace {

/** Medians of repeated stage timings at one mark. */
struct StageTimes
{
    std::vector<double> march, query, backward, reduce, adam;
};

/**
 * Replay one training iteration stage by stage on a clone of the
 * trainer's field: the same chunking as the trainer (gradShards chunks
 * over a pool of the trainer's width), with a barrier after each stage
 * so each stage's wall time is measured on its own. The clone's Adam
 * states start fresh and are warmed by `warm` probe iterations so the
 * sparse sweep carries momentum, as the trainer's does.
 */
StageSample
probeStages(Trainer &trainer, const Dataset &data, const TrainConfig &tcfg,
            int mark, ThreadPool &pool)
{
    constexpr int warm = 8, reps = 5;
    trainer.syncParams();
    NerfField &src = trainer.field();
    NerfField clone(src.config(), tcfg.seed);
    const std::vector<ParamGroupId> groups = clone.paramGroups();
    for (ParamGroupId id : groups)
        clone.groupParams(id) = src.groupParams(id);
    clone.setDirtyTracking(true);

    std::vector<std::unique_ptr<Adam>> adams;
    std::vector<bool> sparse;
    for (ParamGroupId id : groups) {
        adams.push_back(std::make_unique<Adam>(
            clone.groupParams(id).size(), tcfg.adam));
        bool grid = id == ParamGroupId::DensityGrid ||
                    id == ParamGroupId::ColorGrid;
        if (grid) {
            HashEncoding &enc = id == ParamGroupId::DensityGrid
                                    ? clone.densityGrid()
                                    : clone.colorGrid();
            adams.back()->enableSparse(static_cast<uint32_t>(
                enc.config().featuresPerEntry));
        }
        sparse.push_back(grid);
    }

    const VolumeRenderer &renderer = trainer.renderer();
    const int chunks = std::min(tcfg.gradShards, tcfg.raysPerBatch);
    const int chunk_len = (tcfg.raysPerBatch + chunks - 1) / chunks;
    const float inv_batch = 1.0f / static_cast<float>(tcfg.raysPerBatch);

    std::vector<Workspace> ws(static_cast<size_t>(chunks));
    std::vector<FieldGradients> shards(static_cast<size_t>(chunks));
    std::vector<SampleStream> streams(static_cast<size_t>(chunks));
    std::vector<StreamRecord> recs(static_cast<size_t>(chunks));
    std::vector<Rng *> rngs(static_cast<size_t>(chunks));
    std::vector<Ray *> rays(static_cast<size_t>(chunks));
    std::vector<Vec3 *> gts(static_cast<size_t>(chunks));
    std::vector<Vec3 *> dcol(static_cast<size_t>(chunks));
    std::vector<int> nr(static_cast<size_t>(chunks));

    StageTimes times;
    double rays_total = 0, samples_total = 0;
    for (int rep = 0; rep < warm + reps; rep++) {
        const int iter = mark + rep;
        const bool density_due = iter % tcfg.densityUpdatePeriod == 0;
        const bool color_due = iter % tcfg.colorUpdatePeriod == 0;

        // Untimed: draw the batch exactly the way the trainer does
        // (view, column, row, jitter), on the probe's own streams.
        for (int c = 0; c < chunks; c++) {
            const int begin = c * chunk_len;
            const int n = std::max(
                0, std::min(begin + chunk_len, tcfg.raysPerBatch) - begin);
            nr[c] = n;
            ws[c].reset();
            rngs[c] = ws[c].alloc<Rng>(static_cast<size_t>(n));
            rays[c] = ws[c].alloc<Ray>(static_cast<size_t>(n));
            gts[c] = ws[c].alloc<Vec3>(static_cast<size_t>(n));
            dcol[c] = ws[c].alloc<Vec3>(static_cast<size_t>(n));
            for (int i = 0; i < n; i++) {
                Rng &rng = rngs[c][i];
                rng = Rng::forIndex(tcfg.seed ^ 0x5eedbe9cULL,
                                    static_cast<uint64_t>(iter),
                                    static_cast<uint64_t>(begin + i));
                const View &view = data.trainViews[rng.nextU32(
                    static_cast<uint32_t>(data.trainViews.size()))];
                int col = static_cast<int>(rng.nextU32(
                    static_cast<uint32_t>(view.camera.imageWidth())));
                int row = static_cast<int>(rng.nextU32(
                    static_cast<uint32_t>(view.camera.imageHeight())));
                gts[c][i] = view.rgb.at(col, row);
                rays[c][i] = view.camera.pixelRay(col, row, rng.nextFloat(),
                                                  rng.nextFloat());
            }
            clone.prepareGradients(shards[c]);
        }

        double t0 = nowS();
        pool.parallelFor(chunks, [&](int c, int) {
            if (nr[c])
                renderer.marchRays(rays[c], nr[c], rngs[c], streams[c],
                                   ws[c]);
        });
        double t1 = nowS();
        pool.parallelFor(chunks, [&](int c, int) {
            if (!nr[c])
                return;
            RayResult *results = ws[c].alloc<RayResult>(
                static_cast<size_t>(nr[c]));
            renderer.renderStream(clone, streams[c], results, &recs[c],
                                  ws[c]);
            for (int i = 0; i < nr[c]; i++)
                dcol[c][i] = (results[i].color - gts[c][i]) *
                             (2.0f / 3.0f * inv_batch);
        });
        double t2 = nowS();
        pool.parallelFor(chunks, [&](int c, int) {
            if (nr[c])
                renderer.backwardStream(clone, streams[c], recs[c],
                                        dcol[c], density_due, color_due,
                                        &shards[c], ws[c]);
        });
        double t3 = nowS();
        for (int c = 0; c < chunks; c++)
            clone.reduceGradients(shards[c]);
        double t4 = nowS();
        for (size_t g = 0; g < groups.size(); g++) {
            bool is_color = groups[g] == ParamGroupId::ColorGrid ||
                            groups[g] == ParamGroupId::ColorMlp;
            if (!(is_color ? color_due : density_due))
                continue;
            if (sparse[g])
                adams[g]->stepSparse(clone.groupParams(groups[g]),
                                     clone.groupGrads(groups[g]),
                                     clone.dirtyEntries(groups[g]));
            else
                adams[g]->step(clone.groupParams(groups[g]),
                               clone.groupGrads(groups[g]));
        }
        double t5 = nowS();
        clone.zeroGradDirty();

        if (rep < warm)
            continue;
        int samples = 0;
        for (int c = 0; c < chunks; c++)
            samples += nr[c] ? streams[c].totalSamples : 0;
        times.march.push_back((t1 - t0) * 1e6);
        times.query.push_back((t2 - t1) * 1e6);
        times.backward.push_back((t3 - t2) * 1e6);
        times.reduce.push_back((t4 - t3) * 1e6);
        times.adam.push_back((t5 - t4) * 1e6);
        rays_total += tcfg.raysPerBatch;
        samples_total += samples;
    }

    StageSample s;
    s.mark = mark;
    s.marchUs = median(times.march);
    s.queryUs = median(times.query);
    s.backwardUs = median(times.backward);
    s.reduceUs = median(times.reduce);
    s.adamUs = median(times.adam);
    s.rays = rays_total / reps;
    s.samples = samples_total / reps;
    return s;
}

} // namespace

TrainRun
trainFor(Trainer &trainer, const Dataset &data, const TrainConfig &tcfg,
         int iterations, TrainTrace *trace,
         const std::vector<double> &mark_fracs, int nproc)
{
    std::vector<int> marks;
    for (double f : mark_fracs)
        marks.push_back(std::clamp(static_cast<int>(f * iterations), 0,
                                   iterations - 1));
    std::unique_ptr<ThreadPool> probe_pool;
    if (trace && !marks.empty())
        probe_pool = std::make_unique<ThreadPool>(
            std::min(nproc, trainer.threadCount()));

    TrainRun run;
    double probe_s = 0.0;
    const double t_begin = nowS();
    for (int i = 0; i < iterations; i++) {
        if (trace &&
            std::find(marks.begin(), marks.end(), i) != marks.end()) {
            double p0 = nowS();
            trace->probes.push_back(
                probeStages(trainer, data, tcfg, i, *probe_pool));
            probe_s += nowS() - p0;
        }
        double t0 = nowS();
        TrainStats s = trainer.trainIteration();
        double ms = (nowS() - t0) * 1e3;
        if (!std::isfinite(s.loss))
            run.nonFiniteLosses++;
        if (trace) {
            trace->iterMs.push_back(ms);
            // The trainer refreshes when iter > 0 and iter % period == 0
            // (TrainConfig::occupancyUpdatePeriod, the public schedule).
            trace->refreshDue.push_back(
                i > 0 && i % tcfg.occupancyUpdatePeriod == 0);
            trace->points.push_back(static_cast<double>(s.pointsQueried));
            trace->entriesStepped.push_back(
                static_cast<double>(s.sparseEntriesStepped));
        }
    }
    run.seconds = nowS() - t_begin - probe_s;
    if (trace) {
        if (const OccupancyGrid *occ = trainer.occupancyGrid())
            trace->occupiedFrac = occ->occupiedFraction();
        trace->activeEntries =
            static_cast<double>(trainer.sparseActiveEntries());
    }
    return run;
}

void
addTrainLayerMetrics(const TrainTrace &t, Report &report)
{
    std::vector<double> plain, refresh;
    for (size_t i = 0; i < t.iterMs.size(); i++)
        (t.refreshDue[i] ? refresh : plain).push_back(t.iterMs[i]);
    const double iter_ms = median(plain);
    report.add("trainer.iter_ms", iter_ms, "ms");
    report.add("trainer.refresh_iter_ms", median(refresh), "ms");

    // Converged phase = second half of the run: the share of its wall
    // time that refresh iterations spend beyond a plain iteration.
    const size_t half = t.iterMs.size() / 2;
    std::vector<double> late_plain;
    double late_total = 0.0;
    for (size_t i = half; i < t.iterMs.size(); i++) {
        late_total += t.iterMs[i];
        if (!t.refreshDue[i])
            late_plain.push_back(t.iterMs[i]);
    }
    const double late_base = median(late_plain);
    double refresh_extra = 0.0;
    for (size_t i = half; i < t.iterMs.size(); i++)
        if (t.refreshDue[i])
            refresh_extra += std::max(0.0, t.iterMs[i] - late_base);
    report.add("occupancy_grid.refresh_share",
               late_total > 0 ? refresh_extra / late_total : 0.0, "frac");
    report.add("occupancy_grid.occupied_frac", t.occupiedFrac, "frac");
    report.add("trainer.points_per_iter", mean(t.points), "count");
    report.add("adam.entries_per_iter", mean(t.entriesStepped), "count");
    report.add("adam.active_entries", t.activeEntries, "count");

    // Stage costs pooled over the marks; the per-iteration probe sum
    // is compared with plain iterations near each mark.
    double march = 0, query = 0, backward = 0, reduce = 0, adam = 0;
    double rays = 0, samples = 0, probe_ms = 0, near_ms = 0;
    for (const StageSample &s : t.probes) {
        march += s.marchUs;
        query += s.queryUs;
        backward += s.backwardUs;
        reduce += s.reduceUs;
        adam += s.adamUs;
        rays += s.rays;
        samples += s.samples;
        probe_ms += s.sumMs();
        std::vector<double> near;
        const int lo = std::max(0, s.mark - 25);
        const int hi = std::min(static_cast<int>(t.iterMs.size()),
                                s.mark + 26);
        for (int i = lo; i < hi; i++)
            if (!t.refreshDue[static_cast<size_t>(i)])
                near.push_back(t.iterMs[static_cast<size_t>(i)]);
        near_ms += median(near);
    }
    const double n = t.probes.empty() ? 1.0 : t.probes.size();
    report.add("renderer.march_us_per_ray", rays > 0 ? march / rays : 0.0,
               "us");
    report.add("field.query_us_per_ksample",
               samples > 0 ? query / (samples / 1e3) : 0.0, "us");
    report.add("field.backward_us_per_ksample",
               samples > 0 ? backward / (samples / 1e3) : 0.0, "us");
    report.add("field.reduce_us", reduce / n, "us");
    report.add("adam.step_us", adam / n, "us");
    report.add("trainer.unattributed_frac",
               unattributedFrac(near_ms, {probe_ms}), "frac");
}

} // namespace perfbench
