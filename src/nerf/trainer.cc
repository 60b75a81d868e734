#include "nerf/trainer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"
#include "nerf/serialize.hh"
#include "obs/telemetry.hh"

namespace instant3d {

namespace {

/** Per-phase latency histograms ("train.phase.*_ms"), resolved once;
 *  registry references are stable for the process lifetime. Each gets
 *  one sample per stream-path iteration (occ_refresh: per refresh).
 *  march/forward/backward sum over the iteration's chunks, so with
 *  several threads they read as CPU time, not elapsed time. */
struct PhaseHistograms
{
    obs::LatencyHistogram *occRefresh, *march, *forward, *backward,
        *reduce, *optimizer, *zeroGrad;
};

const PhaseHistograms &
phaseHistograms()
{
    static const PhaseHistograms h = [] {
        auto &m = obs::MetricsRegistry::global();
        return PhaseHistograms{
            &m.histogram("train.phase.occ_refresh_ms"),
            &m.histogram("train.phase.march_ms"),
            &m.histogram("train.phase.forward_ms"),
            &m.histogram("train.phase.backward_ms"),
            &m.histogram("train.phase.reduce_ms"),
            &m.histogram("train.phase.optimizer_ms"),
            &m.histogram("train.phase.zero_grad_ms")};
    }();
    return h;
}

} // namespace

Trainer::Trainer(const Dataset &dataset, const FieldConfig &field_config,
                 const TrainConfig &train_config)
    : data(dataset), cfg(train_config), rng(train_config.seed)
{
    fatalIf(data.trainViews.empty(), "Trainer needs training views");
    fatalIf(cfg.raysPerBatch < 1, "raysPerBatch must be positive");
    fatalIf(cfg.samplesPerRay < 1, "samplesPerRay must be positive");
    fatalIf(cfg.densityUpdatePeriod < 1 || cfg.colorUpdatePeriod < 1,
            "update periods must be >= 1");
    fatalIf(cfg.gradShards < 1, "gradShards must be positive");
    fatalIf(cfg.useOccupancyGrid && cfg.occupancyUpdatePeriod < 1,
            "occupancyUpdatePeriod must be >= 1");

    fieldPtr = std::make_unique<NerfField>(field_config, cfg.seed);

    RendererConfig rcfg;
    rcfg.tNear = data.renderOpts.tNear;
    rcfg.tFar = data.renderOpts.tFar;
    rcfg.samplesPerRay = cfg.samplesPerRay;
    rcfg.background = data.renderOpts.background;
    rendererPtr = std::make_unique<VolumeRenderer>(rcfg);

    if (cfg.useOccupancyGrid) {
        occupancyPtr = std::make_unique<OccupancyGrid>(cfg.occupancy);
        rendererPtr->setOccupancyGrid(occupancyPtr.get());
    }

    // Sparse lazy Adam over touched grid entries: only exact without
    // weight decay, which feeds params into the gradient of untouched
    // entries.
    sparseActive = cfg.sparseOptimizer && cfg.adam.l2Reg == 0.0f;

    groups = fieldPtr->paramGroups();
    for (auto id : groups) {
        AdamConfig acfg = cfg.adam;
        optimizers.push_back(std::make_unique<Adam>(
            fieldPtr->groupParams(id).size(), acfg));
        if (sparseActive && id == ParamGroupId::DensityGrid) {
            optimizers.back()->enableSparse(static_cast<uint32_t>(
                fieldPtr->densityGrid().config().featuresPerEntry));
        } else if (sparseActive && id == ParamGroupId::ColorGrid) {
            optimizers.back()->enableSparse(static_cast<uint32_t>(
                fieldPtr->colorGrid().config().featuresPerEntry));
        }
    }
    if (sparseActive)
        fieldPtr->setDirtyTracking(true);

    pool = std::make_unique<ThreadPool>(cfg.numThreads);

    // One kernel backend per trainer, routed through every batched
    // kernel: the MLP panels, the grid interp/scatter, the renderer's
    // stream composite, the dense shard reduction, and the dense Adam
    // step.
    backend = createKernelBackend(cfg.kernelBackend);
    fieldPtr->setKernelBackend(backend.get());
    rendererPtr->setKernelBackend(backend.get());
    for (auto &opt : optimizers)
        opt->setKernelBackend(backend.get());

    workspaces.resize(pool->threadCount());
    shards.resize(std::min(cfg.gradShards, cfg.raysPerBatch));
}

bool
Trainer::dueThisIteration(int period) const
{
    return iter % period == 0;
}

void
Trainer::sampleTrainingRay(Rng &rng, Ray &ray, Vec3 &gt) const
{
    // Step 1: randomly sample a pixel from a training view.
    const View &view = data.trainViews[rng.nextU32(
        static_cast<uint32_t>(data.trainViews.size()))];
    int col = static_cast<int>(rng.nextU32(
        static_cast<uint32_t>(view.camera.imageWidth())));
    int row = static_cast<int>(rng.nextU32(
        static_cast<uint32_t>(view.camera.imageHeight())));
    gt = view.rgb.at(col, row);

    // Step 2: map the pixel to a ray (jittered in the pixel).
    ray = view.camera.pixelRay(col, row, rng.nextFloat(),
                               rng.nextFloat());
}

TrainStats
Trainer::trainIteration()
{
    TrainStats stats;
    stats.densityUpdated = dueThisIteration(cfg.densityUpdatePeriod);
    stats.colorUpdated = dueThisIteration(cfg.colorUpdatePeriod);

    // Periodic occupancy refresh (after an initial optimistic phase,
    // so real surfaces exist before anything is skipped). Its round key
    // comes from the trainer's own stream; its density-only probe
    // blocks spread over the pool (inline and in order when traced),
    // and refresh() amortizes via the partial probe subset when the
    // grid config enables it.
    // Each phase is timed into its train.phase.*_ms histogram, and
    // only while telemetry is on: disabled, no clock is read.
    const bool phased = obs::enabled();
    const PhaseHistograms &ph = phaseHistograms();
    if (occupancyPtr && iter > 0 &&
        iter % cfg.occupancyUpdatePeriod == 0) {
        obs::ScopedTimer timer(ph.occRefresh);
        occupancyPtr->refresh(*fieldPtr, rng, pool.get());
    }

    uint64_t points_before = fieldPtr->queryCount();
    float inv_batch = 1.0f / static_cast<float>(cfg.raysPerBatch);

    // Fixed chunking: the chunk count (== shard count) depends only on
    // the config, never on the thread count, so the gradient and loss
    // reduction orders are thread-count-invariant.
    const int num_chunks = static_cast<int>(shards.size());
    const int chunk_len =
        (cfg.raysPerBatch + num_chunks - 1) / num_chunks;
    chunkLoss.assign(num_chunks, 0.0);
    for (auto &shard : shards)
        fieldPtr->prepareGradients(shard);

    // A traced iteration runs the chunks in order on this thread, one
    // ray per stream, so every attached sink receives program-order
    // accesses carrying the encodings' own monotonic point ids.
    const bool traced = fieldPtr->traceAttached();

    // Per-chunk phase times, summed after the parallel section (so the
    // instrumentation needs no atomics and stays deterministic).
    struct ChunkPhases
    {
        double march = 0.0;
        double forward = 0.0;
        double backward = 0.0;
    };
    std::vector<ChunkPhases> chunkPhases;
    if (phased)
        chunkPhases.assign(static_cast<size_t>(num_chunks), {});

    const uint64_t it = static_cast<uint64_t>(iter);
    auto run_chunk = [&](int c, int rank) {
        Workspace &ws = workspaces[rank];
        FieldGradients &shard = shards[c];
        const int r_begin = c * chunk_len;
        const int r_end =
            std::min(r_begin + chunk_len, cfg.raysPerBatch);

        // Trailing chunks can be empty when raysPerBatch is not a
        // multiple of the chunk count.
        const int nr = r_end > r_begin ? r_end - r_begin : 0;
        if (nr == 0) {
            chunkLoss[c] = 0.0;
            return;
        }

        // A stream issues all its forward reads before any backward
        // write, so a traced chunk streams one ray at a time to keep
        // the trace in program order (each ray's reads, then its
        // writes). Untraced, the whole chunk is one stream: one arena
        // generation, one march, one field query.
        const int per_stream = traced ? 1 : nr;
        double loss_acc = 0.0;
        for (int s0 = 0; s0 < nr; s0 += per_stream) {
            ws.reset();
            Rng *rngs = ws.alloc<Rng>(per_stream);
            Ray *rays = ws.alloc<Ray>(per_stream);
            Vec3 *gts = ws.alloc<Vec3>(per_stream);
            for (int i = 0; i < per_stream; i++) {
                // Per-ray RNG stream: results do not depend on which
                // thread (or chunk schedule) processed this ray.
                rngs[i] = Rng::forIndex(
                    cfg.seed, it,
                    static_cast<uint64_t>(r_begin + s0 + i));
                sampleTrainingRay(rngs[i], rays[i], gts[i]);
            }

            // Step 3a: march against the occupancy grid; only the
            // surviving samples enter the stream.
            double t0 = phased ? monotonicSeconds() : 0.0;
            SampleStream stream;
            rendererPtr->marchRays(rays, per_stream, rngs, stream, ws);

            // Steps 3b-4: one field query over the stream + per-ray
            // compositing.
            double t1 = phased ? monotonicSeconds() : 0.0;
            StreamRecord srec;
            RayResult *results = ws.alloc<RayResult>(per_stream);
            rendererPtr->renderStream(*fieldPtr, stream, results, &srec, ws);
            if (phased) {
                chunkPhases[c].march += t1 - t0;
                chunkPhases[c].forward += monotonicSeconds() - t1;
            }

            // Step 5: squared-error loss and dL/dC per ray.
            Vec3 *d_colors = ws.alloc<Vec3>(per_stream);
            for (int i = 0; i < per_stream; i++) {
                Vec3 err = results[i].color - gts[i];
                loss_acc += (err.x * err.x + err.y * err.y +
                             err.z * err.z) / 3.0;
                d_colors[i] = err * (2.0f / 3.0f * inv_batch);
            }

            // Step 6: stream backward into this chunk's shard.
            double t2 = phased ? monotonicSeconds() : 0.0;
            rendererPtr->backwardStream(
                *fieldPtr, stream, srec, d_colors, stats.densityUpdated,
                stats.colorUpdated, &shard, ws);
            if (phased)
                chunkPhases[c].backward += monotonicSeconds() - t2;
        }
        chunkLoss[c] = loss_acc;
    };
    if (traced) {
        for (int c = 0; c < num_chunks; c++)
            run_chunk(c, 0);
    } else {
        pool->parallelFor(num_chunks, run_chunk);
    }

    // Deterministic reduction: every entry takes its shards in fixed
    // chunk order, whichever pool thread reduces it. No reduce task
    // touches a trace sink, so a traced iteration uses the pool too.
    double loss_acc = 0.0;
    {
        obs::ScopedTimer timer(ph.reduce);
        fieldPtr->reduceGradients(shards, pool.get());
        for (int c = 0; c < num_chunks; c++)
            loss_acc += chunkLoss[c];
    }

    // Apply optimizer steps to the branches due this iteration: sparse
    // groups step only the entries of the dirty bitmap the reduction
    // just assembled (plus those still carrying momentum), sweeping
    // over the pool.
    {
        obs::ScopedTimer timer(ph.optimizer);
        for (size_t g = 0; g < groups.size(); g++) {
            bool is_color = groups[g] == ParamGroupId::ColorGrid ||
                            groups[g] == ParamGroupId::ColorMlp;
            bool due =
                is_color ? stats.colorUpdated : stats.densityUpdated;
            if (!due)
                continue;
            if (optimizers[g]->sparseEnabled()) {
                // stepSparse settles the whole active set as it goes,
                // so the next forward pass reads exactly the
                // dense-trajectory parameters without a separate
                // catch-up.
                stats.sparseEntriesStepped += optimizers[g]->stepSparse(
                    fieldPtr->groupParams(groups[g]),
                    fieldPtr->groupGrads(groups[g]),
                    fieldPtr->dirtyEntries(groups[g]), pool.get());
            } else {
                optimizers[g]->step(fieldPtr->groupParams(groups[g]),
                                    fieldPtr->groupGrads(groups[g]));
            }
        }
    }

    // Touched-only clear, one pass over the dirty bitmaps, when every
    // grid scatter went through a touch bitmap; full scan otherwise.
    {
        obs::ScopedTimer timer(ph.zeroGrad);
        if (sparseActive)
            fieldPtr->zeroGradDirty();
        else
            fieldPtr->zeroGrad();
    }

    if (phased) {
        ChunkPhases total;
        for (const ChunkPhases &p : chunkPhases) {
            total.march += p.march;
            total.forward += p.forward;
            total.backward += p.backward;
        }
        ph.march->record(total.march * 1e3);
        ph.forward->record(total.forward * 1e3);
        ph.backward->record(total.backward * 1e3);
    }

    stats.loss = loss_acc / cfg.raysPerBatch;
    stats.pointsQueried = fieldPtr->queryCount() - points_before;
    pointsTotal += stats.pointsQueried;

    iter++;
    return stats;
}

size_t
Trainer::sparseActiveEntries() const
{
    size_t n = 0;
    for (const auto &opt : optimizers)
        if (opt->sparseEnabled())
            n += opt->activeEntries();
    return n;
}

void
Trainer::syncParams()
{
    for (size_t g = 0; g < groups.size(); g++) {
        if (optimizers[g]->sparseEnabled())
            optimizers[g]->catchUp(fieldPtr->groupParams(groups[g]));
    }
}

CheckpointError
Trainer::saveCheckpoint(const std::string &path)
{
    // The sparse lazy optimizer may defer updates to untouched grid
    // entries; a checkpoint must observe the settled (dense-Adam-
    // equivalent) parameters.
    syncParams();
    return instant3d::saveCheckpoint(*fieldPtr, occupancyPtr.get(),
                                     path);
}

/**
 * Shared pixel loop for renderImage/renderDepth: every pixel is one
 * VolumeRenderer::renderRays call on its own ray, the march served
 * tiles run, so no pixel depends on the thread count or on an
 * attached trace sink. Parallel over rows (each row writes disjoint
 * output), serialized when a trace sink is attached so trace order
 * stays program order.
 */
void
Trainer::forEachPixel(
    const Camera &camera,
    const std::function<void(int, int, const RayResult &)> &emit)
{
    // Rendering reads parameters directly, so any updates the sparse
    // optimizer has deferred must be settled first (harmless for
    // later training -- settling early is a prefix of the same op
    // sequence every subsequent touch would replay).
    syncParams();

    auto render_row = [&](int row, int rank) {
        Workspace &ws = workspaces[rank];
        for (int col = 0; col < camera.imageWidth(); col++) {
            const Ray ray = camera.pixelRay(col, row);
            RayResult res;
            ws.reset();
            rendererPtr->renderRays(*fieldPtr, &ray, 1, &res, ws);
            emit(col, row, res);
        }
    };

    if (fieldPtr->traceAttached()) {
        // Serial in program order: sinks take records from one thread,
        // in the order a sequential run would produce them.
        for (int row = 0; row < camera.imageHeight(); row++)
            render_row(row, 0);
    } else {
        pool->parallelFor(camera.imageHeight(), render_row);
    }
}

Image
Trainer::renderImage(const Camera &camera)
{
    Image img(camera.imageWidth(), camera.imageHeight());
    forEachPixel(camera, [&](int col, int row, const RayResult &res) {
        img.at(col, row) = res.color;
    });
    return img;
}

std::vector<float>
Trainer::renderDepth(const Camera &camera)
{
    std::vector<float> depth(
        static_cast<size_t>(camera.imageWidth()) * camera.imageHeight());
    forEachPixel(camera, [&](int col, int row, const RayResult &res) {
        depth[static_cast<size_t>(row) * camera.imageWidth() + col] =
            res.depth;
    });
    return depth;
}

double
Trainer::evalPsnr()
{
    fatalIf(data.testViews.empty(), "evalPsnr() needs test views");
    double acc = 0.0;
    for (const auto &view : data.testViews) {
        Image img = renderImage(view.camera);
        acc += psnr(img, view.rgb);
    }
    return acc / static_cast<double>(data.testViews.size());
}

double
Trainer::evalDepthPsnr()
{
    fatalIf(data.testViews.empty(), "evalDepthPsnr() needs test views");
    double acc = 0.0;
    for (const auto &view : data.testViews) {
        auto depth = renderDepth(view.camera);
        acc += psnrScalar(depth, view.depth, data.renderOpts.tFar);
    }
    return acc / static_cast<double>(data.testViews.size());
}

} // namespace instant3d
