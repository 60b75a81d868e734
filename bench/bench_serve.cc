/**
 * @file
 * Render-serving ratio gates: train one small scene, register it, and
 * measure three things against bounds that scripts/bench_smoke.sh
 * checks:
 *
 *  1. served vs renderImage at one thread: the 1-worker served closed
 *     loop against the single-client Trainer::renderImage baseline,
 *     timed on strictly alternating frames and compared by minimum
 *     frame time (`served_vs_renderImage_1t >= 0.9`);
 *  2. an orbiting Preview viewer on a coarse camera lattice with
 *     prefetch on (`orbit_preview_hit_rate >= 0.5`);
 *  3. the cost of the telemetry layer on the served path: the median
 *     over several blocks of alternating enabled/disabled frames
 *     (`telemetry_overhead <= 0.02`), plus the mergeable histogram's
 *     percentiles against an exact tracker (`within_one_bucket`).
 *
 * Serving latency under load is perfbench's job (BENCHMARK.json). The
 * serving completion properties -- degradation instead of rejection,
 * failover under a shard crash, an overcommitted scene working set --
 * are tier-1 tests (test_serve, test_shard_router,
 * test_registry_capacity).
 *
 * Usage: bench_serve [output.json]
 *
 * Emits BENCH_serve_latency.json (path = argv[1]).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/stats.hh"
#include "nerf/trainer.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/render_service.hh"
#include "serve/scene_registry.hh"

namespace instant3d {
namespace {

double
now()
{
    return monotonicSeconds();
}

/** Lattice-aligned serving camera over the unit-cube scene. */
CameraSpec
servingCamera(int view, int size)
{
    // A small set of distinct viewpoints, all exactly on the 1/4096
    // quantization lattice so repeats hash to the same cache keys.
    static const float eyes[][3] = {
        {1.25f, 0.5f, 1.0f},   {0.5f, 1.25f, 1.0f},
        {-0.25f, 0.5f, 1.0f},  {0.5f, -0.25f, 1.0f},
        {1.0f, 1.0f, 1.25f},   {0.0f, 1.0f, 1.25f},
        {1.0f, 0.0f, 0.75f},   {0.0f, 0.0f, 0.75f},
    };
    const float *e = eyes[view % 8];
    CameraSpec spec;
    spec.eye = {e[0], e[1], e[2]};
    spec.target = {0.5f, 0.5f, 0.5f};
    spec.up = {0.0f, 0.0f, 1.0f};
    spec.vfovDeg = 45.0f;
    spec.width = size;
    spec.height = size;
    return spec;
}

std::unique_ptr<Trainer>
trainScene(const Dataset &dataset, const bench::SmallScale &scale,
           int iterations)
{
    FieldConfig fcfg =
        FieldConfig::instant3dDefault(bench::benchBaseGrid(scale));
    fcfg.hiddenDim = scale.hiddenDim;
    TrainConfig tcfg;
    tcfg.raysPerBatch = scale.raysPerBatch;
    tcfg.samplesPerRay = scale.samplesPerRay;
    tcfg.adam.lr = 1e-2f;
    tcfg.useOccupancyGrid = true;
    tcfg.occupancyUpdatePeriod = 16;
    tcfg.numThreads = 1; // the 1t baseline renders through this pool
    tcfg.seed = scale.seed;
    auto trainer = std::make_unique<Trainer>(dataset, fcfg, tcfg);
    for (int i = 0; i < iterations; i++)
        trainer->trainIteration();
    return trainer;
}

/** Milliseconds one call of `fn` takes. */
template <typename Fn>
double
frameMs(Fn &&fn)
{
    const double t0 = now();
    fn();
    return (now() - t0) * 1e3;
}

void
requireOk(const RenderResponse &resp, const char *phase)
{
    if (resp.status != RequestStatus::Ok) {
        std::fprintf(stderr, "bench_serve: %s render failed\n", phase);
        std::exit(1);
    }
}

} // namespace
} // namespace instant3d

int
main(int argc, char **argv)
{
    using namespace instant3d;

    std::string out_path =
        argc > 1 ? argv[1] : "BENCH_serve_latency.json";

    constexpr int image_size = 64;
    constexpr int tile = 16;
    const double image_rays =
        static_cast<double>(image_size) * image_size;

    // ------------------------------------------------- scene setup
    bench::SmallScale scale;
    std::fprintf(stderr, "bench_serve: training lego...\n");
    Dataset lego = bench::makeSceneDataset("lego", scale);
    auto lego_trainer = trainScene(lego, scale, 150);

    SceneRegistry registry;
    registry.registerFromTrainer("lego", *lego_trainer);

    // ---------------- served vs renderImage, 1 thread, cache disabled
    // Strictly alternating frames spread both arms evenly across any
    // thermal or scheduler drift, and the minimum frame time of each
    // arm is compared: scheduler noise only ever inflates a frame,
    // while a slower serving path shifts the whole distribution,
    // floor included.
    std::fprintf(stderr, "bench_serve: served vs renderImage...\n");
    constexpr int pairs = 32;
    CameraSpec cam = servingCamera(0, image_size);
    Camera camera = cam.makeCamera();
    RunningStats base_ms, served_ms;
    uint64_t closed_chunks = 0, closed_cross = 0;
    {
        RenderServiceConfig cfg;
        cfg.workers = 1;
        cfg.tilePixels = tile;
        cfg.chunkRays = image_size * image_size; // one chunk
        cfg.cacheTiles = 0;
        RenderService service(registry, cfg);

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = cam;
        lego_trainer->renderImage(camera); // warm
        requireOk(service.render(req), "closed-loop");
        for (int i = 0; i < pairs; i++) {
            base_ms.add(
                frameMs([&] { lego_trainer->renderImage(camera); }));
            served_ms.add(frameMs(
                [&] { requireOk(service.render(req), "closed-loop"); }));
        }
        ServeStats st = service.stats();
        closed_chunks = st.chunksRendered;
        closed_cross = st.crossRequestChunks;
    }
    const double served_vs_render_image =
        base_ms.min() / served_ms.min();

    // ------------------------------------------------- orbit phase
    // A single paced viewer orbiting the lego scene at Preview tier
    // with a coarse 1/64 camera lattice and speculative prefetch on:
    // consecutive frames collapse onto shared lattice cells (cross-
    // frame cache reuse) and the constant-velocity predictor
    // pre-renders the next cell during the inter-frame gap. The
    // smoke gate wants orbit_preview_hit_rate >= 0.5.
    std::fprintf(stderr, "bench_serve: orbit phase...\n");
    constexpr int orbit_frames = 120;
    constexpr float orbit_lattice = 64.0f;
    uint64_t orbit_tiles_cache = 0, orbit_tiles_rendered = 0;
    ServeStats orbit_stats;
    TileCache::Stats orbit_cache;
    int orbit_workers = 0;
    {
        RenderServiceConfig cfg;
        cfg.workers = 0; // auto
        cfg.tilePixels = tile;
        cfg.chunkRays = 2048;
        cfg.cacheTiles = 1024;
        cfg.cameraLattice[static_cast<int>(QualityTier::Preview)] =
            orbit_lattice;
        cfg.prefetch = true;
        RenderService service(registry, cfg);
        orbit_workers = service.workerCount();

        RenderRequest req;
        req.sceneId = "lego";
        req.quality = QualityTier::Preview;
        req.viewerId = "orbit";
        for (int i = 0; i < orbit_frames; i++) {
            double theta = 0.005 * static_cast<double>(i);
            req.camera = servingCamera(0, image_size);
            req.camera.eye = {
                0.5f +
                    0.75f * static_cast<float>(std::cos(theta)),
                0.5f +
                    0.75f * static_cast<float>(std::sin(theta)),
                1.0f};
            RenderResponse resp = service.render(req);
            requireOk(resp, "orbit");
            orbit_tiles_cache += resp.tilesFromCache;
            orbit_tiles_rendered += resp.tilesRendered;
            // Frame pacing: the idle gap between frames is where the
            // speculative tiles get rendered.
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        orbit_stats = service.stats();
        orbit_cache = service.cacheStats();
    }
    double orbit_hit_rate =
        (orbit_tiles_cache + orbit_tiles_rendered)
            ? static_cast<double>(orbit_tiles_cache) /
                  static_cast<double>(orbit_tiles_cache +
                                      orbit_tiles_rendered)
            : 0.0;
    double prefetch_hit_rate =
        orbit_stats.prefetchTilesRendered
            ? static_cast<double>(orbit_stats.prefetchHits) /
                  static_cast<double>(
                      orbit_stats.prefetchTilesRendered)
            : 0.0;

    // --------------------------------------------- telemetry phase
    // Cost of the telemetry layer on the hot serving path: in each
    // block, strictly alternating enabled/disabled frames, compared
    // by minimum frame time as above. The gate reads the median over
    // the blocks, so one block's unlucky minimum cannot flip it. A
    // fidelity cross-check rides along: the mergeable histogram's
    // percentiles over every enabled frame against the exact
    // sort-based tracker, required to agree within one bucket width.
    std::fprintf(stderr, "bench_serve: telemetry phase...\n");
    constexpr int telem_blocks = 9;
    constexpr int frames_per_arm = 20;
    std::vector<double> block_overheads;
    double telem_hist_p[3] = {0.0, 0.0, 0.0};
    double telem_exact_p[3] = {0.0, 0.0, 0.0};
    bool telem_within_one_bucket = true;
    uint64_t telem_traces = 0;
    obs::LatencyHistogram hist;
    PercentileTracker exact;
    {
        RenderServiceConfig cfg;
        cfg.workers = 1;
        cfg.tilePixels = tile;
        cfg.chunkRays = 2048;
        cfg.cacheTiles = 0; // every frame really renders
        RenderService service(registry, cfg);

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = servingCamera(2, image_size / 2);
        // Two discarded blocks first: on a 4-vCPU host the first blocks
        // after the orbit phase read high more often than later ones.
        for (int i = 0; i < 4 * frames_per_arm; i++) {
            obs::setEnabled(i % 2 != 0);
            requireOk(service.render(req), "telemetry");
            obs::setEnabled(true);
        }
        const uint64_t traces0 =
            obs::TraceRing::global().completedCount();

        for (int b = 0; b < telem_blocks; b++) {
            RunningStats arm_ms[2];
            for (int i = 0; i < 2 * frames_per_arm; i++) {
                const bool on = (i % 2) != 0;
                obs::setEnabled(on);
                const double ms = frameMs(
                    [&] { requireOk(service.render(req), "telemetry"); });
                obs::setEnabled(true);
                arm_ms[on ? 1 : 0].add(ms);
                if (on) {
                    hist.record(ms);
                    exact.add(ms);
                }
            }
            block_overheads.push_back(std::max(
                0.0, arm_ms[1].min() / arm_ms[0].min() - 1.0));
        }
        telem_traces =
            obs::TraceRing::global().completedCount() - traces0;
    }
    PercentileTracker blocks;
    for (double v : block_overheads)
        blocks.add(v);
    const double telem_overhead = blocks.percentile(50.0);

    obs::HistogramSnapshot snap = hist.snapshot();
    // Under -DINSTANT3D_DISABLE_TELEMETRY nothing records; the
    // fidelity check is then vacuous rather than failing.
    if (snap.count > 0) {
        const double ps[3] = {50.0, 95.0, 99.0};
        for (int i = 0; i < 3; i++) {
            telem_exact_p[i] = exact.percentile(ps[i]);
            telem_hist_p[i] = snap.percentile(ps[i]);
            const int b =
                obs::LatencyHistogram::bucketIndex(telem_exact_p[i]);
            const double width = obs::LatencyHistogram::bucketRight(b) -
                                 obs::LatencyHistogram::bucketLeft(b);
            if (std::abs(telem_hist_p[i] - telem_exact_p[i]) > width)
                telem_within_one_bucket = false;
        }
    }

    // ------------------------------------------------------- report
    std::string json;
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"serve_latency\",\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"scenes\": 1,\n"
        "  \"image\": {\"width\": %d, \"height\": %d, \"tile\": %d},\n"
        "  \"baseline_renderimage_1t\": {\"frames\": %llu, "
        "\"min_ms\": %.3f, \"rays_per_s\": %.1f},\n"
        "  \"served_closed_loop_1t\": {\"frames\": %llu, "
        "\"min_ms\": %.3f, \"rays_per_s\": %.1f, "
        "\"chunks\": %llu, \"cross_request_chunks\": %llu},\n",
        std::thread::hardware_concurrency(), image_size, image_size,
        tile, static_cast<unsigned long long>(base_ms.count()),
        base_ms.min(), image_rays / base_ms.min() * 1e3,
        static_cast<unsigned long long>(served_ms.count()),
        served_ms.min(), image_rays / served_ms.min() * 1e3,
        static_cast<unsigned long long>(closed_chunks),
        static_cast<unsigned long long>(closed_cross));
    json += buf;

    // Orbit block: cross-frame cache reuse on the coarse Preview
    // lattice plus speculative-prefetch accounting.
    const int pv_tier = static_cast<int>(QualityTier::Preview);
    std::snprintf(
        buf, sizeof(buf),
        "  \"orbit\": {\n"
        "    \"frames\": %d,\n"
        "    \"workers\": %d,\n"
        "    \"preview_lattice\": %.0f,\n"
        "    \"tiles_from_cache\": %llu,\n"
        "    \"tiles_rendered\": %llu,\n"
        "    \"preview_hit_rate\": %.3f,\n"
        "    \"cache_hits_preview\": %llu,\n"
        "    \"cache_misses_preview\": %llu,\n"
        "    \"prefetch\": {\n"
        "      \"enqueued\": %llu,\n"
        "      \"rendered\": %llu,\n"
        "      \"cancelled\": %llu,\n"
        "      \"insertions\": %llu,\n"
        "      \"hits\": %llu,\n"
        "      \"wasted\": %llu,\n"
        "      \"hit_rate\": %.3f\n"
        "    }\n"
        "  },\n",
        orbit_frames, orbit_workers,
        static_cast<double>(orbit_lattice),
        static_cast<unsigned long long>(orbit_tiles_cache),
        static_cast<unsigned long long>(orbit_tiles_rendered),
        orbit_hit_rate,
        static_cast<unsigned long long>(
            orbit_stats.cacheHitsPerTier[pv_tier]),
        static_cast<unsigned long long>(
            orbit_stats.cacheMissesPerTier[pv_tier]),
        static_cast<unsigned long long>(
            orbit_stats.prefetchTilesEnqueued),
        static_cast<unsigned long long>(
            orbit_stats.prefetchTilesRendered),
        static_cast<unsigned long long>(
            orbit_stats.prefetchTilesCancelled),
        static_cast<unsigned long long>(
            orbit_cache.prefetchInsertions),
        static_cast<unsigned long long>(orbit_stats.prefetchHits),
        static_cast<unsigned long long>(orbit_stats.prefetchWasted),
        prefetch_hit_rate);
    json += buf;

    // Telemetry block: layer overhead per block and its median (the
    // gated value, <= 2%), plus histogram-vs-exact percentile
    // fidelity over every enabled frame.
    std::snprintf(buf, sizeof(buf),
                  "  \"telemetry\": {\n"
                  "    \"blocks\": %d,\n"
                  "    \"frames_per_arm\": %d,\n"
                  "    \"block_overheads\": [",
                  telem_blocks, frames_per_arm);
    json += buf;
    for (size_t b = 0; b < block_overheads.size(); b++) {
        std::snprintf(buf, sizeof(buf), "%s%.4f", b ? ", " : "",
                      block_overheads[b]);
        json += buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "],\n"
        "    \"telemetry_overhead\": %.4f,\n"
        "    \"traces_completed\": %llu,\n"
        "    \"histogram_check\": {\n"
        "      \"samples\": %zu,\n"
        "      \"within_one_bucket\": %s,\n"
        "      \"hist\": {\"p50\": %.3f, \"p95\": %.3f, "
        "\"p99\": %.3f},\n"
        "      \"exact\": {\"p50\": %.3f, \"p95\": %.3f, "
        "\"p99\": %.3f}\n"
        "    }\n"
        "  },\n"
        "  \"speedups\": {\n"
        "    \"served_vs_renderImage_1t\": %.3f,\n"
        "    \"orbit_preview_hit_rate\": %.3f,\n"
        "    \"prefetch_hit_rate\": %.3f,\n"
        "    \"prefetch_waste\": %llu\n"
        "  }\n"
        "}\n",
        telem_overhead, static_cast<unsigned long long>(telem_traces),
        exact.count(), telem_within_one_bucket ? "true" : "false",
        telem_hist_p[0], telem_hist_p[1], telem_hist_p[2],
        telem_exact_p[0], telem_exact_p[1], telem_exact_p[2],
        served_vs_render_image, orbit_hit_rate, prefetch_hit_rate,
        static_cast<unsigned long long>(orbit_stats.prefetchWasted));
    json += buf;

    std::fputs(json.c_str(), stdout);
    if (FILE *f = std::fopen(out_path.c_str(), "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "could not write %s\n", out_path.c_str());
        return 1;
    }
    return 0;
}
