/**
 * @file
 * Render-serving bench: train two small scenes, register them, and
 * measure (1) the single-client Trainer::renderImage baseline at one
 * thread, (2) served closed-loop throughput at one worker (the
 * cross-request-batching gate: served must stay >= 0.9x the baseline),
 * and (3) an open-loop synthetic request mix -- two scenes, three
 * quality tiers, mixed tile sizes, configurable offered load --
 * reporting throughput plus p50/p95/p99 latency per tier, cache and
 * backpressure counters.
 *
 * A fleet mode then runs the same open-loop mix through a ShardRouter
 * (4 shards x R=2): once unhedged and once hedged against an identical
 * slow-replica stall schedule (per-tier latency with and without
 * hedging), and once with a deterministic mid-run shard crash
 * (availability under kill + failover counters). The `fleet` JSON
 * block and the `fleet_kill_completion` speedup feed the smoke gate.
 *
 * Usage: bench_serve [output.json] [open_loop_seconds]
 *
 * Emits BENCH_serve_latency.json (path = argv[1]).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/fault_injection.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "nerf/trainer.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/render_service.hh"
#include "serve/scene_registry.hh"
#include "serve/shard_router.hh"

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

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    if (idx > 0)
        idx--;
    return sorted[std::min(idx, sorted.size() - 1)];
}

struct TierLatency
{
    const char *name;
    std::vector<double> ms;
};

} // namespace
} // namespace instant3d

int
main(int argc, char **argv)
{
    using namespace instant3d;

    std::string out_path =
        argc > 1 ? argv[1] : "BENCH_serve_latency.json";
    double open_loop_seconds = argc > 2 ? std::atof(argv[2]) : 3.0;
    if (open_loop_seconds <= 0)
        open_loop_seconds = 3.0;

    constexpr int image_size = 64;
    constexpr int tile = 16;
    const uint64_t image_rays =
        static_cast<uint64_t>(image_size) * image_size;

    // ------------------------------------------------- scene setup
    bench::SmallScale scale;
    std::fprintf(stderr, "bench_serve: training 2 scenes...\n");
    Dataset lego = bench::makeSceneDataset("lego", scale);
    Dataset materials = bench::makeSceneDataset("materials", scale);
    auto lego_trainer = trainScene(lego, scale, 150);
    auto materials_trainer = trainScene(materials, scale, 150);

    SceneRegistry registry;
    registry.registerFromTrainer("lego", *lego_trainer);
    registry.registerFromTrainer("materials", *materials_trainer);

    // ------------------------------- baseline: renderImage at 1 thread
    CameraSpec cam = servingCamera(0, image_size);
    Camera camera = cam.makeCamera();
    lego_trainer->renderImage(camera); // warm
    double t0 = now();
    int base_frames = 0;
    double base_seconds = 0.0;
    while (base_seconds < 1.0) {
        lego_trainer->renderImage(camera);
        base_frames++;
        base_seconds = now() - t0;
    }
    double base_rays_per_s =
        static_cast<double>(base_frames) * image_rays / base_seconds;

    // ------------------- served closed loop, 1 worker, cache disabled
    double served_rays_per_s = 0.0;
    uint64_t closed_chunks = 0, closed_cross = 0;
    {
        RenderServiceConfig cfg;
        cfg.workers = 1;
        cfg.tilePixels = tile;
        cfg.chunkRays = image_rays; // whole image -> one stream chunk
        cfg.cacheTiles = 0;
        RenderService service(registry, cfg);

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = cam;
        service.render(req); // warm
        double s0 = now();
        int frames = 0;
        double seconds = 0.0;
        while (seconds < 1.0) {
            RenderResponse resp = service.render(req);
            if (resp.status != RequestStatus::Ok) {
                std::fprintf(stderr,
                             "bench_serve: closed-loop render failed\n");
                return 1;
            }
            frames++;
            seconds = now() - s0;
        }
        served_rays_per_s =
            static_cast<double>(frames) * image_rays / seconds;
        ServeStats st = service.stats();
        closed_chunks = st.chunksRendered;
        closed_cross = st.crossRequestChunks;
    }
    double served_vs_render_image =
        served_rays_per_s / base_rays_per_s;

    // --------------------------------- open loop: synthetic request mix
    // Offered load targets ~60% of the measured 1-worker ray capacity
    // (auto-worker services on multicore hosts have headroom above
    // that), over a deterministic mix: 2 scenes x 3 tiers x 3 sizes x
    // 8 viewpoints, with repeats so the tile cache sees hits.
    const int sizes[3] = {image_size, image_size / 2, tile};
    double mean_request_rays = 0.0;
    for (int s : sizes)
        mean_request_rays += static_cast<double>(s) * s;
    mean_request_rays /= 3.0;
    double offered_rps =
        0.6 * served_rays_per_s / mean_request_rays;
    if (offered_rps < 4.0)
        offered_rps = 4.0;

    TierLatency tiers[numQualityTiers] = {
        {"full", {}}, {"half", {}}, {"preview", {}}};
    uint64_t submitted = 0, completed = 0, rejected = 0, expired = 0;
    double open_elapsed = 0.0;
    ServeStats open_stats;
    TileCache::Stats open_cache;
    int open_workers = 0;
    {
        RenderServiceConfig cfg;
        cfg.workers = 0; // auto
        cfg.tilePixels = tile;
        cfg.chunkRays = 2048;
        cfg.cacheTiles = 256;
        cfg.maxQueueTiles = 4096;
        RenderService service(registry, cfg);
        open_workers = service.workerCount();

        struct Flight
        {
            std::future<RenderResponse> future;
            int tier;
        };
        std::vector<Flight> flights;
        flights.reserve(
            static_cast<size_t>(offered_rps * open_loop_seconds) + 8);

        Rng mix_rng(1234);
        auto start = std::chrono::steady_clock::now();
        double o0 = now();
        for (uint64_t i = 0;; i++) {
            double due = static_cast<double>(i) / offered_rps;
            if (due > open_loop_seconds)
                break;
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(due));

            RenderRequest req;
            req.sceneId = mix_rng.nextU32(2) ? "materials" : "lego";
            req.camera =
                servingCamera(static_cast<int>(mix_rng.nextU32(8)),
                              image_size);
            int tier = static_cast<int>(mix_rng.nextU32(3));
            req.quality = static_cast<QualityTier>(tier);
            int size = sizes[mix_rng.nextU32(3)];
            if (size < image_size) {
                int off = static_cast<int>(
                    mix_rng.nextU32(static_cast<uint32_t>(
                        (image_size - size) / tile + 1))) * tile;
                req.roi = {off, off, size, size};
            }
            flights.push_back({service.submit(req), tier});
            submitted++;
        }
        for (auto &fl : flights) {
            RenderResponse resp = fl.future.get();
            switch (resp.status) {
            case RequestStatus::Ok:
                completed++;
                tiers[fl.tier].ms.push_back(resp.totalMs);
                break;
            case RequestStatus::Rejected:
                rejected++;
                break;
            case RequestStatus::DeadlineExceeded:
                expired++;
                break;
            default:
                break;
            }
        }
        open_elapsed = now() - o0;
        open_stats = service.stats();
        open_cache = service.cacheStats();
    }

    std::vector<double> all_ms;
    for (auto &t : tiers) {
        std::sort(t.ms.begin(), t.ms.end());
        all_ms.insert(all_ms.end(), t.ms.begin(), t.ms.end());
    }
    std::sort(all_ms.begin(), all_ms.end());

    // ------------------------------------ overload: backpressure probe
    uint64_t overload_submitted = 0, overload_rejected = 0;
    {
        RenderServiceConfig cfg;
        cfg.workers = 1;
        cfg.tilePixels = tile;
        cfg.maxQueueTiles = 64;
        cfg.retryAfterMs = 5;
        RenderService service(registry, cfg);
        std::vector<std::future<RenderResponse>> fut;
        for (int i = 0; i < 96; i++) {
            RenderRequest req;
            req.sceneId = "lego";
            req.camera = cam;
            fut.push_back(service.submit(req));
            overload_submitted++;
        }
        for (auto &f : fut)
            if (f.get().status == RequestStatus::Rejected)
                overload_rejected++;
    }

    // -------------------- overload again, with degradation enabled:
    // the same 96-request burst against a 64-tile admission window,
    // but with QoS degradation on and a deep degraded cap, so the
    // service downshifts tiers instead of shedding load.
    uint64_t degraded_submitted = 0, degraded_completed = 0;
    uint64_t degraded_rejected = 0;
    uint64_t degraded_per_tier[numQualityTiers] = {0, 0, 0};
    uint64_t degraded_admissions = 0;
    {
        RenderServiceConfig cfg;
        cfg.workers = 1;
        cfg.tilePixels = tile;
        cfg.maxQueueTiles = 64;
        cfg.retryAfterMs = 5;
        cfg.degradeUnderLoad = true;
        cfg.maxQueueTilesDegraded = 4096;
        RenderService service(registry, cfg);
        std::vector<std::future<RenderResponse>> fut;
        for (int i = 0; i < 96; i++) {
            RenderRequest req;
            req.sceneId = "lego";
            req.camera = cam;
            fut.push_back(service.submit(req));
            degraded_submitted++;
        }
        for (auto &f : fut) {
            RenderResponse resp = f.get();
            if (resp.status == RequestStatus::Ok) {
                degraded_completed++;
                degraded_per_tier[static_cast<int>(
                    resp.servedQuality)]++;
            } else if (resp.status == RequestStatus::Rejected) {
                degraded_rejected++;
            }
        }
        degraded_admissions = service.stats().admissionDegradations;
    }
    double degraded_completion_rate =
        degraded_submitted
            ? static_cast<double>(degraded_completed) /
                  static_cast<double>(degraded_submitted)
            : 0.0;

    // ------------------------------------------------- fleet passes
    // The same open-loop mix through a 4-shard x R=2 router, three
    // times: unhedged and hedged against the same 5%-probability
    // slow-replica stall spec (fixed seed -- the fault draws are a
    // pure function of the per-point hit index), then unhedged with a
    // deterministic mid-run shard crash to measure availability under
    // kill and failover.
    struct FleetPass
    {
        uint64_t submitted = 0, completed = 0, rejected = 0;
        std::vector<double> tierMs[numQualityTiers];
        FleetStats stats;
    };
    const double fleet_seconds = std::min(open_loop_seconds, 2.0);
    const double fleet_rps = std::max(8.0, offered_rps);
    constexpr int fleet_shards = 4, fleet_replication = 2;
    constexpr int fleet_workers_per_shard = 2;

    auto fleet_pass = [&](bool hedged, bool kill) {
        FleetPass pass;
        ShardRouterConfig fcfg;
        fcfg.numShards = fleet_shards;
        fcfg.replication = fleet_replication;
        fcfg.maxAttempts = 3;
        fcfg.shard.workers = fleet_workers_per_shard;
        fcfg.shard.tilePixels = tile;
        fcfg.shard.chunkRays = 2048;
        fcfg.shard.cacheTiles = 256;
        fcfg.hedgeRequests = hedged;
        // Above the typical render span, below the stall tail: hedges
        // fire for stalled replicas, not for healthy ones.
        fcfg.hedgeDelayMs = 120.0;
        ShardRouter router(fcfg);
        router.addScene("lego", *lego_trainer);
        router.addScene("materials", *materials_trainer);

        fault::disarmAll();
        fault::resetCounts();
        if (kill) {
            fault::Spec crash;
            crash.mode = fault::Mode::OneShot;
            crash.n = 5; // the fifth dispatch crashes its shard
            fault::arm(fault::Point::ShardCrash, crash);
        } else {
            fault::Spec stall;
            stall.mode = fault::Mode::Probability;
            stall.probability = 0.1;
            stall.seed = 42;
            stall.delayMs = 400; // the slow-replica tail to hedge away
            fault::arm(fault::Point::ShardStall, stall);
        }

        struct Flight
        {
            std::future<RenderResponse> future;
            int tier;
        };
        std::vector<Flight> flights;
        flights.reserve(
            static_cast<size_t>(fleet_rps * fleet_seconds) + 8);
        Rng mix_rng(777);
        auto start = std::chrono::steady_clock::now();
        for (uint64_t i = 0;; i++) {
            double due = static_cast<double>(i) / fleet_rps;
            if (due > fleet_seconds)
                break;
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(due));

            RenderRequest req;
            req.sceneId = mix_rng.nextU32(2) ? "materials" : "lego";
            req.camera =
                servingCamera(static_cast<int>(mix_rng.nextU32(8)),
                              image_size);
            int tier = static_cast<int>(mix_rng.nextU32(3));
            req.quality = static_cast<QualityTier>(tier);
            int size = sizes[mix_rng.nextU32(3)];
            if (size < image_size) {
                int off = static_cast<int>(
                    mix_rng.nextU32(static_cast<uint32_t>(
                        (image_size - size) / tile + 1))) * tile;
                req.roi = {off, off, size, size};
            }
            flights.push_back({router.submit(req), tier});
            pass.submitted++;
        }
        for (auto &fl : flights) {
            RenderResponse resp = fl.future.get();
            if (resp.status == RequestStatus::Ok) {
                pass.completed++;
                // totalMs is router-stamped: client-observed latency
                // including queueing, retries, failover, hedging.
                pass.tierMs[fl.tier].push_back(resp.totalMs);
            } else if (resp.status == RequestStatus::Rejected) {
                pass.rejected++;
            }
        }
        for (auto &ms : pass.tierMs)
            std::sort(ms.begin(), ms.end());
        pass.stats = router.fleetStats();
        fault::disarmAll();
        return pass;
    };

    std::fprintf(stderr, "bench_serve: fleet passes...\n");
    FleetPass fleet_unhedged = fleet_pass(false, false);
    FleetPass fleet_hedged = fleet_pass(true, false);
    FleetPass fleet_kill = fleet_pass(false, true);
    fault::resetCounts();
    double fleet_kill_completion =
        fleet_kill.submitted
            ? static_cast<double>(fleet_kill.completed) /
                  static_cast<double>(fleet_kill.submitted)
            : 0.0;

    // ------------------------------------------------ capacity phase
    // A scene working set ~8x the byte budget: 120 registered scenes
    // against room for 15, so registration itself churns the LRU and
    // a large fraction of the request mix lands on cold stubs. The
    // mix skews 70% onto 16 hot scenes (which should stay warm under
    // LRU) and 30% uniform (eviction + cold-start churn); ColdStart
    // answers are retried per their load-aware hint in bounded
    // rounds. The smoke gate wants completion >= 0.9.
    std::fprintf(stderr, "bench_serve: capacity phase...\n");
    constexpr int cap_scenes = 120;
    constexpr int cap_budget_scenes = 15;
    constexpr int cap_hot = 16;
    uint64_t cap_submitted = 0, cap_completed = 0, cap_failed = 0;
    uint64_t cap_cold_responses = 0, cap_retry_rounds = 0;
    size_t cap_scene_bytes = 0, cap_budget = 0;
    double cap_elapsed = 0.0, cap_rps = 0.0, cap_seconds = 0.0;
    std::vector<double> cold_ms;
    SceneRegistryStats cap_reg;
    ServeStats cap_serve;
    {
        const std::string lego_ckpt = "BENCH_serve_capacity_lego.bin";
        const std::string mat_ckpt =
            "BENCH_serve_capacity_materials.bin";
        if (lego_trainer->saveCheckpoint(lego_ckpt) !=
                CheckpointError::None ||
            materials_trainer->saveCheckpoint(mat_ckpt) !=
                CheckpointError::None) {
            std::fprintf(stderr,
                         "bench_serve: capacity checkpoint save "
                         "failed\n");
            return 1;
        }
        auto spec_of = [](Trainer &t) {
            SceneSpec s;
            s.field = t.field().config();
            s.renderer = t.renderer().config();
            s.useOccupancy = true;
            s.occupancy = t.occupancyGrid()->config();
            s.loadRetryBackoffMs = 1;
            return s;
        };
        SceneSpec lego_spec = spec_of(*lego_trainer);
        SceneSpec mat_spec = spec_of(*materials_trainer);

        // Probe one warm scene's accounted bytes to size the budget.
        {
            SceneRegistry probe;
            probe.registerFromCheckpoint("probe", lego_spec,
                                         lego_ckpt);
            cap_scene_bytes = probe.stats().bytesWarm;
        }
        cap_budget = cap_scene_bytes * cap_budget_scenes;
        SceneRegistryConfig rcfg;
        rcfg.memoryBudgetBytes = cap_budget;
        rcfg.maxConcurrentLoads = 2;
        SceneRegistry registry(rcfg);

        std::vector<std::string> ids;
        ids.reserve(cap_scenes);
        for (int i = 0; i < cap_scenes; i++) {
            char idbuf[32];
            std::snprintf(idbuf, sizeof(idbuf), "cap-%03d", i);
            ids.emplace_back(idbuf);
            uint64_t gen = registry.registerFromCheckpoint(
                ids.back(), (i & 1) ? mat_spec : lego_spec,
                (i & 1) ? mat_ckpt : lego_ckpt);
            if (gen == 0) {
                std::fprintf(stderr,
                             "bench_serve: capacity registration "
                             "failed at %s\n",
                             ids.back().c_str());
                return 1;
            }
        }

        RenderServiceConfig cfg;
        cfg.workers = 0; // auto
        cfg.tilePixels = tile;
        cfg.chunkRays = 2048;
        cfg.cacheTiles = 256;
        cfg.cacheBytes = 4ll << 20;
        cfg.maxQueueTiles = 8192;
        RenderService service(registry, cfg);

        struct Flight
        {
            std::future<RenderResponse> future;
            RenderRequest request;
            double firstSubmit = 0.0;
            bool sawCold = false;
            bool resubmit = false;
            bool settled = false;
        };
        cap_seconds = std::min(open_loop_seconds, 2.0);
        cap_rps = std::max(24.0, offered_rps);
        std::vector<Flight> flights;
        flights.reserve(
            static_cast<size_t>(cap_rps * cap_seconds) + 8);

        Rng mix_rng(4242);
        auto start = std::chrono::steady_clock::now();
        double c0 = now();
        for (uint64_t i = 0;; i++) {
            double due = static_cast<double>(i) / cap_rps;
            if (due > cap_seconds)
                break;
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(due));

            RenderRequest req;
            uint32_t pick = mix_rng.nextU32(10);
            size_t scene = pick < 7
                ? mix_rng.nextU32(cap_hot)
                : mix_rng.nextU32(cap_scenes);
            req.sceneId = ids[scene];
            req.camera =
                servingCamera(static_cast<int>(mix_rng.nextU32(8)),
                              image_size / 2);
            req.quality = static_cast<QualityTier>(mix_rng.nextU32(3));
            Flight fl;
            fl.request = req;
            fl.firstSubmit = now();
            fl.future = service.submit(req);
            flights.push_back(std::move(fl));
            cap_submitted++;
        }

        // Drain with bounded retry rounds: ColdStart (and Rejected)
        // responses re-submit after the largest hint seen that round.
        for (int round = 0; round < 8; round++) {
            int max_hint = 0;
            size_t pending = 0;
            for (auto &fl : flights) {
                if (fl.settled)
                    continue;
                RenderResponse resp = fl.future.get();
                switch (resp.status) {
                case RequestStatus::Ok:
                    cap_completed++;
                    fl.settled = true;
                    if (fl.sawCold)
                        cold_ms.push_back(
                            (now() - fl.firstSubmit) * 1e3);
                    break;
                case RequestStatus::ColdStart:
                    cap_cold_responses++;
                    fl.sawCold = true;
                    fl.resubmit = true;
                    pending++;
                    max_hint =
                        std::max(max_hint, resp.retryAfterMs);
                    break;
                case RequestStatus::Rejected:
                    fl.resubmit = true;
                    pending++;
                    max_hint =
                        std::max(max_hint, resp.retryAfterMs);
                    break;
                default:
                    cap_failed++;
                    fl.settled = true;
                    break;
                }
            }
            if (pending == 0)
                break;
            cap_retry_rounds++;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(max_hint, 100)));
            for (auto &fl : flights) {
                if (fl.settled || !fl.resubmit)
                    continue;
                fl.resubmit = false;
                fl.future = service.submit(fl.request);
            }
        }
        for (auto &fl : flights)
            if (!fl.settled)
                cap_failed++;
        cap_elapsed = now() - c0;
        cap_serve = service.stats();
        cap_reg = registry.stats();
        std::remove(lego_ckpt.c_str());
        std::remove(mat_ckpt.c_str());
    }
    std::sort(cold_ms.begin(), cold_ms.end());
    double capacity_completion =
        cap_submitted ? static_cast<double>(cap_completed) /
                            static_cast<double>(cap_submitted)
                      : 0.0;
    double cold_start_p99_ms = percentile(cold_ms, 99);

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
            if (resp.status != RequestStatus::Ok) {
                std::fprintf(stderr,
                             "bench_serve: orbit render failed\n");
                return 1;
            }
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
    // Cost of the telemetry layer on the hot serving path, measured
    // closed-loop with enabled/disabled blocks interleaved (best-of
    // per arm shaves scheduler noise), plus a fidelity cross-check:
    // the mergeable histogram's percentiles against the exact
    // sort-based tracker, required to agree within one bucket width.
    std::fprintf(stderr, "bench_serve: telemetry phase...\n");
    double telem_enabled_fps = 0.0, telem_disabled_fps = 0.0;
    double telem_overhead = 0.0;
    size_t telem_samples = 0;
    double telem_hist_p[3] = {0.0, 0.0, 0.0};
    double telem_exact_p[3] = {0.0, 0.0, 0.0};
    bool telem_within_one_bucket = true;
    uint64_t telem_traces = 0;
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
        service.render(req); // warm

        obs::LatencyHistogram hist;
        PercentileTracker exact;
        const uint64_t traces0 =
            obs::TraceRing::global().completedCount();

        // Strictly alternating enabled/disabled frames spread both
        // arms evenly across any thermal or scheduler drift; the
        // minimum per-frame latency of each arm is then compared.
        // Min-latency is the lowest-variance paired estimator here:
        // scheduler noise only ever inflates a frame, while the
        // telemetry cost (a few allocations and mutex hops per
        // request) shifts the whole distribution, floor included.
        const int frames_per_arm = 40;
        std::vector<double> arm_ms[2];
        arm_ms[0].reserve(frames_per_arm);
        arm_ms[1].reserve(frames_per_arm);
        for (int i = 0; i < 2 * frames_per_arm; i++) {
            const bool on = (i % 2) != 0;
            obs::setEnabled(on);
            const double f0 = now();
            RenderResponse resp = service.render(req);
            const double ms = (now() - f0) * 1e3;
            obs::setEnabled(true);
            if (resp.status != RequestStatus::Ok) {
                std::fprintf(stderr,
                             "bench_serve: telemetry render failed\n");
                std::exit(1);
            }
            arm_ms[on ? 1 : 0].push_back(ms);
            if (on) {
                hist.record(ms);
                exact.add(ms);
            }
        }
        const double min_on =
            *std::min_element(arm_ms[1].begin(), arm_ms[1].end());
        const double min_off =
            *std::min_element(arm_ms[0].begin(), arm_ms[0].end());
        telem_enabled_fps = min_on > 0.0 ? 1e3 / min_on : 0.0;
        telem_disabled_fps = min_off > 0.0 ? 1e3 / min_off : 0.0;
        telem_overhead =
            min_off > 0.0 ? std::max(0.0, min_on / min_off - 1.0)
                          : 0.0;
        telem_traces =
            obs::TraceRing::global().completedCount() - traces0;

        obs::HistogramSnapshot snap = hist.snapshot();
        telem_samples = exact.count();
        // Under -DINSTANT3D_DISABLE_TELEMETRY nothing records; the
        // fidelity check is then vacuous rather than failing.
        if (snap.count > 0) {
            const double ps[3] = {50.0, 95.0, 99.0};
            for (int i = 0; i < 3; i++) {
                telem_exact_p[i] = exact.percentile(ps[i]);
                telem_hist_p[i] = snap.percentile(ps[i]);
                const int b = obs::LatencyHistogram::bucketIndex(
                    telem_exact_p[i]);
                const double width =
                    obs::LatencyHistogram::bucketRight(b) -
                    obs::LatencyHistogram::bucketLeft(b);
                if (std::abs(telem_hist_p[i] - telem_exact_p[i]) >
                    width)
                    telem_within_one_bucket = false;
            }
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
        "  \"scenes\": 2,\n"
        "  \"image\": {\"width\": %d, \"height\": %d, \"tile\": %d},\n"
        "  \"baseline_renderimage_1t\": {\"frames\": %d, "
        "\"seconds\": %.4f, \"rays_per_s\": %.1f},\n"
        "  \"served_closed_loop_1t\": {\"rays_per_s\": %.1f, "
        "\"chunks\": %llu, \"cross_request_chunks\": %llu},\n",
        std::thread::hardware_concurrency(), image_size, image_size,
        tile, base_frames, base_seconds, base_rays_per_s,
        served_rays_per_s,
        static_cast<unsigned long long>(closed_chunks),
        static_cast<unsigned long long>(closed_cross));
    json += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"open_loop\": {\n"
        "    \"workers\": %d,\n"
        "    \"offered_rps\": %.2f,\n"
        "    \"duration_s\": %.3f,\n"
        "    \"submitted\": %llu,\n"
        "    \"completed\": %llu,\n"
        "    \"rejected\": %llu,\n"
        "    \"deadline_exceeded\": %llu,\n"
        "    \"throughput_rps\": %.2f,\n"
        "    \"tiles_rendered\": %llu,\n"
        "    \"tiles_from_cache\": %llu,\n"
        "    \"cross_request_chunks\": %llu,\n"
        "    \"queue_depth_highwater\": %llu,\n"
        "    \"latency_ms\": {\n"
        "      \"all\": {\"count\": %zu, \"p50\": %.3f, "
        "\"p95\": %.3f, \"p99\": %.3f},\n",
        open_workers, offered_rps, open_elapsed,
        static_cast<unsigned long long>(submitted),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(expired),
        completed / (open_elapsed > 0 ? open_elapsed : 1.0),
        static_cast<unsigned long long>(open_stats.tilesRendered),
        static_cast<unsigned long long>(open_stats.tilesFromCache),
        static_cast<unsigned long long>(open_stats.crossRequestChunks),
        static_cast<unsigned long long>(open_stats.queueDepthHighwater),
        all_ms.size(), percentile(all_ms, 50), percentile(all_ms, 95),
        percentile(all_ms, 99));
    json += buf;
    for (int t = 0; t < numQualityTiers; t++) {
        std::snprintf(
            buf, sizeof(buf),
            "      \"%s\": {\"count\": %zu, \"p50\": %.3f, "
            "\"p95\": %.3f, \"p99\": %.3f}%s\n",
            tiers[t].name, tiers[t].ms.size(),
            percentile(tiers[t].ms, 50), percentile(tiers[t].ms, 95),
            percentile(tiers[t].ms, 99),
            t + 1 < numQualityTiers ? "," : "");
        json += buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "    },\n"
        "    \"cache\": {\"hits\": %llu, \"misses\": %llu, "
        "\"insertions\": %llu, \"evictions\": %llu, "
        "\"entries\": %zu}\n"
        "  },\n"
        "  \"overload\": {\"submitted\": %llu, \"rejected\": %llu, "
        "\"retry_after_ms\": 5},\n"
        "  \"overload_degraded\": {\n"
        "    \"submitted\": %llu,\n"
        "    \"completed\": %llu,\n"
        "    \"rejected\": %llu,\n"
        "    \"served_full\": %llu,\n"
        "    \"served_half\": %llu,\n"
        "    \"served_preview\": %llu,\n"
        "    \"admission_degradations\": %llu,\n"
        "    \"completion_rate\": %.3f\n"
        "  },\n",
        static_cast<unsigned long long>(open_cache.hits),
        static_cast<unsigned long long>(open_cache.misses),
        static_cast<unsigned long long>(open_cache.insertions),
        static_cast<unsigned long long>(open_cache.evictions),
        open_cache.entries,
        static_cast<unsigned long long>(overload_submitted),
        static_cast<unsigned long long>(overload_rejected),
        static_cast<unsigned long long>(degraded_submitted),
        static_cast<unsigned long long>(degraded_completed),
        static_cast<unsigned long long>(degraded_rejected),
        static_cast<unsigned long long>(degraded_per_tier[0]),
        static_cast<unsigned long long>(degraded_per_tier[1]),
        static_cast<unsigned long long>(degraded_per_tier[2]),
        static_cast<unsigned long long>(degraded_admissions),
        degraded_completion_rate);
    json += buf;

    // Fleet block: per-tier latency with and without hedging over the
    // same stall schedule, plus availability under the kill pass.
    const char *tier_names[numQualityTiers] = {"full", "half",
                                               "preview"};
    auto fleet_block = [&](const char *name, const FleetPass &pass,
                           bool last) {
        std::snprintf(
            buf, sizeof(buf),
            "    \"%s\": {\n"
            "      \"submitted\": %llu,\n"
            "      \"completed\": %llu,\n"
            "      \"rejected\": %llu,\n"
            "      \"failovers\": %llu,\n"
            "      \"retries\": %llu,\n"
            "      \"hedges_issued\": %llu,\n"
            "      \"hedges_won\": %llu,\n"
            "      \"shards_crashed\": %llu,\n"
            "      \"latency_ms\": {\n",
            name, static_cast<unsigned long long>(pass.submitted),
            static_cast<unsigned long long>(pass.completed),
            static_cast<unsigned long long>(pass.rejected),
            static_cast<unsigned long long>(pass.stats.failovers),
            static_cast<unsigned long long>(pass.stats.retries),
            static_cast<unsigned long long>(pass.stats.hedgesIssued),
            static_cast<unsigned long long>(pass.stats.hedgesWon),
            static_cast<unsigned long long>(pass.stats.shardsCrashed));
        json += buf;
        for (int t = 0; t < numQualityTiers; t++) {
            std::snprintf(
                buf, sizeof(buf),
                "        \"%s\": {\"count\": %zu, \"p50\": %.3f, "
                "\"p95\": %.3f, \"p99\": %.3f}%s\n",
                tier_names[t], pass.tierMs[t].size(),
                percentile(pass.tierMs[t], 50),
                percentile(pass.tierMs[t], 95),
                percentile(pass.tierMs[t], 99),
                t + 1 < numQualityTiers ? "," : "");
            json += buf;
        }
        json += "      }\n";
        json += last ? "    }\n" : "    },\n";
    };
    std::snprintf(
        buf, sizeof(buf),
        "  \"fleet\": {\n"
        "    \"shards\": %d,\n"
        "    \"replication\": %d,\n"
        "    \"workers_per_shard\": %d,\n"
        "    \"offered_rps\": %.2f,\n"
        "    \"duration_s\": %.3f,\n"
        "    \"kill_availability\": %.3f,\n",
        fleet_shards, fleet_replication, fleet_workers_per_shard,
        fleet_rps, fleet_seconds, fleet_kill_completion);
    json += buf;
    fleet_block("unhedged", fleet_unhedged, false);
    fleet_block("hedged", fleet_hedged, false);
    fleet_block("kill", fleet_kill, true);
    json += "  },\n";

    // Capacity block: the over-budget scene sweep with eviction and
    // cold-start churn. capacity_completion and cold_start_p99_ms
    // feed the smoke gate.
    std::snprintf(
        buf, sizeof(buf),
        "  \"capacity\": {\n"
        "    \"scenes\": %d,\n"
        "    \"hot_scenes\": %d,\n"
        "    \"scene_bytes\": %zu,\n"
        "    \"budget_bytes\": %zu,\n"
        "    \"overcommit\": %.2f,\n"
        "    \"offered_rps\": %.2f,\n"
        "    \"duration_s\": %.3f,\n"
        "    \"elapsed_s\": %.3f,\n"
        "    \"submitted\": %llu,\n"
        "    \"completed\": %llu,\n"
        "    \"failed\": %llu,\n"
        "    \"cold_start_responses\": %llu,\n"
        "    \"retry_rounds\": %llu,\n"
        "    \"completion\": %.3f,\n",
        cap_scenes, cap_hot, cap_scene_bytes, cap_budget,
        cap_budget ? static_cast<double>(cap_scene_bytes) *
                         cap_scenes / static_cast<double>(cap_budget)
                   : 0.0,
        cap_rps, cap_seconds, cap_elapsed,
        static_cast<unsigned long long>(cap_submitted),
        static_cast<unsigned long long>(cap_completed),
        static_cast<unsigned long long>(cap_failed),
        static_cast<unsigned long long>(cap_cold_responses),
        static_cast<unsigned long long>(cap_retry_rounds),
        capacity_completion);
    json += buf;
    std::snprintf(
        buf, sizeof(buf),
        "    \"cold_start_latency_ms\": {\"count\": %zu, "
        "\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n"
        "    \"service\": {\"cold_start\": %llu, "
        "\"completed\": %llu},\n"
        "    \"registry\": {\n"
        "      \"warm\": %zu,\n"
        "      \"cold\": %zu,\n"
        "      \"bytes_warm\": %zu,\n"
        "      \"evictions\": %llu,\n"
        "      \"evictions_while_referenced\": %llu,\n"
        "      \"cold_loads_started\": %llu,\n"
        "      \"reloads\": %llu,\n"
        "      \"single_flight_joins\": %llu,\n"
        "      \"load_failures\": %llu,\n"
        "      \"ewma_load_ms\": %.3f\n"
        "    }\n"
        "  },\n",
        cold_ms.size(), percentile(cold_ms, 50),
        percentile(cold_ms, 95), cold_start_p99_ms,
        static_cast<unsigned long long>(cap_serve.requestsColdStart),
        static_cast<unsigned long long>(cap_serve.requestsCompleted),
        cap_reg.warm, cap_reg.cold, cap_reg.bytesWarm,
        static_cast<unsigned long long>(cap_reg.evictions),
        static_cast<unsigned long long>(
            cap_reg.evictionsWhileReferenced),
        static_cast<unsigned long long>(cap_reg.coldLoadsStarted),
        static_cast<unsigned long long>(cap_reg.reloads),
        static_cast<unsigned long long>(cap_reg.singleFlightJoins),
        static_cast<unsigned long long>(cap_reg.loadFailures),
        cap_reg.ewmaLoadMs);
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

    // Telemetry block: layer overhead on the closed-loop path and
    // histogram-vs-exact percentile fidelity. telemetry_overhead
    // feeds the smoke gate (<= 2%).
    std::snprintf(
        buf, sizeof(buf),
        "  \"telemetry\": {\n"
        "    \"enabled_fps\": %.2f,\n"
        "    \"disabled_fps\": %.2f,\n"
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
        "  },\n",
        telem_enabled_fps, telem_disabled_fps, telem_overhead,
        static_cast<unsigned long long>(telem_traces),
        telem_samples, telem_within_one_bucket ? "true" : "false",
        telem_hist_p[0], telem_hist_p[1], telem_hist_p[2],
        telem_exact_p[0], telem_exact_p[1], telem_exact_p[2]);
    json += buf;

    json += "  \"fault_points\": {\n";
    for (int p = 0; p < fault::numPoints; p++) {
        auto point = static_cast<fault::Point>(p);
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\"hits\": %llu, \"fires\": %llu}%s\n",
                      fault::pointName(point),
                      static_cast<unsigned long long>(
                          fault::hitCount(point)),
                      static_cast<unsigned long long>(
                          fault::fireCount(point)),
                      p + 1 < fault::numPoints ? "," : "");
        json += buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "  },\n"
        "  \"speedups\": {\n"
        "    \"served_vs_renderImage_1t\": %.3f,\n"
        "    \"overload_degraded_completion\": %.3f,\n"
        "    \"fleet_kill_completion\": %.3f,\n"
        "    \"capacity_completion\": %.3f,\n"
        "    \"cold_start_p99_ms\": %.3f,\n"
        "    \"orbit_preview_hit_rate\": %.3f,\n"
        "    \"prefetch_hit_rate\": %.3f,\n"
        "    \"prefetch_waste\": %llu\n"
        "  }\n"
        "}\n",
        served_vs_render_image, degraded_completion_rate,
        fleet_kill_completion, capacity_completion,
        cold_start_p99_ms, orbit_hit_rate, prefetch_hit_rate,
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
