/**
 * @file
 * Render-serving demo: train two small scenes, register them with a
 * SceneRegistry, fire a concurrent mixed request load (two scenes,
 * three quality tiers, full images and tiles) at a RenderService from
 * several client threads, then overload a degradation-enabled service
 * with a burst and show the served-tier histogram, run a sharded fleet
 * (4 shards x R=2) through a mid-load shard crash to show failover and
 * breaker counters, round-trip a scene through a crash-safe checkpoint
 * (including the typed error a corrupt file produces), and print the
 * service + cache stats block.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/serve_demo [iterations] [requests_per_client]
 */

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "nerf/serialize.hh"
#include "nerf/trainer.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "scene/scene.hh"
#include "serve/render_service.hh"
#include "serve/scene_registry.hh"
#include "serve/shard_router.hh"

using namespace instant3d;

namespace {

Dataset
demoDataset(const std::string &scene_name)
{
    DatasetConfig dcfg;
    dcfg.numTrainViews = 6;
    dcfg.numTestViews = 2;
    dcfg.imageWidth = 20;
    dcfg.imageHeight = 20;
    dcfg.renderOpts.numSteps = 64;
    return makeDataset(makeSyntheticScene(scene_name), dcfg);
}

std::unique_ptr<Trainer>
demoTrainer(const Dataset &dataset, int iterations)
{
    HashEncodingConfig grid;
    grid.numLevels = 4;
    grid.featuresPerEntry = 2;
    grid.log2TableSize = 12;
    grid.baseResolution = 8;
    grid.growthFactor = 1.6f;
    FieldConfig fcfg = FieldConfig::instant3dDefault(grid);
    fcfg.hiddenDim = 16;

    TrainConfig tcfg;
    tcfg.raysPerBatch = 96;
    tcfg.samplesPerRay = 32;
    tcfg.adam.lr = 1e-2f;
    tcfg.useOccupancyGrid = true;
    tcfg.occupancyUpdatePeriod = 16;

    auto trainer = std::make_unique<Trainer>(dataset, fcfg, tcfg);
    for (int i = 0; i < iterations; i++)
        trainer->trainIteration();
    return trainer;
}

CameraSpec
demoCamera(int view)
{
    static const float eyes[][3] = {
        {1.25f, 0.5f, 1.0f}, {0.5f, 1.25f, 1.0f},
        {-0.25f, 0.5f, 1.0f}, {1.0f, 1.0f, 1.25f}};
    const float *e = eyes[view % 4];
    CameraSpec spec;
    spec.eye = {e[0], e[1], e[2]};
    spec.target = {0.5f, 0.5f, 0.5f};
    spec.up = {0.0f, 0.0f, 1.0f};
    spec.vfovDeg = 45.0f;
    spec.width = 48;
    spec.height = 48;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    int iterations = argc > 1 ? std::atoi(argv[1]) : 100;
    int per_client = argc > 2 ? std::atoi(argv[2]) : 8;

    // 1. Train two scenes and publish them.
    std::printf("training 2 scenes (%d iterations each)...\n",
                iterations);
    Dataset lego = demoDataset("lego");
    Dataset materials = demoDataset("materials");
    auto lego_trainer = demoTrainer(lego, iterations);
    auto materials_trainer = demoTrainer(materials, iterations);

    SceneRegistry registry;
    registry.registerFromTrainer("lego", *lego_trainer);
    registry.registerFromTrainer("materials", *materials_trainer);
    std::printf("registered %zu scenes\n", registry.size());

    // 2. Serve a concurrent mixed load: 4 clients x full/tile
    //    requests over both scenes and all three quality tiers.
    RenderServiceConfig cfg;
    cfg.tilePixels = 16;
    cfg.chunkRays = 2048;
    cfg.cacheTiles = 128;
    RenderService service(registry, cfg);
    std::printf("serving with %d worker(s)\n", service.workerCount());

    std::vector<std::thread> clients;
    std::vector<int> ok_counts(4, 0);
    for (int c = 0; c < 4; c++) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < per_client; i++) {
                RenderRequest req;
                req.sceneId = (c + i) % 2 ? "materials" : "lego";
                req.camera = demoCamera(i);
                req.quality =
                    static_cast<QualityTier>((c + i) % 3);
                if (i % 3 == 2)
                    req.roi = {16, 16, 16, 16};
                if (service.render(req).status == RequestStatus::Ok)
                    ok_counts[c]++;
            }
        });
    }
    for (auto &t : clients)
        t.join();

    int ok_total = 0;
    for (int c = 0; c < 4; c++)
        ok_total += ok_counts[c];
    std::printf("%d/%d requests served ok\n", ok_total,
                4 * per_client);

    // 3. Overload a degradation-enabled service: one worker, an
    //    admission window of exactly one 9-tile frame, and a burst of
    //    24 full-frame requests. Instead of shedding the burst, the
    //    service serves the overflow at lower quality tiers.
    std::printf("--- overload burst (degradation on) ---\n");
    {
        RenderServiceConfig ocfg;
        ocfg.workers = 1;
        ocfg.tilePixels = 16;
        ocfg.maxQueueTiles = 9;
        ocfg.degradeUnderLoad = true;
        ocfg.maxQueueTilesDegraded = 512;
        RenderService overload(registry, ocfg);

        std::vector<std::future<RenderResponse>> burst;
        for (int i = 0; i < 24; i++) {
            RenderRequest req;
            req.sceneId = "lego";
            req.camera = demoCamera(i);
            burst.push_back(overload.submit(req));
        }
        int tier_counts[numQualityTiers] = {0, 0, 0};
        int burst_rejected = 0;
        for (auto &f : burst) {
            RenderResponse resp = f.get();
            if (resp.status == RequestStatus::Ok)
                tier_counts[static_cast<int>(resp.servedQuality)]++;
            else if (resp.status == RequestStatus::Rejected)
                burst_rejected++;
        }
        ServeStats os = overload.stats();
        std::printf("served full %d, half %d, preview %d; "
                    "rejected %d\n",
                    tier_counts[0], tier_counts[1], tier_counts[2],
                    burst_rejected);
        std::printf("degraded requests: %llu "
                    "(admission %llu, deadline %llu)\n",
                    static_cast<unsigned long long>(
                        os.requestsDegraded),
                    static_cast<unsigned long long>(
                        os.admissionDegradations),
                    static_cast<unsigned long long>(
                        os.deadlineDegradations));
    }

    // 4. Fault-tolerant fleet: both scenes placed on 2 of 4 shards by
    //    rendezvous hashing, a mixed load in flight, and one shard
    //    crashed mid-run via the deterministic `shard.crash` fault
    //    point. Every request is expected to complete by failing over
    //    to the surviving replica.
    std::printf("--- sharded fleet (kill one shard mid-load) ---\n");
    {
        ShardRouterConfig rcfg;
        rcfg.numShards = 4;
        rcfg.replication = 2;
        rcfg.shard.workers = 2;
        rcfg.shard.tilePixels = 16;
        rcfg.shard.chunkRays = 2048;
        rcfg.shard.cacheTiles = 128;
        ShardRouter router(rcfg);
        router.addScene("lego", *lego_trainer);
        router.addScene("materials", *materials_trainer);
        for (const char *id : {"lego", "materials"}) {
            std::printf("scene %-9s -> shards [", id);
            bool first = true;
            for (int s : router.placement(id)) {
                std::printf("%s%d", first ? "" : ", ", s);
                first = false;
            }
            std::printf("]\n");
        }

        // The eighth router->shard dispatch crashes its shard.
        fault::Spec crash;
        crash.mode = fault::Mode::OneShot;
        crash.n = 8;
        fault::arm(fault::Point::ShardCrash, crash);

        std::vector<std::future<RenderResponse>> flights;
        for (int i = 0; i < 32; i++) {
            RenderRequest req;
            req.sceneId = i % 2 ? "materials" : "lego";
            req.camera = demoCamera(i);
            req.quality = static_cast<QualityTier>(i % 3);
            flights.push_back(router.submit(req));
        }
        int fleet_status[4] = {0, 0, 0, 0}; // ok/rejected/deadline/other
        for (auto &f : flights) {
            switch (f.get().status) {
            case RequestStatus::Ok: fleet_status[0]++; break;
            case RequestStatus::Rejected: fleet_status[1]++; break;
            case RequestStatus::DeadlineExceeded:
                fleet_status[2]++;
                break;
            default: fleet_status[3]++; break;
            }
        }
        fault::disarmAll();

        std::printf("completed: %d ok, %d rejected, %d expired, "
                    "%d other (of %d)\n",
                    fleet_status[0], fleet_status[1], fleet_status[2],
                    fleet_status[3], 32);
        FleetStats fs = router.fleetStats();
        std::printf("fleet: %llu routed, %llu failovers, "
                    "%llu retries, %llu crashed, %llu hedges\n",
                    static_cast<unsigned long long>(fs.requestsRouted),
                    static_cast<unsigned long long>(fs.failovers),
                    static_cast<unsigned long long>(fs.retries),
                    static_cast<unsigned long long>(fs.shardsCrashed),
                    static_cast<unsigned long long>(fs.hedgesIssued));
        for (size_t s = 0; s < fs.shards.size(); s++) {
            const ShardStats &ss = fs.shards[s];
            std::printf("shard %zu: %-5s breaker=%-9s scenes=%zu "
                        "dispatched=%llu served=%llu failed=%llu\n",
                        s, ss.alive ? "alive" : "dead",
                        breakerStateName(ss.breaker), ss.scenes,
                        static_cast<unsigned long long>(ss.dispatched),
                        static_cast<unsigned long long>(ss.served),
                        static_cast<unsigned long long>(ss.failed));
        }
    }

    // 5. Crash-safe checkpoint round trip: save (atomic tmp+rename,
    //    CRC-sealed), republish through the registry, and show the
    //    typed error a truncated copy produces.
    std::printf("--- checkpoint round trip ---\n");
    const std::string ckpt = "serve_demo_ckpt.bin";
    CheckpointError err = lego_trainer->saveCheckpoint(ckpt);
    std::printf("saveCheckpoint: %s\n", checkpointErrorName(err));
    if (err == CheckpointError::None) {
        SceneSpec spec;
        spec.field = lego_trainer->field().config();
        spec.renderer = lego_trainer->renderer().config();
        spec.useOccupancy = true;
        spec.occupancy = lego_trainer->occupancyGrid()->config();
        uint64_t gen =
            registry.registerFromCheckpoint("lego_restored", spec,
                                            ckpt);
        std::printf("registerFromCheckpoint: generation %llu\n",
                    static_cast<unsigned long long>(gen));

        // A corrupt copy is rejected with a typed error, not served.
        const std::string bad = "serve_demo_ckpt_bad.bin";
        if (std::FILE *in = std::fopen(ckpt.c_str(), "rb")) {
            std::FILE *out = std::fopen(bad.c_str(), "wb");
            for (int i = 0; i < 64; i++) // keep only the first 64 B
                std::fputc(std::fgetc(in), out);
            std::fclose(out);
            std::fclose(in);
            NerfField probe(spec.field, spec.seed);
            CheckpointError bad_err =
                loadCheckpoint(probe, nullptr, bad);
            std::printf("truncated copy rejected: %s\n",
                        checkpointErrorName(bad_err));
            std::remove(bad.c_str());
        }
        std::remove(ckpt.c_str());
    }

    // 6. Capacity & eviction: eight checkpoint-backed scenes against
    //    a byte budget sized for three. Registration churns the LRU
    //    into cold stubs; a request for a cold scene answers
    //    ColdStart (single-flight reload begun), and the blocking
    //    render() absorbs it -- wait for warm, resubmit, same bits.
    std::printf("--- capacity: 8 scenes, budget for 3 ---\n");
    const std::string cap_ckpt = "serve_demo_capacity_ckpt.bin";
    if (lego_trainer->saveCheckpoint(cap_ckpt) ==
        CheckpointError::None) {
        SceneSpec spec;
        spec.field = lego_trainer->field().config();
        spec.renderer = lego_trainer->renderer().config();
        spec.useOccupancy = true;
        spec.occupancy = lego_trainer->occupancyGrid()->config();

        size_t scene_bytes = 0;
        {
            SceneRegistry probe;
            probe.registerFromCheckpoint("probe", spec, cap_ckpt);
            scene_bytes = probe.stats().bytesWarm;
        }
        SceneRegistryConfig rcfg;
        rcfg.memoryBudgetBytes = 3 * scene_bytes + scene_bytes / 2;
        rcfg.maxConcurrentLoads = 2;
        SceneRegistry budgeted(rcfg);
        for (int i = 0; i < 8; i++)
            budgeted.registerFromCheckpoint(
                "cap-" + std::to_string(i), spec, cap_ckpt);

        SceneRegistryStats rs = budgeted.stats();
        std::printf("registered %zu scenes (%zu KiB each) against a "
                    "%zu KiB budget: %zu warm, %zu cold, "
                    "%llu evictions\n",
                    rs.scenes, scene_bytes / 1024,
                    rcfg.memoryBudgetBytes / 1024, rs.warm, rs.cold,
                    static_cast<unsigned long long>(rs.evictions));

        RenderServiceConfig ccfg;
        ccfg.workers = 2;
        ccfg.tilePixels = 16;
        RenderService cold_service(budgeted, ccfg);
        RenderRequest req;
        req.sceneId = "cap-0"; // the first-registered scene: LRU, cold
        req.camera = demoCamera(0);
        RenderResponse first = cold_service.submit(req).get();
        std::printf("cold request: %s (retry after %d ms)\n",
                    first.status == RequestStatus::ColdStart
                        ? "ColdStart"
                        : "unexpected status",
                    first.retryAfterMs);
        RenderResponse warmed = cold_service.render(req);
        rs = budgeted.stats();
        std::printf("blocking render: %s (cold loads %llu, reloads "
                    "%llu, joins %llu, last load %.2f ms)\n",
                    warmed.status == RequestStatus::Ok ? "ok"
                                                       : "failed",
                    static_cast<unsigned long long>(
                        rs.coldLoadsStarted),
                    static_cast<unsigned long long>(rs.reloads),
                    static_cast<unsigned long long>(
                        rs.singleFlightJoins),
                    rs.lastLoadMs);
        std::remove(cap_ckpt.c_str());
    }

    // 7. Observability: the slow-request log and the telemetry page.
    //    A small fleet serves requests while the `shard.stall` fault
    //    point delays every third dispatch far past the trace ring's
    //    slow threshold; each stalled request dumps its per-span
    //    breakdown through warn() at completion, and the slowest
    //    ringed trace is re-printed here, alongside an excerpt of the
    //    Prometheus-style metrics page and the Perfetto export size.
    std::printf("--- slow-request tracing (stall fault armed) ---\n");
    {
        obs::TraceRing &ring = obs::TraceRing::global();
        ring.clear();
        ring.setSlowThresholdMs(25.0);

        ShardRouterConfig rcfg;
        rcfg.numShards = 2;
        rcfg.replication = 1; // no failover: the stall must be felt
        rcfg.shard.workers = 2;
        rcfg.shard.tilePixels = 16;
        rcfg.shard.cacheTiles = 0;
        ShardRouter slow_router(rcfg);
        slow_router.addScene("lego", *lego_trainer);

        fault::Spec stall;
        stall.mode = fault::Mode::EveryN;
        stall.n = 3;
        stall.delayMs = 60;
        fault::arm(fault::Point::ShardStall, stall);
        for (int i = 0; i < 6; i++) {
            RenderRequest req;
            req.sceneId = "lego";
            req.camera = demoCamera(i);
            slow_router.render(req);
        }
        fault::disarmAll();

        std::printf("slow threshold %.0f ms: %llu traces completed, "
                    "%llu slow\n",
                    ring.slowThresholdMs(),
                    static_cast<unsigned long long>(
                        ring.completedCount()),
                    static_cast<unsigned long long>(ring.slowCount()));
        obs::RequestTracePtr slowest;
        for (const auto &t : ring.traces())
            if (!slowest || t->totalMs() > slowest->totalMs())
                slowest = t;
        if (slowest)
            std::printf("slowest request breakdown:\n%s",
                        slowest->summary().c_str());
        ring.setSlowThresholdMs(0.0);

        std::string page = obs::MetricsRegistry::global()
                               .snapshot()
                               .prometheusText();
        std::printf("--- metrics page (first 10 lines) ---\n");
        int lines = 0;
        size_t pos = 0;
        while (lines < 10 && pos < page.size()) {
            size_t nl = page.find('\n', pos);
            if (nl == std::string::npos)
                nl = page.size();
            std::printf("%.*s\n", static_cast<int>(nl - pos),
                        page.c_str() + pos);
            pos = nl + 1;
            lines++;
        }
        std::printf("chrome trace export: %zu bytes "
                    "(load in ui.perfetto.dev)\n",
                    ring.exportChromeTrace().size());
    }

    // 8. The stats block.
    ServeStats s = service.stats();
    TileCache::Stats cs = service.cacheStats();
    std::printf("--- service stats ---\n");
    std::printf("requests: accepted %llu, completed %llu, "
                "rejected %llu, degraded %llu\n",
                static_cast<unsigned long long>(s.requestsAccepted),
                static_cast<unsigned long long>(s.requestsCompleted),
                static_cast<unsigned long long>(s.requestsRejected),
                static_cast<unsigned long long>(s.requestsDegraded));
    std::printf("served per tier: full %llu, half %llu, "
                "preview %llu\n",
                static_cast<unsigned long long>(
                    s.requestsServedPerTier[0]),
                static_cast<unsigned long long>(
                    s.requestsServedPerTier[1]),
                static_cast<unsigned long long>(
                    s.requestsServedPerTier[2]));
    std::printf("tiles: rendered %llu, from cache %llu\n",
                static_cast<unsigned long long>(s.tilesRendered),
                static_cast<unsigned long long>(s.tilesFromCache));
    std::printf("rays rendered: %llu in %llu chunks "
                "(%llu cross-request)\n",
                static_cast<unsigned long long>(s.raysRendered),
                static_cast<unsigned long long>(s.chunksRendered),
                static_cast<unsigned long long>(s.crossRequestChunks));
    std::printf("queue depth highwater: %llu tiles\n",
                static_cast<unsigned long long>(
                    s.queueDepthHighwater));
    std::printf("cache: %llu hits / %llu misses, %zu entries\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                cs.entries);
    return 0;
}
