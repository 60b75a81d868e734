/**
 * @file
 * Shard-router fleet tests. The load-bearing contracts:
 *
 *  - A Full-tier pixel served through the router is bit-identical to
 *    Trainer::renderImage regardless of worker count, replica choice,
 *    failover history, hedging, or drain timing (replicas share one
 *    canonical ServedScene, so this holds by construction -- these
 *    tests pin it end to end).
 *  - Under a deterministic kill schedule (`shard.crash`), every
 *    request still completes via failover.
 *  - The circuit breaker walks Closed -> Open -> HalfOpen -> Closed.
 *  - A hedged request has exactly one winner.
 *  - A graceful drain fails no admitted request.
 *  - The router's timer enforces the deadline and the shard timeout
 *    while a dispatch is outstanding, and no router thread caps how
 *    many requests are in flight.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"
#include "serve/shard_router.hh"

namespace instant3d {
namespace {

/** Disarm + zero all fault points on entry and exit of a test. */
struct FaultGuard
{
    FaultGuard()
    {
        fault::disarmAll();
        fault::resetCounts();
    }
    ~FaultGuard()
    {
        fault::disarmAll();
        fault::resetCounts();
    }
};

Dataset
tinyDataset(const std::string &scene_name)
{
    auto scene = makeSyntheticScene(scene_name);
    DatasetConfig cfg;
    cfg.numTrainViews = 6;
    cfg.numTestViews = 2;
    cfg.imageWidth = 20;
    cfg.imageHeight = 20;
    cfg.renderOpts.numSteps = 64;
    return makeDataset(scene, cfg);
}

FieldConfig
tinyField()
{
    HashEncodingConfig grid;
    grid.numLevels = 4;
    grid.featuresPerEntry = 2;
    grid.log2TableSize = 12;
    grid.baseResolution = 8;
    grid.growthFactor = 1.6f;
    FieldConfig cfg = FieldConfig::instant3dDefault(grid);
    cfg.hiddenDim = 16;
    return cfg;
}

TrainConfig
tinyTrain()
{
    TrainConfig cfg;
    cfg.raysPerBatch = 96;
    cfg.samplesPerRay = 32;
    cfg.adam.lr = 1e-2f;
    cfg.useOccupancyGrid = true;
    cfg.occupancyUpdatePeriod = 8;
    return cfg;
}

/** Floats on the 1/4096 lattice: quantized() is the identity. */
CameraSpec
latticeCamera(int width = 40, int height = 40)
{
    CameraSpec spec;
    spec.eye = {1.25f, 0.5f, 1.0f};
    spec.target = {0.5f, 0.5f, 0.5f};
    spec.up = {0.0f, 0.0f, 1.0f};
    spec.vfovDeg = 45.0f;
    spec.width = width;
    spec.height = height;
    return spec;
}

void
expectImagesEqual(const Image &a, const Image &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    for (int row = 0; row < a.height(); row++) {
        for (int col = 0; col < a.width(); col++) {
            const Vec3 &pa = a.at(col, row);
            const Vec3 &pb = b.at(col, row);
            ASSERT_EQ(pa.x, pb.x) << "pixel (" << col << "," << row
                                  << ")";
            ASSERT_EQ(pa.y, pb.y);
            ASSERT_EQ(pa.z, pb.z);
        }
    }
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

ShardRouterConfig
fleetConfig(int num_shards = 4, int replication = 2)
{
    ShardRouterConfig cfg;
    cfg.numShards = num_shards;
    cfg.replication = replication;
    cfg.shard.workers = 2;
    cfg.shard.tilePixels = 16;
    cfg.shard.chunkRays = 512;
    return cfg;
}

/** Shared fixture: one trained scene, slow-but-thorough setup once. */
class ShardRouterTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        lego = new Dataset(tinyDataset("lego"));
        legoTrainer = new Trainer(*lego, tinyField(), tinyTrain());
        for (int i = 0; i < 30; i++)
            legoTrainer->trainIteration();
    }

    static void
    TearDownTestSuite()
    {
        delete legoTrainer;
        delete lego;
        legoTrainer = nullptr;
        lego = nullptr;
    }

    static Dataset *lego;
    static Trainer *legoTrainer;
};

Dataset *ShardRouterTest::lego = nullptr;
Trainer *ShardRouterTest::legoTrainer = nullptr;

TEST_F(ShardRouterTest, PlacementIsDeterministicAndReplicated)
{
    FaultGuard guard;
    ShardRouter a(fleetConfig());
    ShardRouter b(fleetConfig());

    std::vector<std::string> ids = {"lego", "lego-2", "lego-3",
                                    "lego-4", "lego-5"};
    for (const auto &id : ids) {
        ASSERT_GT(a.addScene(id, *legoTrainer), 0u);
        ASSERT_GT(b.addScene(id, *legoTrainer), 0u);
    }

    std::vector<bool> used(4, false);
    for (const auto &id : ids) {
        std::vector<int> pa = a.placement(id);
        ASSERT_EQ(pa.size(), 2u) << id;
        ASSERT_NE(pa[0], pa[1]);
        // Rendezvous placement is a pure function of (id, shard):
        // identical fleets place identically.
        EXPECT_EQ(pa, b.placement(id));
        for (int s : pa)
            used[static_cast<size_t>(s)] = true;
    }
    // Five ids across four shards must spread beyond one pair.
    int used_count = 0;
    for (bool u : used)
        used_count += u ? 1 : 0;
    EXPECT_GE(used_count, 3);
}

TEST_F(ShardRouterTest, FullTierBitIdenticalAcrossWorkerCounts)
{
    FaultGuard guard;
    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    for (int workers : {1, 2, 8}) {
        ShardRouterConfig cfg = fleetConfig(3, 2);
        cfg.shard.workers = workers;
        ShardRouter router(cfg);
        ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = spec;
        RenderResponse resp = router.render(req);
        ASSERT_EQ(resp.status, RequestStatus::Ok)
            << "workers=" << workers;
        expectImagesEqual(resp.image, expect);

        // A replayed request (possibly cache-served, possibly another
        // replica) is just as identical.
        RenderResponse again = router.render(req);
        ASSERT_EQ(again.status, RequestStatus::Ok);
        expectImagesEqual(again.image, expect);
    }
}

TEST_F(ShardRouterTest, KilledReplicaFailsOverBitIdentically)
{
    FaultGuard guard;
    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    for (int workers : {1, 2, 8}) {
        ShardRouter router(fleetConfig(4, 2));
        ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);
        std::vector<int> placed = router.placement("lego");
        ASSERT_EQ(placed.size(), 2u);

        // Kill the preferred replica: requests must fail over to the
        // surviving one and the scene must be re-placed to restore R.
        router.killShard(placed[0]);
        EXPECT_FALSE(router.shardAlive(placed[0]));

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = spec;
        RenderResponse resp = router.render(req);
        ASSERT_EQ(resp.status, RequestStatus::Ok)
            << "workers=" << workers;
        expectImagesEqual(resp.image, expect);

        std::vector<int> after = router.placement("lego");
        EXPECT_EQ(after.size(), 2u);
        for (int s : after)
            EXPECT_NE(s, placed[0]);
        (void)workers;
    }
}

TEST_F(ShardRouterTest, KillScheduleEveryRequestCompletesViaFailover)
{
    FaultGuard guard;
    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    ShardRouterConfig cfg = fleetConfig(4, 2);
    ShardRouter router(cfg);
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

    // Deterministic kill schedule: the third router->shard dispatch
    // crashes its shard outright.
    fault::Spec crash;
    crash.mode = fault::Mode::OneShot;
    crash.n = 3;
    fault::arm(fault::Point::ShardCrash, crash);

    std::vector<std::future<RenderResponse>> futs;
    RenderRequest req;
    req.sceneId = "lego";
    req.camera = spec;
    for (int i = 0; i < 12; i++)
        futs.push_back(router.submit(req));

    int completed = 0;
    for (auto &fut : futs) {
        RenderResponse resp = fut.get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        expectImagesEqual(resp.image, expect);
        completed++;
    }
    EXPECT_EQ(completed, 12);
    EXPECT_EQ(fault::fireCount(fault::Point::ShardCrash), 1u);

    FleetStats fs = router.fleetStats();
    EXPECT_EQ(fs.shardsCrashed, 1u);
    EXPECT_GE(fs.failovers, 1u);
    EXPECT_EQ(fs.requestsRouted, 12u);
}

TEST_F(ShardRouterTest, BreakerOpensHalfOpensAndRecloses)
{
    FaultGuard guard;
    ShardRouterConfig cfg = fleetConfig(1, 1);
    cfg.maxAttempts = 1;
    cfg.breakerFailureThreshold = 2;
    cfg.breakerOpenMs = 200.0;
    ShardRouter router(cfg);
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera(16, 16);

    fault::Spec fail;
    fail.mode = fault::Mode::Always;
    fault::arm(fault::Point::ShardFail, fail);

    // Two consecutive failures open the breaker.
    EXPECT_EQ(router.render(req).status, RequestStatus::Rejected);
    EXPECT_EQ(router.render(req).status, RequestStatus::Rejected);
    EXPECT_EQ(router.breakerState(0), BreakerState::Open);

    // While open (cooldown not elapsed) the shard is skipped entirely:
    // no usable replica, and the dispatch never reaches the shard.
    uint64_t fires = fault::fireCount(fault::Point::ShardFail);
    RenderResponse resp = router.render(req);
    EXPECT_EQ(resp.status, RequestStatus::Rejected);
    EXPECT_GT(resp.retryAfterMs, 0);

    // After the cooldown the next request is the half-open probe; with
    // the fault disarmed it succeeds and recloses the breaker.
    fault::disarm(fault::Point::ShardFail);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_EQ(router.render(req).status, RequestStatus::Ok);
    EXPECT_EQ(router.breakerState(0), BreakerState::Closed);

    FleetStats fs = router.fleetStats();
    ASSERT_EQ(fs.shards.size(), 1u);
    EXPECT_GE(fs.shards[0].breakerOpens, 1u);
    EXPECT_GE(fs.shards[0].breakerHalfOpens, 1u);
    EXPECT_GE(fs.shards[0].breakerCloses, 1u);
    EXPECT_GE(fs.noReplicaAvailable, 1u);
    (void)fires;
}

TEST_F(ShardRouterTest, HedgedRequestHasExactlyOneWinner)
{
    FaultGuard guard;
    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    ShardRouterConfig cfg = fleetConfig(2, 2);
    cfg.hedgeRequests = true;
    cfg.hedgeDelayMs = 5.0;
    auto router = std::make_unique<ShardRouter>(cfg);
    ASSERT_GT(router->addScene("lego", *legoTrainer), 0u);

    // Stall the primary dispatch far past any render time: the hedge
    // (launched after 5ms) wins the race however slow the host, and
    // exactly one response reaches the client -- bit-identical,
    // because the replicas share one model.
    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 30000;
    fault::arm(fault::Point::ShardStall, stall);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = spec;
    RenderResponse resp = router->render(req);
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    expectImagesEqual(resp.image, expect);

    FleetStats fs = router->fleetStats();
    EXPECT_EQ(fs.hedgesIssued, 1u);
    EXPECT_EQ(fs.hedgesWon, 1u);

    // The stalled primary's answer waits on a timer, not a thread:
    // destroying the router does not sit out the stall.
    const auto t0 = std::chrono::steady_clock::now();
    router.reset();
    EXPECT_LT(msSince(t0), 10000.0);
}

TEST_F(ShardRouterTest, DrainUnderLoadFailsNoAdmittedRequest)
{
    FaultGuard guard;
    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    ShardRouterConfig cfg = fleetConfig(3, 2);
    ShardRouter router(cfg);
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);
    std::vector<int> placed = router.placement("lego");
    ASSERT_EQ(placed.size(), 2u);

    // Slow every chunk a little so the drain overlaps real work.
    fault::Spec slow;
    slow.mode = fault::Mode::Always;
    slow.delayMs = 2;
    fault::arm(fault::Point::ChunkRenderDelay, slow);

    std::vector<std::future<RenderResponse>> futs;
    RenderRequest req;
    req.sceneId = "lego";
    req.camera = spec;
    for (int i = 0; i < 6; i++)
        futs.push_back(router.submit(req));

    // Drain a replica while those are in flight.
    ASSERT_TRUE(router.drainShard(placed[0]));
    EXPECT_FALSE(router.shardAlive(placed[0]));

    for (int i = 0; i < 6; i++)
        futs.push_back(router.submit(req));

    for (auto &fut : futs) {
        RenderResponse resp = fut.get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        expectImagesEqual(resp.image, expect);
    }

    // A second drain of the same shard is a no-op.
    EXPECT_FALSE(router.drainShard(placed[0]));

    std::vector<int> after = router.placement("lego");
    EXPECT_EQ(after.size(), 2u);
    for (int s : after)
        EXPECT_NE(s, placed[0]);
    EXPECT_EQ(router.fleetStats().shardsDrained, 1u);
}

TEST_F(ShardRouterTest, DeadlineBoundsRetryLoop)
{
    FaultGuard guard;
    ShardRouterConfig cfg = fleetConfig(2, 2);
    cfg.maxAttempts = 5;
    cfg.retryBackoffMs = 20;
    ShardRouter router(cfg);
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

    fault::Spec fail;
    fail.mode = fault::Mode::Always;
    fault::arm(fault::Point::ShardFail, fail);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera(16, 16);
    req.deadlineMs = 30.0;
    RenderResponse resp = router.render(req);
    EXPECT_EQ(resp.status, RequestStatus::DeadlineExceeded);
    // The backoff ladder (20+40+80+160ms) must have been truncated to
    // the deadline, not walked to the end.
    EXPECT_LT(resp.totalMs, 200.0);
}

TEST_F(ShardRouterTest, DeadlineHoldsWhileADispatchIsOutstanding)
{
    FaultGuard guard;
    ShardRouter router(fleetConfig(2, 2));
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

    // The only dispatch is stalled far past the deadline: the router
    // answers DeadlineExceeded when the deadline passes, abandoning
    // the dispatch, instead of waiting the stall out.
    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 30000;
    fault::arm(fault::Point::ShardStall, stall);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera(16, 16);
    req.deadlineMs = 30.0;
    const auto t0 = std::chrono::steady_clock::now();
    RenderResponse resp = router.render(req);
    EXPECT_EQ(resp.status, RequestStatus::DeadlineExceeded);
    EXPECT_GE(resp.totalMs, 30.0);
    EXPECT_LT(msSince(t0), 10000.0);

    // An abandoned dispatch is not the shard's fault.
    FleetStats fs = router.fleetStats();
    EXPECT_EQ(fs.failovers, 0u);
    for (const ShardStats &ss : fs.shards) {
        EXPECT_EQ(ss.timeouts, 0u);
        EXPECT_EQ(ss.failed, 0u);
    }
}

TEST_F(ShardRouterTest, ShardTimeoutFailsOverBitIdentically)
{
    FaultGuard guard;
    CameraSpec spec = latticeCamera(16, 16);
    Image expect = legoTrainer->renderImage(spec.makeCamera());
    RenderRequest req;
    req.sceneId = "lego";
    req.camera = spec;

    // Time the request on an idle fleet first, so the timeout sits far
    // above this host's render time: only the stalled attempt can
    // reach it, however slow the host (sanitizers included).
    double render_ms = 0.0;
    {
        ShardRouter probe(fleetConfig(2, 2));
        ASSERT_GT(probe.addScene("lego", *legoTrainer), 0u);
        for (int i = 0; i < 2; i++) {
            const auto t0 = std::chrono::steady_clock::now();
            ASSERT_EQ(probe.render(req).status, RequestStatus::Ok);
            render_ms = msSince(t0);
        }
    }
    ShardRouterConfig cfg = fleetConfig(2, 2);
    cfg.shardTimeoutMs = std::max(250.0, 20.0 * render_ms);
    ShardRouter router(cfg);
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);
    std::vector<int> order = router.placement("lego");
    ASSERT_EQ(order.size(), 2u);
    const int primary = order[spec.hashKey() % order.size()];

    // The primary's answer is masked far past shardTimeoutMs: the
    // attempt times out and the request fails over to the other
    // replica, which serves the same bits.
    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 30000;
    fault::arm(fault::Point::ShardStall, stall);

    RenderResponse resp = router.render(req);
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    expectImagesEqual(resp.image, expect);
    EXPECT_GE(resp.totalMs, cfg.shardTimeoutMs);

    FleetStats fs = router.fleetStats();
    EXPECT_EQ(fs.shards[static_cast<size_t>(primary)].timeouts, 1u);
    EXPECT_EQ(fs.shards[static_cast<size_t>(1 - primary)].timeouts, 0u);
    EXPECT_EQ(fs.failovers, 1u);
}

TEST_F(ShardRouterTest, SubmitDispatchesWithoutARouterConcurrencyCap)
{
    FaultGuard guard;
    ShardRouter router(fleetConfig(2, 2));
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

    // Renders are slow, so nothing completes for a while. submit()
    // dispatches on the caller's thread, so every request has been
    // admitted by a shard by the time its submit() returns.
    fault::Spec slow;
    slow.mode = fault::Mode::Always;
    slow.delayMs = 50;
    fault::arm(fault::Point::ChunkRenderDelay, slow);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera(16, 16);
    std::vector<std::future<RenderResponse>> futs;
    for (int i = 0; i < 16; i++)
        futs.push_back(router.submit(req));
    uint64_t accepted = 0;
    for (int s = 0; s < router.numShards(); s++)
        accepted += router.shardService(s).stats().requestsAccepted;
    EXPECT_EQ(accepted, 16u);

    for (auto &fut : futs)
        EXPECT_EQ(fut.get().status, RequestStatus::Ok);
}

TEST_F(ShardRouterTest, UnknownSceneAndAllReplicasDead)
{
    FaultGuard guard;
    ShardRouter router(fleetConfig(2, 2));
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

    RenderRequest req;
    req.sceneId = "nope";
    req.camera = latticeCamera(16, 16);
    EXPECT_EQ(router.render(req).status, RequestStatus::UnknownScene);

    router.killShard(0);
    router.killShard(1);
    req.sceneId = "lego";
    RenderResponse resp = router.render(req);
    EXPECT_EQ(resp.status, RequestStatus::Rejected);
    EXPECT_GT(resp.retryAfterMs, 0);
    EXPECT_GE(router.fleetStats().noReplicaAvailable, 1u);
}

TEST_F(ShardRouterTest, DestructionResolvesOutstandingFutures)
{
    FaultGuard guard;
    std::vector<std::future<RenderResponse>> futs;
    {
        ShardRouterConfig cfg = fleetConfig(2, 2);
        ShardRouter router(cfg);
        ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

        fault::Spec slow;
        slow.mode = fault::Mode::Always;
        slow.delayMs = 10;
        fault::arm(fault::Point::ChunkRenderDelay, slow);

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = latticeCamera();
        for (int i = 0; i < 8; i++)
            futs.push_back(router.submit(req));
        // Router destroyed with most of these still queued.
    }
    for (auto &fut : futs) {
        RenderResponse resp = fut.get();
        EXPECT_TRUE(resp.status == RequestStatus::Ok ||
                    resp.status == RequestStatus::Shutdown);
    }
}

TEST_F(ShardRouterTest, ColdReplicaFailsOverToWarmWithoutBreakerTrip)
{
    FaultGuard guard;
    const std::string path = "test_shard_router_cold.bin";
    ASSERT_EQ(legoTrainer->saveCheckpoint(path),
              CheckpointError::None);

    SceneSpec spec;
    spec.field = legoTrainer->field().config();
    spec.renderer = legoTrainer->renderer().config();
    spec.useOccupancy = true;
    spec.occupancy = legoTrainer->occupancyGrid()->config();
    spec.loadRetryBackoffMs = 1;

    ShardRouter router(fleetConfig(4, 2));
    ASSERT_GT(router.addSceneFromCheckpoint("lego", spec, path), 0u);

    CameraSpec cam = latticeCamera();
    Image expect = legoTrainer->renderImage(cam.makeCamera());

    // Evict the scene from the replica the camera's rotation prefers,
    // and stretch its reload so the request definitely arrives while
    // the replica is still cold.
    std::vector<int> order = router.placement("lego");
    ASSERT_EQ(order.size(), 2u);
    const int cold_shard = order[cam.hashKey() % order.size()];
    fault::Spec stall;
    stall.mode = fault::Mode::Always;
    stall.delayMs = 20;
    fault::arm(fault::Point::CheckpointStreamStall, stall);
    ASSERT_TRUE(router.shardRegistry(cold_shard).evictScene("lego"));

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = cam;
    RenderResponse resp = router.render(req);

    // The cold replica answered ColdStart (kicking off its reload) and
    // the router failed over to the warm replica: the client sees only
    // Ok, bit-identical pixels.
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    expectImagesEqual(resp.image, expect);
    FleetStats fs = router.fleetStats();
    EXPECT_GE(fs.coldStartFailovers, 1u);
    EXPECT_GE(fs.shards[static_cast<size_t>(cold_shard)].coldStarts,
              1u);
    // A cold start is not a shard failure: the breaker stays Closed.
    EXPECT_EQ(router.breakerState(cold_shard), BreakerState::Closed);

    // The ColdStart answer began the reload; once the stall is gone
    // the replica warms back under the same generation and serves the
    // same bits directly.
    fault::disarmAll();
    ASSERT_NE(router.shardRegistry(cold_shard).awaitWarm("lego",
                                                         30000.0),
              nullptr);
    EXPECT_EQ(router.shardRegistry(cold_shard).state("lego"),
              SceneState::Warm);
    RenderResponse warm = router.render(req);
    ASSERT_EQ(warm.status, RequestStatus::Ok);
    expectImagesEqual(warm.image, expect);
    std::remove(path.c_str());
}

TEST_F(ShardRouterTest, FleetStatsAggregateCacheAndPrefetchCounters)
{
    FaultGuard guard;
    // Per-tier lattice + prefetch knobs flow through the shared
    // per-shard config; the fleet snapshot must sum the resulting
    // shard-local cache counters.
    ShardRouterConfig cfg = fleetConfig(2, 2);
    cfg.shard.cacheTiles = 128;
    cfg.shard.cameraLattice[static_cast<int>(QualityTier::Preview)] =
        256.0f;
    cfg.shard.prefetch = true;
    ShardRouter router(cfg);
    ASSERT_GT(router.addScene("lego", *legoTrainer), 0u);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera(32, 32);
    req.quality = QualityTier::Preview;
    req.viewerId = "orbiter";
    // Nearby viewpoints inside one coarse preview cell: the camera-
    // affinity rotation keys on the preview lattice, so they all land
    // on the same replica and the repeats hit its cache.
    for (int i = 0; i < 4; i++) {
        req.camera.eye.x = 1.25f + 0.1f * static_cast<float>(i) / 256.0f;
        ASSERT_EQ(router.render(req).status, RequestStatus::Ok);
    }
    // Then stride a full preview cell per frame: the predictor sees
    // cell-crossing motion and enqueues the next cell's tiles
    // (sub-cell motion above predicts the *current* cell and is
    // rightly skipped).
    for (int j = 1; j <= 3; j++) {
        req.camera.eye.x = 1.25f + static_cast<float>(j) / 256.0f;
        ASSERT_EQ(router.render(req).status, RequestStatus::Ok);
    }

    FleetStats fs = router.fleetStats();
    const int preview = static_cast<int>(QualityTier::Preview);
    EXPECT_GT(fs.cacheHitsPerTier[preview], 0u);
    EXPECT_GT(fs.cacheMissesPerTier[preview], 0u);
    EXPECT_EQ(fs.cacheHitsPerTier[static_cast<int>(QualityTier::Full)],
              0u);
    // The moving viewer armed the predictor on whichever shard served
    // it; enqueue alone is deterministic (rendering may still be in
    // flight when the snapshot is taken).
    EXPECT_GT(fs.prefetchTilesEnqueued, 0u);
}

} // namespace
} // namespace instant3d
