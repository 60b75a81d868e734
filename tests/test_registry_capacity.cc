/**
 * @file
 * Capacity tests for the memory-budgeted SceneRegistry: LRU eviction
 * to cold stubs, shared_ptr drain of in-flight renders, single-flight
 * cold-start reloads, quarantine of structurally-bad checkpoints,
 * the ColdStart contract at the RenderService boundary, and a scene
 * working set 8x the budget served without a failed request.
 *
 * The load-bearing invariants: eviction never drops an in-flight
 * render, a reload republishes under the *same* generation with
 * bit-identical parameters, and a cold scene under concurrent demand
 * runs exactly one loader.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "common/rng.hh"
#include "nerf/serialize.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"
#include "serve/render_service.hh"
#include "serve/scene_registry.hh"

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

CameraSpec
latticeCamera(int width = 24, int height = 24)
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

std::vector<std::vector<float>>
snapshotParams(NerfField &field)
{
    std::vector<std::vector<float>> out;
    for (auto gid : field.paramGroups())
        out.push_back(field.groupParams(gid));
    return out;
}

void
expectParamsEqual(NerfField &field,
                  const std::vector<std::vector<float>> &expect)
{
    auto groups = field.paramGroups();
    ASSERT_EQ(groups.size(), expect.size());
    for (size_t g = 0; g < groups.size(); g++) {
        const auto &params = field.groupParams(groups[g]);
        ASSERT_EQ(params.size(), expect[g].size());
        for (size_t i = 0; i < params.size(); i++)
            ASSERT_EQ(params[i], expect[g][i])
                << "group " << g << " param " << i;
    }
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

/**
 * One trained scene and its checkpoint on disk, shared by every test
 * (training dominates suite runtime; the capacity machinery under test
 * only ever *loads*).
 */
class RegistryCapacityTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dataset = new Dataset(tinyDataset("lego"));
        trainer = new Trainer(*dataset, tinyField(), tinyTrain());
        for (int i = 0; i < 30; i++)
            trainer->trainIteration();
        ASSERT_EQ(trainer->saveCheckpoint(ckptPath),
                  CheckpointError::None);
    }

    static void
    TearDownTestSuite()
    {
        delete trainer;
        delete dataset;
        trainer = nullptr;
        dataset = nullptr;
        std::remove(ckptPath);
    }

    static SceneSpec
    spec()
    {
        SceneSpec s;
        s.field = trainer->field().config();
        s.renderer = trainer->renderer().config();
        s.useOccupancy = true;
        s.occupancy = trainer->occupancyGrid()->config();
        s.loadRetryBackoffMs = 1;
        return s;
    }

    /** Accounted bytes of one warm scene (probed via a throwaway
     *  unlimited registry). */
    static size_t
    sceneBytes()
    {
        SceneRegistry probe;
        EXPECT_GT(probe.registerFromCheckpoint("probe", spec(),
                                               ckptPath),
                  0u);
        return probe.stats().bytesWarm;
    }

    static constexpr const char *ckptPath =
        "test_registry_capacity_ckpt.bin";
    static Dataset *dataset;
    static Trainer *trainer;
};

Dataset *RegistryCapacityTest::dataset = nullptr;
Trainer *RegistryCapacityTest::trainer = nullptr;

TEST_F(RegistryCapacityTest, BudgetEvictsLruToColdStubAndReloads)
{
    const size_t per_scene = sceneBytes();
    ASSERT_GT(per_scene, 0u);

    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = 2 * per_scene + per_scene / 2;
    SceneRegistry registry(rcfg);

    const uint64_t g1 =
        registry.registerFromCheckpoint("s1", spec(), ckptPath);
    const uint64_t g2 =
        registry.registerFromCheckpoint("s2", spec(), ckptPath);
    ASSERT_GT(g1, 0u);
    ASSERT_GT(g2, 0u);
    EXPECT_EQ(registry.state("s1"), SceneState::Warm);
    EXPECT_EQ(registry.state("s2"), SceneState::Warm);

    // Make s2 the LRU scene, then overflow the budget: s2 must go
    // cold, not s1.
    {
        AcquireOutcome touch = registry.acquireOrLoad("s2");
        ASSERT_EQ(touch.state, SceneState::Warm);
        touch = registry.acquireOrLoad("s1");
        ASSERT_EQ(touch.state, SceneState::Warm);
    }
    const uint64_t g3 =
        registry.registerFromCheckpoint("s3", spec(), ckptPath);
    ASSERT_GT(g3, 0u);

    EXPECT_EQ(registry.state("s2"), SceneState::Cold);
    EXPECT_EQ(registry.state("s1"), SceneState::Warm);
    EXPECT_EQ(registry.state("s3"), SceneState::Warm);
    EXPECT_EQ(registry.acquire("s2"), nullptr);
    // The stub keeps its generation across eviction.
    EXPECT_EQ(registry.generation("s2"), g2);

    SceneRegistryStats st = registry.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.warm, 2u);
    EXPECT_EQ(st.cold, 1u);
    EXPECT_LE(st.bytesWarm, rcfg.memoryBudgetBytes);

    // Cold-start s2 back: same generation, bit-identical parameters.
    AcquireOutcome out = registry.acquireOrLoad("s2", 30000.0);
    ASSERT_NE(out.scene, nullptr);
    EXPECT_EQ(out.scene->generation(), g2);
    expectParamsEqual(out.scene->field(),
                      snapshotParams(trainer->field()));

    st = registry.stats();
    EXPECT_EQ(st.coldLoadsStarted, 1u);
    EXPECT_EQ(st.reloads, 1u);
    // Reloading s2 overflowed the budget again, evicting another LRU
    // scene -- the budget holds with the reload accounted.
    EXPECT_EQ(st.evictions, 2u);
    EXPECT_LE(st.bytesWarm, rcfg.memoryBudgetBytes);
}

TEST_F(RegistryCapacityTest, EvictionDrainsInFlightReferences)
{
    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = 1; // everything is over budget
    SceneRegistry registry(rcfg);

    // A budget smaller than one scene still publishes (serving beats
    // strict accounting) -- the scene just evicts as soon as another
    // needs the room.
    ASSERT_GT(registry.registerFromCheckpoint("s1", spec(), ckptPath),
              0u);
    EXPECT_EQ(registry.state("s1"), SceneState::Warm);

    ServedScenePtr held = registry.acquire("s1");
    ASSERT_NE(held, nullptr);
    const auto expect = snapshotParams(held->field());

    // Manual eviction while a reader holds the scene: the registry
    // drops only its own reference.
    ASSERT_TRUE(registry.evictScene("s1"));
    EXPECT_EQ(registry.state("s1"), SceneState::Cold);
    EXPECT_EQ(registry.stats().evictionsWhileReferenced, 1u);
    EXPECT_EQ(registry.stats().bytesWarm, 0u);

    // The held reference is fully usable after eviction.
    expectParamsEqual(held->field(), expect);
    EXPECT_EQ(held->renderer(QualityTier::Full).config().samplesPerRay,
              spec().renderer.samplesPerRay);
}

TEST_F(RegistryCapacityTest, EvictionMidRenderStillServesOk)
{
    FaultGuard guard;
    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = 1;
    SceneRegistry registry(rcfg);
    ASSERT_GT(registry.registerFromCheckpoint("s1", spec(), ckptPath),
              0u);

    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.cacheTiles = 0;
    RenderService service(registry, cfg);

    CameraSpec cam = latticeCamera();
    Image expect = trainer->renderImage(cam.makeCamera());

    // Slow every render chunk down, submit, then evict the scene out
    // from under the in-flight request.
    fault::Spec slow;
    slow.mode = fault::Mode::Always;
    slow.delayMs = 3;
    fault::arm(fault::Point::ChunkRenderDelay, slow);

    RenderRequest req;
    req.sceneId = "s1";
    req.camera = cam;
    auto future = service.submit(req);
    while (fault::fireCount(fault::Point::ChunkRenderDelay) < 1)
        std::this_thread::yield();
    ASSERT_TRUE(registry.evictScene("s1"));

    RenderResponse resp = future.get();
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    expectImagesEqual(resp.image, expect);
    EXPECT_EQ(registry.stats().evictionsWhileReferenced, 1u);
}

TEST_F(RegistryCapacityTest, ThunderingHerdRunsExactlyOneLoad)
{
    FaultGuard guard;
    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = 1;
    rcfg.maxConcurrentLoads = 4; // cap is irrelevant: one scene, one load
    SceneRegistry registry(rcfg);
    const uint64_t gen =
        registry.registerFromCheckpoint("s1", spec(), ckptPath);
    ASSERT_GT(gen, 0u);
    ASSERT_TRUE(registry.evictScene("s1"));

    // Stretch the reload so the whole herd arrives while it is in
    // flight.
    fault::Spec stall;
    stall.mode = fault::Mode::Always;
    stall.delayMs = 10;
    fault::arm(fault::Point::CheckpointStreamStall, stall);

    constexpr int herd = 8;
    std::atomic<int> started{0}, warmed{0};
    std::vector<std::thread> threads;
    threads.reserve(herd);
    for (int t = 0; t < herd; t++) {
        threads.emplace_back([&] {
            AcquireOutcome out =
                registry.acquireOrLoad("s1", 30000.0);
            if (out.startedLoad)
                started.fetch_add(1);
            if (out.scene && out.scene->generation() == gen)
                warmed.fetch_add(1);
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(warmed.load(), herd);
    EXPECT_EQ(started.load(), 1);
    SceneRegistryStats st = registry.stats();
    EXPECT_EQ(st.coldLoadsStarted, 1u);
    EXPECT_EQ(st.reloads, 1u);
    EXPECT_EQ(st.singleFlightJoins,
              static_cast<uint64_t>(herd - 1));
}

TEST_F(RegistryCapacityTest, CorruptCheckpointQuarantinesOnce)
{
    FaultGuard guard;
    const std::string path = "test_registry_capacity_corrupt.bin";
    ASSERT_EQ(trainer->saveCheckpoint(path), CheckpointError::None);

    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = 1;
    SceneRegistry registry(rcfg);
    const uint64_t gen =
        registry.registerFromCheckpoint("s1", spec(), path);
    ASSERT_GT(gen, 0u);
    ASSERT_TRUE(registry.evictScene("s1"));

    // Corrupt a payload byte: the reload dies on the CRC check -- a
    // structural error, so the stub quarantines.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 64, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, 64, SEEK_SET);
        std::fputc(c ^ 0x1, f);
        std::fclose(f);
    }

    AcquireOutcome out = registry.acquireOrLoad("s1", 30000.0);
    EXPECT_EQ(out.scene, nullptr);
    EXPECT_EQ(out.state, SceneState::Quarantined);
    EXPECT_EQ(out.error, CheckpointError::Crc);
    EXPECT_EQ(registry.state("s1"), SceneState::Quarantined);

    // No reload storm: further acquires answer from the quarantine
    // record without touching the file.
    const uint64_t loads_after = registry.stats().coldLoadsStarted;
    fault::resetCounts();
    for (int i = 0; i < 10; i++) {
        AcquireOutcome again = registry.acquireOrLoad("s1", 1000.0);
        EXPECT_EQ(again.state, SceneState::Quarantined);
        EXPECT_EQ(again.error, CheckpointError::Crc);
    }
    EXPECT_EQ(registry.stats().coldLoadsStarted, loads_after);
    EXPECT_EQ(fault::hitCount(fault::Point::CheckpointStreamShortRead),
              0u);
    EXPECT_GE(registry.stats().quarantineHits, 10u);

    // Repair the file and lift the quarantine: the scene recovers
    // under its original generation.
    ASSERT_EQ(trainer->saveCheckpoint(path), CheckpointError::None);
    EXPECT_TRUE(registry.clearQuarantine("s1"));
    EXPECT_EQ(registry.state("s1"), SceneState::Cold);
    out = registry.acquireOrLoad("s1", 30000.0);
    ASSERT_NE(out.scene, nullptr);
    EXPECT_EQ(out.scene->generation(), gen);
    expectParamsEqual(out.scene->field(),
                      snapshotParams(trainer->field()));
    std::remove(path.c_str());
}

TEST_F(RegistryCapacityTest, StopInterruptsRetryBackoff)
{
    FaultGuard guard;
    // Every read dies; with this retry budget the naive backoff sum is
    // days, so a prompt return proves the wait is interruptible.
    fault::Spec fail_always;
    fail_always.mode = fault::Mode::Always;
    fault::arm(fault::Point::CheckpointShortRead, fail_always);

    SceneSpec s = spec();
    s.loadRetries = 50;
    s.loadRetryBackoffMs = 100;

    SceneRegistry registry;
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<uint64_t> result{1};
    std::thread worker([&] {
        result.store(
            registry.registerFromCheckpoint("s1", s, ckptPath));
    });
    // Let the register call reach its first backoff, then stop().
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    registry.stop();
    worker.join();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    EXPECT_EQ(result.load(), 0u);
    EXPECT_LT(elapsed_ms, 5000.0);
    EXPECT_EQ(registry.acquire("s1"), nullptr);
}

TEST_F(RegistryCapacityTest, TransientReloadFailureStaysColdNotQuarantined)
{
    FaultGuard guard;
    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = 1;
    SceneRegistry registry(rcfg);
    SceneSpec s = spec();
    s.loadRetries = 0; // one attempt per cold start: each injected
                       // fault fails that reload outright
    const uint64_t gen =
        registry.registerFromCheckpoint("s1", s, ckptPath);
    ASSERT_GT(gen, 0u);
    ASSERT_TRUE(registry.evictScene("s1"));

    // Enumerate the reload's chunk reads (never-count), warming the
    // scene as a side effect.
    fault::Spec count_only;
    count_only.mode = fault::Mode::Never;
    fault::arm(fault::Point::CheckpointStreamShortRead, count_only);
    {
        AcquireOutcome out = registry.acquireOrLoad("s1", 30000.0);
        ASSERT_NE(out.scene, nullptr);
    }
    const uint64_t sites =
        fault::hitCount(fault::Point::CheckpointStreamShortRead);
    ASSERT_GE(sites, 2u);
    fault::disarmAll();

    // Kill the reload at every chunk read in turn: the stub must stay
    // Cold (Io is transient -- no quarantine), keep its generation,
    // and recover cleanly afterwards.
    for (uint64_t k = 1; k <= sites; k++) {
        ASSERT_TRUE(registry.evictScene("s1")) << "site " << k;
        fault::resetCounts();
        fault::Spec kill;
        kill.mode = fault::Mode::OneShot;
        kill.n = k;
        fault::arm(fault::Point::CheckpointStreamShortRead, kill);

        AcquireOutcome out = registry.acquireOrLoad("s1", 30000.0);
        EXPECT_EQ(out.scene, nullptr) << "site " << k;
        EXPECT_EQ(registry.state("s1"), SceneState::Cold)
            << "site " << k;
        EXPECT_EQ(registry.generation("s1"), gen) << "site " << k;
        fault::disarm(fault::Point::CheckpointStreamShortRead);

        AcquireOutcome retry = registry.acquireOrLoad("s1", 30000.0);
        ASSERT_NE(retry.scene, nullptr) << "site " << k;
        EXPECT_EQ(retry.scene->generation(), gen) << "site " << k;
    }
    EXPECT_EQ(registry.stats().loadFailures, sites);
    expectParamsEqual(registry.acquire("s1")->field(),
                      snapshotParams(trainer->field()));
}

TEST_F(RegistryCapacityTest, ServiceReportsColdStartAndRenderRecovers)
{
    FaultGuard guard;
    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = 1;
    SceneRegistry registry(rcfg);
    ASSERT_GT(registry.registerFromCheckpoint("s1", spec(), ckptPath),
              0u);

    RenderServiceConfig cfg;
    cfg.workers = 2;
    RenderService service(registry, cfg);

    CameraSpec cam = latticeCamera();
    Image expect = trainer->renderImage(cam.makeCamera());

    // Slow the reload enough that submit() observes the cold scene.
    fault::Spec stall;
    stall.mode = fault::Mode::Always;
    stall.delayMs = 5;
    fault::arm(fault::Point::CheckpointStreamStall, stall);

    ASSERT_TRUE(registry.evictScene("s1"));
    RenderRequest req;
    req.sceneId = "s1";
    req.camera = cam;

    // submit() never blocks on a load: it answers ColdStart with a
    // load-aware retry hint and leaves the reload running.
    RenderResponse cold = service.submit(req).get();
    EXPECT_EQ(cold.status, RequestStatus::ColdStart);
    EXPECT_GT(cold.retryAfterMs, 0);
    EXPECT_GE(service.stats().requestsColdStart, 1u);

    // The blocking wrapper absorbs the cold start: wait for warm,
    // resubmit, serve bit-identical pixels.
    RenderResponse warm = service.render(req);
    ASSERT_EQ(warm.status, RequestStatus::Ok);
    expectImagesEqual(warm.image, expect);
}

/**
 * A scene working set 8x the byte budget (40 scenes, room for 5)
 * served through the eviction and cold-start machinery. One client
 * sends a seeded mix, 70% of it on 5 hot scenes, so no request can
 * lose its reloaded scene to another client's traffic and the outcome
 * does not depend on timing: every request is served, Full pixels
 * stay bit-identical, and each ColdStart answer costs exactly one
 * reload.
 */
TEST_F(RegistryCapacityTest, OvercommittedWorkingSetServesEveryRequest)
{
    FaultGuard guard;
    constexpr int scenes = 40, budget_scenes = 5, hot = 5;
    constexpr int requests = 30;

    SceneRegistryConfig rcfg;
    rcfg.memoryBudgetBytes = budget_scenes * sceneBytes();
    SceneRegistry registry(rcfg);
    std::vector<std::string> ids;
    for (int i = 0; i < scenes; i++) {
        ids.push_back("s" + std::to_string(i));
        ASSERT_GT(registry.registerFromCheckpoint(ids.back(), spec(),
                                                  ckptPath),
                  0u);
    }

    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.cacheTiles = 0;
    RenderService service(registry, cfg);

    CameraSpec cams[2] = {latticeCamera(), latticeCamera()};
    cams[1].eye = {0.5f, 1.25f, 1.0f};
    const Image expect[2] = {trainer->renderImage(cams[0].makeCamera()),
                             trainer->renderImage(cams[1].makeCamera())};

    Rng mix(4242);
    for (int i = 0; i < requests; i++) {
        RenderRequest req;
        req.sceneId = ids[mix.nextU32(10) < 7 ? mix.nextU32(hot)
                                              : mix.nextU32(scenes)];
        const int view = static_cast<int>(mix.nextU32(2));
        req.camera = cams[view];
        req.quality = static_cast<QualityTier>(
            mix.nextU32(numQualityTiers));
        RenderResponse resp = service.render(req);
        ASSERT_EQ(resp.status, RequestStatus::Ok) << "request " << i;
        ASSERT_EQ(resp.servedQuality, req.quality) << "request " << i;
        if (req.quality == QualityTier::Full)
            expectImagesEqual(resp.image, expect[view]);
    }

    SceneRegistryStats st = registry.stats();
    EXPECT_GT(st.reloads, 0u);
    EXPECT_EQ(st.reloads, service.stats().requestsColdStart);
    EXPECT_LE(st.bytesWarm, rcfg.memoryBudgetBytes);
}

} // namespace
} // namespace instant3d
