/**
 * @file
 * Render-serving subsystem tests. The load-bearing contract: a served
 * QualityTier::Full pixel is bit-identical to Trainer::renderImage of
 * the same field and camera -- at 1/2/8 workers, across tile
 * boundaries, under cache hits and misses, with interleaved
 * multi-scene request mixes, and whether the model arrived via
 * registerFromTrainer or a checkpoint file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "nerf/serialize.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"
#include "serve/render_service.hh"
#include "serve/scene_registry.hh"
#include "trace/mem_trace.hh"

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

/** Spin until `point` has been hit at least `hits` times. */
void
awaitHits(fault::Point point, uint64_t hits)
{
    while (fault::hitCount(point) < hits)
        std::this_thread::yield();
}

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
tinyTrain(bool occupancy = true)
{
    TrainConfig cfg;
    cfg.raysPerBatch = 96;
    cfg.samplesPerRay = 32;
    cfg.adam.lr = 1e-2f;
    cfg.useOccupancyGrid = occupancy;
    cfg.occupancyUpdatePeriod = 8;
    return cfg;
}

/**
 * A camera spec whose floats sit exactly on the 1/4096 quantization
 * lattice, so quantized() is the identity and the trainer renders the
 * same camera the service does.
 */
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

#if defined(__FMA__) || defined(__ARM_FEATURE_FMA) || \
    defined(__aarch64__)
// FMA-capable build: the compiler may contract mul+add pairs in the
// batched kernels and not in the per-sample reference (or vice versa),
// so agreement with renderRay is tolerance-bounded rather than bitwise
// (the batched kernels' contract, tests/test_kernels.cc).
constexpr bool kReferenceBitExact = false;
#else
constexpr bool kReferenceBitExact = true;
#endif

/** renderRay agreement: equal without FMA, 1e-5 relative with it. */
::testing::AssertionResult
matchesReference(float ref, float got)
{
    const bool ok =
        kReferenceBitExact
            ? got == ref
            : std::fabs(got - ref) <= 1e-5f * std::max(1.0f, std::fabs(ref));
    if (ok)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << got << " vs renderRay's " << ref
           << (kReferenceBitExact ? " (non-FMA build)" : " (FMA build)");
}

/** Shared fixture: one trained scene, slow-but-thorough setup once. */
class ServeTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        lego = new Dataset(tinyDataset("lego"));
        legoTrainer = new Trainer(*lego, tinyField(), tinyTrain());
        for (int i = 0; i < 30; i++)
            legoTrainer->trainIteration();

        materials = new Dataset(tinyDataset("materials"));
        materialsTrainer =
            new Trainer(*materials, tinyField(), tinyTrain());
        for (int i = 0; i < 30; i++)
            materialsTrainer->trainIteration();
    }

    static void
    TearDownTestSuite()
    {
        delete legoTrainer;
        delete lego;
        delete materialsTrainer;
        delete materials;
        legoTrainer = materialsTrainer = nullptr;
        lego = materials = nullptr;
    }

    static Dataset *lego;
    static Trainer *legoTrainer;
    static Dataset *materials;
    static Trainer *materialsTrainer;
};

Dataset *ServeTest::lego = nullptr;
Trainer *ServeTest::legoTrainer = nullptr;
Dataset *ServeTest::materials = nullptr;
Trainer *ServeTest::materialsTrainer = nullptr;

/**
 * renderRays is batch-invariant: any split of an image's rays into
 * calls reproduces one-ray calls bit for bit, in every build. Each ray
 * also matches the per-sample reference renderRay under the FMA rule.
 */
TEST_F(ServeTest, RenderRaysMatchesOneRayCallsAndReference)
{
    NerfField &field = legoTrainer->field();
    const VolumeRenderer &renderer = legoTrainer->renderer();
    CameraSpec spec = latticeCamera(16, 16);
    Camera cam = spec.makeCamera();

    std::vector<Ray> rays;
    for (int row = 0; row < 16; row++)
        for (int col = 0; col < 16; col++)
            rays.push_back(cam.pixelRay(col, row));

    Workspace ref_ws;
    std::vector<RayResult> expect(rays.size());
    for (size_t r = 0; r < rays.size(); r++) {
        ref_ws.reset();
        renderer.renderRays(field, &rays[r], 1, &expect[r], ref_ws);
        const RayResult ref = renderer.renderRay(field, rays[r]);
        ASSERT_TRUE(matchesReference(ref.color.x, expect[r].color.x))
            << "ray " << r;
        ASSERT_TRUE(matchesReference(ref.color.y, expect[r].color.y));
        ASSERT_TRUE(matchesReference(ref.color.z, expect[r].color.z));
        ASSERT_TRUE(matchesReference(ref.depth, expect[r].depth));
        ASSERT_TRUE(matchesReference(ref.opacity, expect[r].opacity));
    }

    // Whole image in one call, tiny batches, and odd-size batches all
    // reproduce the one-ray calls bit-for-bit.
    for (int batch : {256, 7, 100}) {
        Workspace ws;
        std::vector<RayResult> got(rays.size());
        for (size_t r0 = 0; r0 < rays.size();
             r0 += static_cast<size_t>(batch)) {
            size_t n = std::min(rays.size() - r0,
                                static_cast<size_t>(batch));
            ws.reset();
            renderer.renderRays(field, rays.data() + r0,
                                static_cast<int>(n), got.data() + r0,
                                ws);
        }
        for (size_t r = 0; r < rays.size(); r++) {
            ASSERT_EQ(got[r].color.x, expect[r].color.x)
                << "batch " << batch << " ray " << r;
            ASSERT_EQ(got[r].color.y, expect[r].color.y);
            ASSERT_EQ(got[r].color.z, expect[r].color.z);
            ASSERT_EQ(got[r].depth, expect[r].depth);
            ASSERT_EQ(got[r].opacity, expect[r].opacity);
        }
    }
}

/**
 * Trainer::renderImage/renderDepth run the served march whether or not
 * a trace sink is attached: traced renders (serial, recording every
 * grid read) equal untraced ones (over the pool) bit for bit in every
 * build, and every pixel matches renderRay under the FMA rule.
 */
TEST_F(ServeTest, EvalRendersAreTraceNeutralAndMatchReference)
{
    Trainer &trainer = *legoTrainer;
    Camera cam = latticeCamera(24, 24).makeCamera();
    const Image plain = trainer.renderImage(cam);
    const std::vector<float> plain_depth = trainer.renderDepth(cam);

    NerfField &field = trainer.field();
    MemTraceCollector density_trace, color_trace;
    field.densityGrid().setTraceSink(&density_trace);
    field.colorGrid().setTraceSink(&color_trace);
    const Image traced = trainer.renderImage(cam);
    const std::vector<float> traced_depth = trainer.renderDepth(cam);
    field.densityGrid().setTraceSink(nullptr);
    field.colorGrid().setTraceSink(nullptr);
    EXPECT_FALSE(density_trace.reads().empty());
    EXPECT_FALSE(color_trace.reads().empty());

    expectImagesEqual(traced, plain);
    ASSERT_EQ(traced_depth.size(), plain_depth.size());
    for (size_t i = 0; i < plain_depth.size(); i++)
        ASSERT_EQ(traced_depth[i], plain_depth[i]) << "depth " << i;

    for (int row = 0; row < cam.imageHeight(); row++) {
        for (int col = 0; col < cam.imageWidth(); col++) {
            const RayResult ref =
                trainer.renderer().renderRay(field, cam.pixelRay(col, row));
            const Vec3 &px = plain.at(col, row);
            ASSERT_TRUE(matchesReference(ref.color.x, px.x))
                << "pixel (" << col << "," << row << ")";
            ASSERT_TRUE(matchesReference(ref.color.y, px.y));
            ASSERT_TRUE(matchesReference(ref.color.z, px.z));
            ASSERT_TRUE(matchesReference(
                ref.depth,
                plain_depth[static_cast<size_t>(row) * cam.imageWidth() +
                            col]));
        }
    }
}

TEST_F(ServeTest, ServedBitIdenticalToRenderImageAcrossWorkerCounts)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);

    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    for (int workers : {1, 2, 8}) {
        RenderServiceConfig cfg;
        cfg.workers = workers;
        cfg.tilePixels = 16;
        cfg.chunkRays = 512;
        RenderService service(registry, cfg);

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = spec;
        RenderResponse resp = service.render(req);
        ASSERT_EQ(resp.status, RequestStatus::Ok)
            << "workers=" << workers;
        expectImagesEqual(resp.image, expect);
        EXPECT_EQ(resp.tilesRendered, 9); // ceil(40/16)^2
        EXPECT_EQ(resp.tilesFromCache, 0);
    }
}

TEST_F(ServeTest, RoiTilesAssembleToFullImage)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.tilePixels = 8;
    RenderService service(registry, cfg);

    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    // Fetch an uneven patchwork of regions; each must equal the
    // corresponding window of renderImage.
    std::vector<TileRect> rois = {
        {0, 0, 40, 40}, {8, 8, 16, 12}, {35, 0, 5, 40}, {0, 39, 40, 1}};
    for (const auto &roi : rois) {
        RenderRequest req;
        req.sceneId = "lego";
        req.camera = spec;
        req.roi = roi;
        RenderResponse resp = service.render(req);
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        ASSERT_EQ(resp.image.width(), roi.w);
        ASSERT_EQ(resp.image.height(), roi.h);
        for (int y = 0; y < roi.h; y++) {
            for (int x = 0; x < roi.w; x++) {
                const Vec3 &pa = resp.image.at(x, y);
                const Vec3 &pb = expect.at(roi.x + x, roi.y + y);
                ASSERT_EQ(pa.x, pb.x)
                    << "roi (" << roi.x << "," << roi.y << ") pixel ("
                    << x << "," << y << ")";
                ASSERT_EQ(pa.y, pb.y);
                ASSERT_EQ(pa.z, pb.z);
            }
        }
    }
}

TEST_F(ServeTest, InterleavedMultiSceneMixStaysBitExact)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    registry.registerFromTrainer("materials", *materialsTrainer);

    CameraSpec spec = latticeCamera();
    Image expect_lego = legoTrainer->renderImage(spec.makeCamera());
    Image expect_mat =
        materialsTrainer->renderImage(spec.makeCamera());

    RenderServiceConfig cfg;
    cfg.workers = 4;
    cfg.tilePixels = 16;
    cfg.chunkRays = 1024;
    cfg.cacheTiles = 64;
    RenderService service(registry, cfg);

    // Four client threads fire interleaved full/roi requests against
    // both scenes; every Full-tier answer must match its trainer.
    constexpr int per_thread = 6;
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (int c = 0; c < 4; c++) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < per_thread; i++) {
                bool use_lego = (c + i) % 2 == 0;
                RenderRequest req;
                req.sceneId = use_lego ? "lego" : "materials";
                req.camera = spec;
                if (i % 3 == 1)
                    req.roi = {16, 8, 16, 16};
                RenderResponse resp = service.render(req);
                if (resp.status != RequestStatus::Ok) {
                    failures++;
                    continue;
                }
                const Image &expect =
                    use_lego ? expect_lego : expect_mat;
                TileRect roi = req.roi.w
                                   ? req.roi
                                   : TileRect{0, 0, 40, 40};
                for (int y = 0; y < roi.h && !failures; y++)
                    for (int x = 0; x < roi.w; x++) {
                        const Vec3 &pa = resp.image.at(x, y);
                        const Vec3 &pb =
                            expect.at(roi.x + x, roi.y + y);
                        if (pa.x != pb.x || pa.y != pb.y ||
                            pa.z != pb.z) {
                            failures++;
                            break;
                        }
                    }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requestsCompleted, 4u * per_thread);
    EXPECT_EQ(stats.requestsRejected, 0u);
    // Repeated cameras + the cache means part of the load was served
    // from rendered tiles -- with identical bits (asserted above).
    EXPECT_GT(stats.tilesFromCache, 0u);
}

TEST_F(ServeTest, CrossRequestCoalescingHappens)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    cfg.chunkRays = 2048; // 8 tiles of 256 rays share one chunk
    RenderService service(registry, cfg);

    CameraSpec spec = latticeCamera();
    // Burst of small single-tile requests: while the first chunk
    // renders, the rest pile up in the queue and the next drain packs
    // tiles from many requests into shared chunks.
    std::vector<std::future<RenderResponse>> futures;
    for (int i = 0; i < 24; i++) {
        RenderRequest req;
        req.sceneId = "lego";
        req.camera = spec;
        req.roi = {16 * (i % 2), 16 * ((i / 2) % 2), 16, 16};
        futures.push_back(service.submit(req));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, RequestStatus::Ok);

    ServeStats stats = service.stats();
    EXPECT_GT(stats.crossRequestChunks, 0u);
    EXPECT_LT(stats.chunksRendered, stats.tilesRendered);
}

TEST_F(ServeTest, CacheHitsAreBitExactAndInvalidateOnReregister)
{
    SceneRegistry registry;
    uint64_t gen1 = registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.cacheTiles = 128;
    RenderService service(registry, cfg);

    CameraSpec spec = latticeCamera();
    RenderRequest req;
    req.sceneId = "lego";
    req.camera = spec;

    RenderResponse first = service.render(req);
    ASSERT_EQ(first.status, RequestStatus::Ok);
    EXPECT_EQ(first.tilesFromCache, 0);

    RenderResponse second = service.render(req);
    ASSERT_EQ(second.status, RequestStatus::Ok);
    EXPECT_EQ(second.tilesFromCache, second.tilesRendered +
                                         second.tilesFromCache);
    expectImagesEqual(second.image, first.image);

    // Re-registration: train the model further and republish. The new
    // generation's keys miss the old entries, so pixels update.
    for (int i = 0; i < 10; i++)
        legoTrainer->trainIteration();
    uint64_t gen2 = registry.registerFromTrainer("lego", *legoTrainer);
    EXPECT_GT(gen2, gen1);
    service.invalidateScene("lego");

    Image expect = legoTrainer->renderImage(spec.makeCamera());
    RenderResponse third = service.render(req);
    ASSERT_EQ(third.status, RequestStatus::Ok);
    EXPECT_EQ(third.sceneGeneration, gen2);
    EXPECT_EQ(third.tilesFromCache, 0);
    expectImagesEqual(third.image, expect);
}

TEST_F(ServeTest, CheckpointRegistrationServesTrainerBits)
{
    const std::string path = "test_serve_ckpt.bin";
    ASSERT_EQ(legoTrainer->saveCheckpoint(path),
              CheckpointError::None);

    SceneSpec spec;
    spec.field = legoTrainer->field().config();
    spec.renderer = legoTrainer->renderer().config();
    spec.useOccupancy = true;
    spec.occupancy = legoTrainer->occupancyGrid()->config();

    SceneRegistry registry;
    ASSERT_GT(registry.registerFromCheckpoint("lego", spec, path), 0u);

    RenderServiceConfig cfg;
    cfg.workers = 2;
    RenderService service(registry, cfg);

    CameraSpec cam = latticeCamera();
    Image expect = legoTrainer->renderImage(cam.makeCamera());
    RenderRequest req;
    req.sceneId = "lego";
    req.camera = cam;
    RenderResponse resp = service.render(req);
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    expectImagesEqual(resp.image, expect);

    // A corrupt checkpoint must not publish (nor clobber a live scene).
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        std::fputc('X', f);
        std::fclose(f);
    }
    EXPECT_EQ(registry.registerFromCheckpoint("lego2", spec, path), 0u);
    EXPECT_EQ(registry.acquire("lego2"), nullptr);
    EXPECT_NE(registry.acquire("lego"), nullptr);
    std::remove(path.c_str());
}

TEST_F(ServeTest, QualityTiersAreDeterministicPerTier)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    CameraSpec spec = latticeCamera();

    for (QualityTier tier :
         {QualityTier::Half, QualityTier::Preview}) {
        Image at1, at8;
        for (int workers : {1, 8}) {
            RenderServiceConfig cfg;
            cfg.workers = workers;
            RenderService service(registry, cfg);
            RenderRequest req;
            req.sceneId = "lego";
            req.camera = spec;
            req.quality = tier;
            RenderResponse resp = service.render(req);
            ASSERT_EQ(resp.status, RequestStatus::Ok);
            (workers == 1 ? at1 : at8) = std::move(resp.image);
        }
        expectImagesEqual(at1, at8);
    }
}

TEST_F(ServeTest, BackpressureRejectsWithRetryAfter)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    cfg.maxQueueTiles = 4;
    cfg.retryAfterMs = 7;
    RenderService service(registry, cfg);

    // Structurally unservable: 9 tiles can never fit a 4-tile window,
    // so the answer is BadRequest, not a retry hint that cannot help.
    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    EXPECT_EQ(service.render(req).status, RequestStatus::BadRequest);

    // Transient overload: flood single-tile requests far faster than
    // one worker drains them; once 4 tiles are outstanding the rest
    // bounce with the configured retry-after backoff.
    req.roi = {0, 0, 16, 16};
    std::vector<std::future<RenderResponse>> futures;
    for (int i = 0; i < 40; i++)
        futures.push_back(service.submit(req));
    uint64_t ok = 0, rejected = 0;
    for (auto &f : futures) {
        RenderResponse resp = f.get();
        if (resp.status == RequestStatus::Ok) {
            ok++;
        } else {
            ASSERT_EQ(resp.status, RequestStatus::Rejected);
            // The hint is load-proportional: at least the base,
            // growing with the queue depth at rejection time.
            EXPECT_GE(resp.retryAfterMs, 7);
            rejected++;
        }
    }
    EXPECT_GT(ok, 0u);
    EXPECT_GT(rejected, 0u);

    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requestsRejected, rejected);
    EXPECT_EQ(stats.requestsCompleted, ok);
    EXPECT_EQ(stats.requestsBadRequest, 1u);
    EXPECT_LE(stats.queueDepthHighwater, 4u);
}

TEST_F(ServeTest, CompletionCallbackMayResubmitToTheSameService)
{
    // A completion callback never runs under a service lock, so it may
    // submit straight back into the service that answered it -- here
    // from a Rejected answer given at admission, and from the Shutdown
    // answer of a stopped service.
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    cfg.maxQueueTiles = 1;
    RenderService service(registry, cfg);

    fault::Spec slow;
    slow.mode = fault::Mode::Always;
    slow.delayMs = 300;
    fault::arm(fault::Point::ChunkRenderDelay, slow);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    req.roi = {0, 0, 16, 16};
    auto resubmitOnAnswer = [&](std::promise<RequestStatus> &outer,
                                std::promise<RequestStatus> &inner) {
        service.submit(req, [&](RenderResponse resp) {
            outer.set_value(resp.status);
            service.submit(req, [&](RenderResponse again) {
                inner.set_value(again.status);
            });
        });
    };

    auto held = service.submit(req); // Fills the one-tile window.
    std::promise<RequestStatus> rejected, retried;
    resubmitOnAnswer(rejected, retried);
    EXPECT_EQ(rejected.get_future().get(), RequestStatus::Rejected);
    RequestStatus retry = retried.get_future().get();
    EXPECT_TRUE(retry == RequestStatus::Rejected ||
                retry == RequestStatus::Ok);
    EXPECT_EQ(held.get().status, RequestStatus::Ok);

    service.stop();
    std::promise<RequestStatus> refused, refusedAgain;
    resubmitOnAnswer(refused, refusedAgain);
    EXPECT_EQ(refused.get_future().get(), RequestStatus::Shutdown);
    EXPECT_EQ(refusedAgain.get_future().get(), RequestStatus::Shutdown);
}

TEST_F(ServeTest, ExpiredDeadlineDropsUnrenderedTiles)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 1;
    RenderService service(registry, cfg);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    req.deadlineMs = 1e-6; // expired by the time the queue drains
    RenderResponse resp = service.render(req);
    EXPECT_EQ(resp.status, RequestStatus::DeadlineExceeded);
    EXPECT_EQ(resp.tilesRendered, 0);
    EXPECT_EQ(service.stats().requestsDeadlineExceeded, 1u);
}

TEST_F(ServeTest, UnknownSceneAndBadRequestAnswerImmediately)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 1;
    RenderService service(registry, cfg);

    RenderRequest req;
    req.sceneId = "nope";
    req.camera = latticeCamera();
    EXPECT_EQ(service.render(req).status, RequestStatus::UnknownScene);

    req.sceneId = "lego";
    req.roi = {30, 30, 20, 20}; // spills past the 40x40 image
    EXPECT_EQ(service.render(req).status, RequestStatus::BadRequest);

    req.roi = {};
    req.camera.width = 0;
    EXPECT_EQ(service.render(req).status, RequestStatus::BadRequest);

    // An out-of-range quality tier must be refused, not index past
    // the per-tier renderer table.
    req.camera = latticeCamera();
    req.quality = static_cast<QualityTier>(7);
    EXPECT_EQ(service.render(req).status, RequestStatus::BadRequest);
}

TEST_F(ServeTest, RegistryKeepsOldGenerationAliveForReaders)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    ServedScenePtr held = registry.acquire("lego");
    ASSERT_NE(held, nullptr);
    uint64_t old_gen = held->generation();

    registry.registerFromTrainer("lego", *legoTrainer);
    ServedScenePtr fresh = registry.acquire("lego");
    EXPECT_NE(fresh.get(), held.get());
    EXPECT_GT(fresh->generation(), old_gen);

    // The held generation still renders (its model is untouched).
    Workspace ws;
    Camera cam = latticeCamera().makeCamera();
    Ray ray = cam.pixelRay(20, 20);
    RayResult res;
    held->renderer(QualityTier::Full)
        .renderRays(held->field(), &ray, 1, &res, ws);
    EXPECT_TRUE(std::isfinite(res.color.x));

    EXPECT_TRUE(registry.unregister("lego"));
    EXPECT_EQ(registry.acquire("lego"), nullptr);
    EXPECT_FALSE(registry.unregister("lego"));
}

TEST_F(ServeTest, RegistryRetriesTransientLoadFailure)
{
    FaultGuard guard;
    const std::string path = "test_serve_retry.bin";
    ASSERT_EQ(legoTrainer->saveCheckpoint(path),
              CheckpointError::None);

    SceneSpec spec;
    spec.field = legoTrainer->field().config();
    spec.renderer = legoTrainer->renderer().config();
    spec.useOccupancy = true;
    spec.occupancy = legoTrainer->occupancyGrid()->config();
    spec.loadRetryBackoffMs = 1;

    SceneRegistry registry;

    // A one-shot transient read failure: attempt 1 fails, the backoff
    // retry loads clean.
    fault::Spec fail_once;
    fail_once.mode = fault::Mode::OneShot;
    fail_once.n = 1;
    fault::arm(fault::Point::CheckpointShortRead, fail_once);
    EXPECT_GT(registry.registerFromCheckpoint("lego", spec, path), 0u);
    EXPECT_EQ(fault::fireCount(fault::Point::CheckpointShortRead), 1u);

    // Persistent I/O failure: every attempt dies on its first read;
    // the budget (1 try + loadRetries) is spent, then the load fails.
    fault::resetCounts();
    fault::Spec fail_always;
    fail_always.mode = fault::Mode::Always;
    fault::arm(fault::Point::CheckpointShortRead, fail_always);
    EXPECT_EQ(registry.registerFromCheckpoint("lego2", spec, path), 0u);
    EXPECT_EQ(fault::hitCount(fault::Point::CheckpointShortRead),
              1u + spec.loadRetries);
    EXPECT_EQ(registry.acquire("lego2"), nullptr);

    // Structural corruption is permanent -- exactly one attempt, no
    // retry (the armed-but-never-firing point counts header reads).
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        std::fputc('X', f);
        std::fclose(f);
    }
    fault::resetCounts();
    fault::Spec count_only;
    count_only.mode = fault::Mode::Never;
    fault::arm(fault::Point::CheckpointShortRead, count_only);
    EXPECT_EQ(registry.registerFromCheckpoint("lego3", spec, path), 0u);
    EXPECT_EQ(fault::hitCount(fault::Point::CheckpointShortRead), 1u);
    std::remove(path.c_str());
}

TEST_F(ServeTest, ShutdownResolvesQueuedAndInFlightFutures)
{
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);

    // Slow every chunk down so the scheduler is provably mid-dispatch
    // when the service is destroyed, with later requests still queued.
    fault::Spec slow;
    slow.mode = fault::Mode::Always;
    slow.delayMs = 50;
    fault::arm(fault::Point::ChunkRenderDelay, slow);

    std::vector<std::future<RenderResponse>> wave1, wave2;
    {
        RenderServiceConfig cfg;
        cfg.workers = 1;
        cfg.tilePixels = 16;
        RenderService service(registry, cfg);

        RenderRequest req;
        req.sceneId = "lego";
        req.camera = latticeCamera();
        req.roi = {0, 0, 16, 16};
        for (int i = 0; i < 20; i++)
            wave1.push_back(service.submit(req));

        // Once a chunk is rendering, the scheduler is blocked inside
        // its dispatch; everything submitted now stays queued until
        // after the destructor has raised the stop flag.
        awaitHits(fault::Point::ChunkRenderDelay, 1);
        for (int i = 0; i < 10; i++)
            wave2.push_back(service.submit(req));
    } // ~RenderService: must resolve every future, never hang

    int ok = 0, shutdown = 0;
    for (auto &f : wave1) {
        RequestStatus s = f.get().status;
        ASSERT_TRUE(s == RequestStatus::Ok ||
                    s == RequestStatus::Shutdown);
        (s == RequestStatus::Ok ? ok : shutdown)++;
    }
    EXPECT_GT(ok, 0); // the in-flight chunk completed normally
    for (auto &f : wave2)
        EXPECT_EQ(f.get().status, RequestStatus::Shutdown);
}

TEST_F(ServeTest, ExplicitStopIsIdempotentAndLeavesServiceQueryable)
{
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);

    fault::Spec slow;
    slow.mode = fault::Mode::Always;
    slow.delayMs = 20;
    fault::arm(fault::Point::ChunkRenderDelay, slow);

    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    RenderService service(registry, cfg);
    EXPECT_FALSE(service.stopped());

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    req.roi = {0, 0, 16, 16};
    std::vector<std::future<RenderResponse>> futs;
    for (int i = 0; i < 10; i++)
        futs.push_back(service.submit(req));

    // Concurrent stop() calls must serialize on one join, not race it.
    std::thread other([&service] { service.stop(); });
    service.stop();
    other.join();
    EXPECT_TRUE(service.stopped());

    // Queued requests resolve Shutdown exactly as destruction always
    // did; nothing hangs.
    int ok = 0, shutdown = 0;
    for (auto &f : futs) {
        RequestStatus s = f.get().status;
        ASSERT_TRUE(s == RequestStatus::Ok ||
                    s == RequestStatus::Shutdown);
        (s == RequestStatus::Ok ? ok : shutdown)++;
    }

    // A stopped service refuses new work but stays queryable.
    EXPECT_EQ(service.render(req).status, RequestStatus::Shutdown);
    EXPECT_EQ(service.outstandingTileCount(), 0u);
    ServeStats stats = service.stats();
    EXPECT_GE(stats.requestsAccepted, 10u);

    service.stop(); // third call: still a no-op
    EXPECT_TRUE(service.stopped());
}

TEST_F(ServeTest, DegradationServesInsteadOfRejecting)
{
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);

    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    cfg.maxQueueTiles = 4;
    cfg.degradeUnderLoad = true;
    RenderService service(registry, cfg);

    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    // Stall the scheduler for one dispatch so the admission depths the
    // fillers observe are an exact, machine-independent sequence.
    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 500;
    fault::arm(fault::Point::SchedulerStall, stall);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = spec;
    req.roi = {0, 0, 16, 16};
    auto trigger = service.submit(req); // depth 1: served Full
    awaitHits(fault::Point::SchedulerStall, 1);

    // Scheduler asleep, trigger tile outstanding: filler i sees depth
    // 2+i. Window 4 => i 0-2 Full, 3-6 one step down, 7+ two steps.
    std::vector<std::future<RenderResponse>> fillers;
    for (int i = 0; i < 12; i++)
        fillers.push_back(service.submit(req));

    EXPECT_EQ(trigger.get().status, RequestStatus::Ok);
    for (int i = 0; i < 12; i++) {
        RenderResponse resp = fillers[i].get();
        ASSERT_EQ(resp.status, RequestStatus::Ok) << "filler " << i;
        QualityTier want = i < 3    ? QualityTier::Full
                           : i < 7 ? QualityTier::Half
                                   : QualityTier::Preview;
        EXPECT_EQ(resp.servedQuality, want) << "filler " << i;
        EXPECT_EQ(resp.degradeLevels, static_cast<int>(want))
            << "filler " << i;
        // Whenever Full is actually served, the bit-identity contract
        // holds even under degradation pressure.
        if (resp.servedQuality == QualityTier::Full)
            for (int y = 0; y < 16; y++)
                for (int x = 0; x < 16; x++) {
                    ASSERT_EQ(resp.image.at(x, y).x,
                              expect.at(x, y).x);
                    ASSERT_EQ(resp.image.at(x, y).y,
                              expect.at(x, y).y);
                    ASSERT_EQ(resp.image.at(x, y).z,
                              expect.at(x, y).z);
                }
    }

    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requestsRejected, 0u);
    EXPECT_EQ(stats.requestsDegraded, 9u);
    EXPECT_EQ(stats.admissionDegradations, 9u);
    EXPECT_EQ(stats.deadlineDegradations, 0u);
    EXPECT_EQ(stats.requestsServedPerTier[0], 4u); // trigger + 3
    EXPECT_EQ(stats.requestsServedPerTier[1], 4u);
    EXPECT_EQ(stats.requestsServedPerTier[2], 5u);
}

TEST_F(ServeTest, MinQualityBoundsDegradation)
{
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);

    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    cfg.maxQueueTiles = 4;
    cfg.retryAfterMs = 7;
    cfg.degradeUnderLoad = true;
    RenderService service(registry, cfg);

    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 500;
    fault::arm(fault::Point::SchedulerStall, stall);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    req.roi = {0, 0, 16, 16};
    std::vector<std::future<RenderResponse>> futures;
    futures.push_back(service.submit(req)); // trigger
    awaitHits(fault::Point::SchedulerStall, 1);
    for (int i = 0; i < 9; i++)
        futures.push_back(service.submit(req));
    // 10 tiles outstanding now; both probes would degrade two tiers.

    // minQuality == quality opts out of degradation -> Rejected, with
    // the load-proportional hint: ceil(7 * 10/4) = 18.
    RenderRequest strict = req;
    strict.minQuality = QualityTier::Full;
    RenderResponse a = service.render(strict);
    EXPECT_EQ(a.status, RequestStatus::Rejected);
    EXPECT_EQ(a.retryAfterMs, 18);

    // minQuality Half caps the two-tier target at Half.
    RenderRequest capped = req;
    capped.minQuality = QualityTier::Half;
    futures.push_back(service.submit(capped));
    RenderResponse b = futures.back().get();
    EXPECT_EQ(b.status, RequestStatus::Ok);
    EXPECT_EQ(b.servedQuality, QualityTier::Half);
    EXPECT_EQ(b.degradeLevels, 1);

    for (size_t i = 0; i + 1 < futures.size(); i++)
        EXPECT_EQ(futures[i].get().status, RequestStatus::Ok);
    EXPECT_EQ(service.stats().requestsRejected, 1u);
}

TEST_F(ServeTest, DeadlineRiskDegradesOneTier)
{
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);

    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.degradeUnderLoad = true;
    cfg.deadlineRiskFraction = 0.5;
    RenderService service(registry, cfg);

    // The request dequeues with ~600 ms of its 1000 ms deadline spent
    // queueing (past the 0.5 risk fraction, before expiry): the
    // scheduler steps it down one tier to win back render time.
    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 600;
    fault::arm(fault::Point::SchedulerStall, stall);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    req.roi = {0, 0, 16, 16};
    req.deadlineMs = 1000.0;
    RenderResponse resp = service.render(req);
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    EXPECT_EQ(resp.servedQuality, QualityTier::Half);
    EXPECT_EQ(resp.degradeLevels, 1);

    ServeStats stats = service.stats();
    EXPECT_EQ(stats.deadlineDegradations, 1u);
    EXPECT_EQ(stats.admissionDegradations, 0u);
    EXPECT_EQ(stats.requestsDegraded, 1u);
}

TEST_F(ServeTest, CoarsePreviewLatticeSharesCacheWithinCell)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.cacheTiles = 128;
    cfg.cameraLattice[static_cast<int>(QualityTier::Preview)] =
        256.0f;
    RenderService service(registry, cfg);

    RenderRequest req;
    req.sceneId = "lego";
    req.quality = QualityTier::Preview;
    req.camera = latticeCamera();

    // Seed the cache at the cell anchored on eye.x == 1.25.
    RenderResponse first = service.render(req);
    ASSERT_EQ(first.status, RequestStatus::Ok);
    EXPECT_EQ(first.tilesFromCache, 0);

    // Sub-cell perturbation (0.4/256 < half a 1/256 cell): snaps to
    // the same coarse camera, so every tile comes from cache.
    req.camera.eye.x = 1.25f + 0.4f / 256.0f;
    RenderResponse second = service.render(req);
    ASSERT_EQ(second.status, RequestStatus::Ok);
    EXPECT_EQ(second.tilesRendered, 0);
    EXPECT_GT(second.tilesFromCache, 0);
    expectImagesEqual(second.image, first.image);

    // Exactly one lattice step apart: a different cell, a miss.
    req.camera.eye.x = 1.25f + 1.0f / 256.0f;
    RenderResponse third = service.render(req);
    ASSERT_EQ(third.status, RequestStatus::Ok);
    EXPECT_EQ(third.tilesFromCache, 0);
    EXPECT_GT(third.tilesRendered, 0);

    // The Full tier still keys on the fine 1/4096 lattice and its
    // stats land in its own bucket, untouched by preview traffic.
    RenderRequest full;
    full.sceneId = "lego";
    full.camera = latticeCamera();
    Image expect = legoTrainer->renderImage(full.camera.makeCamera());
    RenderResponse fresp = service.render(full);
    ASSERT_EQ(fresp.status, RequestStatus::Ok);
    expectImagesEqual(fresp.image, expect);

    ServeStats stats = service.stats();
    const int pv = static_cast<int>(QualityTier::Preview);
    const int fl = static_cast<int>(QualityTier::Full);
    EXPECT_GT(stats.cacheHitsPerTier[pv], 0u);
    EXPECT_GT(stats.cacheMissesPerTier[pv], 0u);
    EXPECT_EQ(stats.cacheHitsPerTier[fl], 0u);
    EXPECT_GT(stats.cacheMissesPerTier[fl], 0u);
}

TEST_F(ServeTest, FullTierBitIdentityUnderCoarseLatticeAndPrefetch)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.cacheTiles = 256;
    cfg.cameraLattice[static_cast<int>(QualityTier::Preview)] = 64.0f;
    cfg.cameraLattice[static_cast<int>(QualityTier::Half)] = 1024.0f;
    cfg.prefetch = true;
    RenderService service(registry, cfg);

    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    // Interleave a moving Preview viewer (feeding the predictor) with
    // Full and Half requests in mixed arrival order: no combination
    // of coarse-lattice traffic, prefetch state, or cache warmth may
    // perturb a Full-tier pixel.
    for (int round = 0; round < 3; round++) {
        RenderRequest pv;
        pv.sceneId = "lego";
        pv.quality = QualityTier::Preview;
        pv.viewerId = "roamer";
        pv.camera = spec;
        pv.camera.eye.x =
            1.25f + static_cast<float>(round) / 64.0f;
        std::future<RenderResponse> pvf = service.submit(pv);

        RenderRequest full;
        full.sceneId = "lego";
        full.camera = spec;
        std::future<RenderResponse> fullf = service.submit(full);

        RenderRequest half = full;
        half.quality = QualityTier::Half;
        std::future<RenderResponse> halff = service.submit(half);

        ASSERT_EQ(pvf.get().status, RequestStatus::Ok);
        ASSERT_EQ(halff.get().status, RequestStatus::Ok);
        RenderResponse fresp = fullf.get();
        ASSERT_EQ(fresp.status, RequestStatus::Ok);
        ASSERT_EQ(fresp.servedQuality, QualityTier::Full);
        expectImagesEqual(fresp.image, expect);
    }
}

TEST_F(ServeTest, PrefetchRendersPredictedFrameIntoCache)
{
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.tilePixels = 16;
    cfg.cacheTiles = 256;
    cfg.prefetch = true;
    RenderService service(registry, cfg);

    // Constant-velocity pan in steps of 1/16 along eye.x: every step
    // sits exactly on the Full 1/4096 lattice, so the predicted third
    // frame is the exact camera the viewer will ask for.
    CameraSpec spec = latticeCamera(32, 32); // 2x2 tiles of 16px
    RenderRequest req;
    req.sceneId = "lego";
    req.viewerId = "panner";
    req.camera = spec;

    ASSERT_EQ(service.render(req).status, RequestStatus::Ok);
    req.camera.eye.x = 1.25f + 1.0f / 16.0f;
    ASSERT_EQ(service.render(req).status, RequestStatus::Ok);

    // Two observations of uniform motion: the predictor enqueues the
    // extrapolated frame, and the idle workers render it into cache.
    EXPECT_GE(service.stats().prefetchTilesEnqueued, 4u);
    for (int spin = 0; spin < 20000; spin++) {
        if (service.stats().prefetchTilesRendered >= 4)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(service.stats().prefetchTilesRendered, 4u);

    // The viewer arrives where predicted: served wholly from cache,
    // still bit-identical to the trainer's ground truth.
    req.camera.eye.x = 1.25f + 2.0f / 16.0f;
    Image expect = legoTrainer->renderImage(req.camera.makeCamera());
    RenderResponse resp = service.render(req);
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    EXPECT_EQ(resp.tilesRendered, 0);
    EXPECT_EQ(resp.tilesFromCache, 4);
    expectImagesEqual(resp.image, expect);
    EXPECT_GT(service.stats().prefetchHits, 0u);
}

TEST_F(ServeTest, DeadlineSortedDequeueServesUrgentFirst)
{
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    cfg.chunkRays = 256; // one 16x16 tile per scheduler pass
    RenderService service(registry, cfg);

    // Hold the scheduler after it pulls the trigger job, queue three
    // rivals, and let each later pass render exactly one tile with a
    // visible 10 ms floor so dequeue order separates cleanly in
    // queueMs.
    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 300;
    fault::arm(fault::Point::SchedulerStall, stall);
    fault::Spec slow;
    slow.mode = fault::Mode::Always;
    slow.delayMs = 10;
    fault::arm(fault::Point::ChunkRenderDelay, slow);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    req.roi = {0, 0, 16, 16};
    auto trigger = service.submit(req);
    awaitHits(fault::Point::SchedulerStall, 1);

    // Arrival order: FIFO filler, lax deadline, tight deadline. EDF
    // must dequeue them in the exact reverse: tight, lax, then FIFO.
    auto fifo = service.submit(req);
    RenderRequest lax = req;
    lax.deadlineMs = 8000.0;
    auto laxf = service.submit(lax);
    RenderRequest tight = req;
    tight.deadlineMs = 3000.0;
    auto tightf = service.submit(tight);

    EXPECT_EQ(trigger.get().status, RequestStatus::Ok);
    RenderResponse rt = tightf.get();
    RenderResponse rl = laxf.get();
    RenderResponse rf = fifo.get();
    ASSERT_EQ(rt.status, RequestStatus::Ok);
    ASSERT_EQ(rl.status, RequestStatus::Ok);
    ASSERT_EQ(rf.status, RequestStatus::Ok);
    EXPECT_LT(rt.queueMs, rl.queueMs);
    EXPECT_LT(rl.queueMs, rf.queueMs);
}

TEST_F(ServeTest, DeadlineDownshiftResnapsOntoCoarserLattice)
{
    FaultGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 1;
    cfg.tilePixels = 16;
    cfg.cacheTiles = 128;
    cfg.degradeUnderLoad = true;
    cfg.deadlineRiskFraction = 0.5;
    cfg.cameraLattice[static_cast<int>(QualityTier::Preview)] =
        256.0f;
    RenderService service(registry, cfg);

    fault::Spec stall;
    stall.mode = fault::Mode::OneShot;
    stall.n = 1;
    stall.delayMs = 600;
    fault::arm(fault::Point::SchedulerStall, stall);

    // A Half request burns past the risk fraction while queued and is
    // downshifted to Preview at dequeue. The downshift must re-snap
    // the raw camera onto Preview's coarse lattice, so the rendered
    // tile is keyed at the 1/256 cell anchor -- not at the finer cell
    // the Half lattice picked at admission.
    RenderRequest req;
    req.sceneId = "lego";
    req.quality = QualityTier::Half;
    req.camera = latticeCamera();
    req.camera.eye.x = 1.25f + 0.4f / 256.0f;
    req.roi = {0, 0, 16, 16};
    req.deadlineMs = 1000.0;
    RenderResponse resp = service.render(req);
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    ASSERT_EQ(resp.servedQuality, QualityTier::Preview);
    EXPECT_EQ(service.stats().deadlineDegradations, 1u);

    // A native Preview request at the cell anchor finds that tile.
    RenderRequest probe;
    probe.sceneId = "lego";
    probe.quality = QualityTier::Preview;
    probe.camera = latticeCamera();
    probe.roi = {0, 0, 16, 16};
    RenderResponse hit = service.render(probe);
    ASSERT_EQ(hit.status, RequestStatus::Ok);
    EXPECT_EQ(hit.tilesRendered, 0);
    EXPECT_EQ(hit.tilesFromCache, 1);
    expectImagesEqual(hit.image, resp.image);
}

TEST(ServePoolTest, ConcurrentParallelForClientsSerialize)
{
    ThreadPool pool(4);
    constexpr int tasks = 64;
    std::vector<int> a(tasks, 0), b(tasks, 0);

    // Two client threads race their own batches on one shared pool;
    // each batch must run exactly once per task with no cross-talk.
    std::thread ta([&] {
        for (int rep = 0; rep < 20; rep++)
            pool.parallelFor(tasks, [&](int t, int) { a[t]++; });
    });
    std::thread tb([&] {
        for (int rep = 0; rep < 20; rep++)
            pool.parallelFor(tasks, [&](int t, int) { b[t]++; });
    });
    ta.join();
    tb.join();
    for (int t = 0; t < tasks; t++) {
        EXPECT_EQ(a[t], 20) << t;
        EXPECT_EQ(b[t], 20) << t;
    }
}

} // namespace
} // namespace instant3d
