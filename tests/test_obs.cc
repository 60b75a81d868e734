/**
 * @file
 * Telemetry layer tests. The load-bearing contracts:
 *
 *  - **Bit-neutrality**: a served Full-tier pixel is bit-identical
 *    with telemetry enabled, disabled, or compiled out
 *    (-DINSTANT3D_DISABLE_TELEMETRY), at 1/2/8 workers.
 *  - **Exact merge**: histograms share one fixed bucket layout, so
 *    merging per-shard snapshots equals recording every sample into
 *    one histogram, bucket for bucket.
 *  - **Percentile fidelity**: histogram percentiles agree with the
 *    exact PercentileTracker to within one bucket width.
 *  - **Trace coverage**: every request routed through a fleet leaves
 *    a completed trace with router + queue + render spans, and the
 *    Chrome trace-event export carries those spans.
 *  - RenderService::render() stamps totalMs end to end (the blocking
 *    path covers queue + render + scatter, not just the last tile).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "nerf/trainer.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "scene/scene.hh"
#include "serve/shard_router.hh"

namespace instant3d {
namespace {

/** Restore the default-enabled state however a test exits. */
struct TelemetryGuard
{
    ~TelemetryGuard() { obs::setEnabled(true); }
};

// ------------------------------------------------- histogram buckets

TEST(LatencyHistogramTest, BucketEdgesRoundTripThroughIndex)
{
    using H = obs::LatencyHistogram;
    for (int b = 1; b < obs::histNumBuckets - 1; b++) {
        const double left = H::bucketLeft(b);
        const double right = H::bucketRight(b);
        ASSERT_LT(left, right) << "bucket " << b;
        EXPECT_EQ(H::bucketIndex(left), b) << "left edge of " << b;
        // A point strictly inside stays inside.
        EXPECT_EQ(H::bucketIndex(0.5 * (left + right)), b);
    }
    // Adjacent buckets tile the interval: the right edge of b is the
    // left edge of b+1.
    for (int b = 1; b < obs::histNumBuckets - 2; b++)
        EXPECT_EQ(H::bucketRight(b), H::bucketLeft(b + 1));
}

TEST(LatencyHistogramTest, UnderOverflowAndMonotonicity)
{
    using H = obs::LatencyHistogram;
    EXPECT_EQ(H::bucketIndex(0.0), 0);
    EXPECT_EQ(H::bucketIndex(-5.0), 0);
    EXPECT_EQ(H::bucketIndex(1e-9), 0); // Below 2^-10 ms.
    EXPECT_EQ(H::bucketIndex(2e6), obs::histNumBuckets - 1); // > 2^20.

    int prev = 0;
    for (double ms = 1e-4; ms < 2e6; ms *= 1.17) {
        const int b = H::bucketIndex(ms);
        EXPECT_GE(b, prev) << "ms=" << ms;
        prev = b;
    }
    EXPECT_EQ(prev, obs::histNumBuckets - 1);
}

#ifndef INSTANT3D_DISABLE_TELEMETRY

TEST(LatencyHistogramTest, MergeIsExactlySingleHistogram)
{
    TelemetryGuard guard;
    obs::setEnabled(true);

    // A deterministic sample set spanning several octaves, recorded
    // once into a single histogram and once split across three
    // "shards".
    std::vector<double> samples;
    for (int i = 0; i < 500; i++)
        samples.push_back(0.05 * (1 + i % 97) * (1 + i % 13));

    obs::LatencyHistogram whole;
    obs::LatencyHistogram shard[3];
    for (size_t i = 0; i < samples.size(); i++) {
        whole.record(samples[i]);
        shard[i % 3].record(samples[i]);
    }

    obs::HistogramSnapshot merged = shard[0].snapshot();
    merged.merge(shard[1].snapshot());
    merged.merge(shard[2].snapshot());

    obs::HistogramSnapshot expect = whole.snapshot();
    EXPECT_EQ(merged.count, expect.count);
    for (int b = 0; b < obs::histNumBuckets; b++)
        ASSERT_EQ(merged.buckets[b], expect.buckets[b])
            << "bucket " << b;
    // Identical buckets imply identical percentiles -- spot-check.
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentile(p), expect.percentile(p));
}

TEST(LatencyHistogramTest, PercentilesWithinOneBucketOfExactTracker)
{
    TelemetryGuard guard;
    obs::setEnabled(true);

    obs::LatencyHistogram hist;
    PercentileTracker exact;
    for (int i = 0; i < 2000; i++) {
        // Latency-shaped spread: ~0.1 ms to ~80 ms.
        const double ms =
            0.1 + (i % 173) * 0.37 + ((i * 7) % 41) * 0.4;
        hist.record(ms);
        exact.add(ms);
    }

    obs::HistogramSnapshot snap = hist.snapshot();
    for (double p : {50.0, 90.0, 95.0, 99.0}) {
        const double truth = exact.percentile(p);
        const double approx = snap.percentile(p);
        const int b = obs::LatencyHistogram::bucketIndex(truth);
        const double width = obs::LatencyHistogram::bucketRight(b) -
                             obs::LatencyHistogram::bucketLeft(b);
        EXPECT_NEAR(approx, truth, width)
            << "p" << p << " truth=" << truth;
    }
}

TEST(CounterTest, ShardedAddsSumAcrossThreads)
{
    TelemetryGuard guard;
    obs::setEnabled(true);

    obs::Counter c;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; t++)
        threads.emplace_back([&c] {
            for (int i = 0; i < 10000; i++)
                c.add();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), 80000u);

    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, DisabledRecordingIsDropped)
{
    TelemetryGuard guard;
    obs::Counter c;
    obs::LatencyHistogram h;
    obs::setEnabled(false);
    c.add(7);
    h.record(1.0);
    obs::setEnabled(true);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(MetricsRegistryTest, ExportCarriesMetricsAndCollectors)
{
    TelemetryGuard guard;
    obs::setEnabled(true);
    auto &reg = obs::MetricsRegistry::global();

    reg.counter("obs_test.events").add(3);
    reg.gauge("obs_test.depth").set(2.5);
    reg.histogram("obs_test.lat_ms").record(4.0);

    // Two collectors contributing the same name sum (the fleet-shard
    // aggregation rule).
    uint64_t h1 = reg.addCollector([](obs::MetricsSink &sink) {
        sink.counter("obs_test.collected", 10);
    });
    uint64_t h2 = reg.addCollector([](obs::MetricsSink &sink) {
        sink.counter("obs_test.collected", 32);
    });

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("obs_test.events"), 3u);
    EXPECT_EQ(snap.counters.at("obs_test.collected"), 42u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("obs_test.depth"), 2.5);
    EXPECT_EQ(snap.histograms.at("obs_test.lat_ms").count, 1u);

    const std::string prom = snap.prometheusText();
    EXPECT_NE(prom.find("instant3d_obs_test_events 3"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE instant3d_obs_test_lat_ms summary"),
              std::string::npos);
    const std::string json = snap.json();
    EXPECT_NE(json.find("\"obs_test.collected\": 42"),
              std::string::npos);
    EXPECT_NE(json.find("\"obs_test.lat_ms\""), std::string::npos);

    reg.removeCollector(h1);
    reg.removeCollector(h2);
    obs::MetricsSnapshot after = reg.snapshot();
    EXPECT_EQ(after.counters.count("obs_test.collected"), 0u);
}

TEST(ScopedTimerTest, FeedsHistogram)
{
    TelemetryGuard guard;
    obs::setEnabled(true);

    obs::LatencyHistogram hist;
    {
        obs::ScopedTimer timer(&hist);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(hist.snapshot().count, 1u);

    // A null histogram is a no-op (the free disarmed path).
    {
        obs::ScopedTimer timer(nullptr);
    }
    {
        obs::ScopedTimer timer(&hist);
    }
    EXPECT_EQ(hist.snapshot().count, 2u);
}

#endif // INSTANT3D_DISABLE_TELEMETRY

// --------------------------------------------------- serving fixture

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

/** Shared fixture: one trained scene, slow-but-thorough setup once. */
class ObsServeTest : public ::testing::Test
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

Dataset *ObsServeTest::lego = nullptr;
Trainer *ObsServeTest::legoTrainer = nullptr;

// --------------------------------------------------- bit-neutrality

/**
 * The contract the whole layer hangs on: telemetry state must not
 * move a single pixel. Under -DINSTANT3D_DISABLE_TELEMETRY the same
 * test pins the compiled-out configuration against the trainer.
 */
TEST_F(ObsServeTest, ServedPixelsBitIdenticalAcrossTelemetryStates)
{
    TelemetryGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);

    CameraSpec spec = latticeCamera();
    Image expect = legoTrainer->renderImage(spec.makeCamera());

    for (int workers : {1, 2, 8}) {
        for (bool on : {true, false}) {
            obs::setEnabled(on);
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
                << "workers=" << workers << " telemetry=" << on;
            expectImagesEqual(resp.image, expect);
        }
    }
}

/** render()'s totalMs covers the whole blocking call, end to end. */
TEST_F(ObsServeTest, BlockingRenderStampsEndToEndTotalMs)
{
    TelemetryGuard guard;
    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.tilePixels = 16;
    RenderService service(registry, cfg);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();

    const double t0 = monotonicSeconds();
    RenderResponse resp = service.render(req);
    const double wall_ms = (monotonicSeconds() - t0) * 1e3;

    ASSERT_EQ(resp.status, RequestStatus::Ok);
    EXPECT_GT(resp.totalMs, 0.0);
    // Stamped inside render() immediately before returning: it can
    // only be a hair below the outside wall clock, never above it,
    // and never a small fraction of it (the old bug: last-tile-only
    // timing missed queue and warmup waits).
    EXPECT_LE(resp.totalMs, wall_ms);
    EXPECT_GE(resp.totalMs, 0.5 * wall_ms);
}

#ifndef INSTANT3D_DISABLE_TELEMETRY

// ------------------------------------------------------ span tracing

TEST_F(ObsServeTest, EveryFleetRequestLeavesACompleteTrace)
{
    TelemetryGuard guard;
    obs::setEnabled(true);
    auto &ring = obs::TraceRing::global();
    ring.clear();
    const uint64_t completed0 = ring.completedCount();

    ShardRouterConfig cfg;
    cfg.numShards = 2;
    cfg.replication = 2;
    cfg.shard.workers = 2;
    cfg.shard.tilePixels = 16;
    ShardRouter router(cfg);
    ASSERT_NE(router.addScene("lego", *legoTrainer), 0u);

    // Distinct camera sizes defeat the tile cache, so every request
    // really renders (and therefore crosses the EDF queue).
    const int kRequests = 12;
    for (int i = 0; i < kRequests; i++) {
        RenderRequest req;
        req.sceneId = "lego";
        req.camera = latticeCamera(24 + 2 * i, 24);
        RenderResponse resp = router.render(req);
        ASSERT_EQ(resp.status, RequestStatus::Ok) << "request " << i;
    }

    EXPECT_EQ(ring.completedCount() - completed0,
              static_cast<uint64_t>(kRequests));
    std::vector<obs::RequestTracePtr> traces = ring.traces();
    ASSERT_EQ(traces.size(), static_cast<size_t>(kRequests));

    for (const auto &trace : traces) {
        ASSERT_NE(trace, nullptr);
        EXPECT_EQ(trace->sceneId(), "lego");
        EXPECT_GT(trace->totalMs(), 0.0);

        std::set<std::string> names;
        for (const obs::TraceSpan &span : trace->spans()) {
            EXPECT_GE(span.endT, span.beginT) << span.name;
            names.insert(span.name);
        }
        // One span per pipeline stage: router dispatch, service
        // admission, EDF queue wait, chunk render, cache scatter.
        for (const char *want :
             {"router.dispatch", "serve.admission", "serve.queue_wait",
              "serve.render_chunk", "serve.cache_scatter"})
            EXPECT_TRUE(names.count(want))
                << "request " << trace->id() << " missing " << want;

        // Status annotation lands on completion.
        bool status_ok = false;
        for (const auto &kv : trace->notes())
            if (kv.first == "status" && kv.second == "ok")
                status_ok = true;
        EXPECT_TRUE(status_ok) << "request " << trace->id();
    }

    // The Chrome export carries the same spans for Perfetto.
    const std::string json = ring.exportChromeTrace();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    for (const char *want : {"router.dispatch", "serve.queue_wait",
                             "serve.render_chunk"}) {
        size_t hits = 0;
        for (size_t pos = json.find(want); pos != std::string::npos;
             pos = json.find(want, pos + 1))
            hits++;
        EXPECT_GE(hits, static_cast<size_t>(kRequests)) << want;
    }
    // Braces balance: the export is at least structurally JSON.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    ring.clear();
}

TEST_F(ObsServeTest, SlowRequestThresholdFiresWarnLog)
{
    TelemetryGuard guard;
    obs::setEnabled(true);
    auto &ring = obs::TraceRing::global();
    ring.clear();
    const uint64_t slow0 = ring.slowCount();
    ring.setSlowThresholdMs(0.0001); // Everything is "slow".

    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.tilePixels = 16;
    RenderService service(registry, cfg);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    RenderResponse resp = service.render(req);
    ASSERT_EQ(resp.status, RequestStatus::Ok);

    EXPECT_GT(ring.slowCount(), slow0);
    ring.setSlowThresholdMs(0.0);
    ring.clear();
}

TEST_F(ObsServeTest, ServiceCollectorMirrorsServeStats)
{
    TelemetryGuard guard;
    obs::setEnabled(true);

    SceneRegistry registry;
    registry.registerFromTrainer("lego", *legoTrainer);
    RenderServiceConfig cfg;
    cfg.workers = 2;
    cfg.tilePixels = 16;
    RenderService service(registry, cfg);

    RenderRequest req;
    req.sceneId = "lego";
    req.camera = latticeCamera();
    ASSERT_EQ(service.render(req).status, RequestStatus::Ok);

    ServeStats stats = service.stats();
    obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    // The collector mirrors the struct -- other live services may
    // contribute more, never less.
    EXPECT_GE(snap.counters.at("serve.requests_completed"),
              stats.requestsCompleted);
    EXPECT_GE(snap.counters.at("serve.tiles_rendered"),
              stats.tilesRendered);
    // The shared latency histograms saw this request.
    EXPECT_GE(snap.histograms.at("serve.total_ms").count, 1u);
    EXPECT_GE(snap.histograms.at("serve.queue_ms").count, 1u);
}

// ------------------------------------------------- training phases

/**
 * The train.phase.*_ms histograms are the trainer's one phase timer:
 * each stream-path iteration adds one sample per phase, each
 * occupancy refresh one occ_refresh sample, and a disabled iteration
 * none. The registry is process-wide, so counts are compared before
 * and after.
 */
TEST(TrainPhaseHistogramTest, EachPhaseRecordsOncePerIteration)
{
    TelemetryGuard guard;
    obs::setEnabled(true);

    auto &reg = obs::MetricsRegistry::global();
    auto count = [&](const std::string &phase) {
        return reg.histogram("train.phase." + phase + "_ms")
            .snapshot()
            .count;
    };
    const std::vector<std::string> phases = {
        "march",     "forward",   "backward", "reduce",
        "optimizer", "zero_grad", "occ_refresh"};
    auto counts = [&] {
        std::vector<uint64_t> out;
        for (const auto &p : phases)
            out.push_back(count(p));
        return out;
    };

    Dataset data = tinyDataset("lego");
    TrainConfig tcfg = tinyTrain();
    tcfg.useOccupancyGrid = true;
    tcfg.occupancyUpdatePeriod = 8;
    Trainer trainer(data, tinyField(), tcfg);

    const std::vector<uint64_t> before = counts();
    for (int i = 0; i < 17; i++)
        trainer.trainIteration();
    const std::vector<uint64_t> after = counts();
    for (size_t p = 0; p + 1 < phases.size(); p++)
        EXPECT_EQ(after[p] - before[p], 17u) << phases[p];
    // Refreshes run at iterations 8 and 16, never at 0.
    EXPECT_EQ(after.back() - before.back(), 2u);

    obs::setEnabled(false);
    trainer.trainIteration();
    EXPECT_EQ(counts(), after);
}

#endif // INSTANT3D_DISABLE_TELEMETRY

} // namespace
} // namespace instant3d
