/**
 * @file
 * Serving side of the benchmark: scene set-up (train, checkpoint,
 * register), the single-thread open-loop load generator, the reference
 * renders every response is checked against, and the serve_full /
 * serve_preview workloads with their traced layer breakdown.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "common/workspace.hh"
#include "nerf/serialize.hh"
#include "serve/render_service.hh"
#include "serve/scene_registry.hh"
#include "serve/shard_router.hh"

namespace perfbench {

using namespace instant3d;

namespace {

constexpr double kTwoPi = 6.283185307179586;

/** Longest the generator waits for stragglers after the last due time. */
constexpr double kDrainLimitS = 60.0;

/** How often the generator polls in-flight futures while idle. */
constexpr auto kPollInterval = std::chrono::microseconds(100);

/** A trained, checkpointed scene ready to register anywhere. */
struct SceneArtifact
{
    std::string id;
    SceneSpec spec;
    std::string path;
};

/** Fleet shape shared by the routed and standalone passes. */
struct FleetShape
{
    int shards = 2;
    int replication = 2;
    RenderServiceConfig shard;
};

FleetShape
fleetShape(const RunContext &ctx, bool preview, HostInfo &host)
{
    FleetShape f;
    f.shards = static_cast<int>(ctx.params.num("shards"));
    f.replication = static_cast<int>(ctx.params.num("replication"));
    // Shard workers sum to at most nproc.
    f.shard.workers = std::max(1, ctx.nproc / f.shards);
    f.shard.tilePixels = static_cast<int>(ctx.params.num("tile"));
    f.shard.cacheTiles = static_cast<int>(ctx.params.num("cache_tiles"));
    if (preview) {
        f.shard.cameraLattice[static_cast<int>(QualityTier::Preview)] =
            static_cast<float>(ctx.params.num("lattice"));
        f.shard.prefetch = true;
    }
    host.shards = f.shards;
    host.shardWorkers = f.shard.workers;
    return f;
}

std::unique_ptr<ShardRouter>
makeRouter(const FleetShape &shape, const std::vector<SceneArtifact> &scenes,
           std::vector<double> *register_ms, Report &report)
{
    ShardRouterConfig rc;
    rc.numShards = shape.shards;
    rc.replication = shape.replication;
    rc.shard = shape.shard;
    auto router = std::make_unique<ShardRouter>(rc);
    for (const SceneArtifact &a : scenes) {
        double t0 = nowS();
        uint64_t gen = router->addSceneFromCheckpoint(a.id, a.spec, a.path);
        if (register_ms)
            register_ms->push_back((nowS() - t0) * 1e3);
        if (gen == 0)
            report.mismatch("registration of '" + a.id + "' failed");
    }
    return router;
}

/** The served scenes and the fleet they are registered on. */
struct Setup
{
    std::vector<SceneArtifact> scenes;
    std::unique_ptr<ShardRouter> router;
    double seconds = 0.0;   //!< Whole set-up wall time (minus eval).
    double trainS = 0.0;    //!< Training loops of all scenes.
    double psnrDb = 0.0;    //!< Mean test PSNR of the scenes.
    std::vector<double> saveMs, registerMs;
};

/** One RenderService with the whole fleet's workers (comparison). */
struct Standalone
{
    SceneRegistry registry;
    std::unique_ptr<RenderService> service;

    Standalone(const FleetShape &shape,
               const std::vector<SceneArtifact> &scenes, Report &report)
    {
        for (const SceneArtifact &a : scenes)
            if (registry.registerFromCheckpoint(a.id, a.spec, a.path) == 0)
                report.mismatch("registration of '" + a.id + "' failed");
        RenderServiceConfig cfg = shape.shard;
        cfg.workers = shape.shard.workers * shape.shards;
        service = std::make_unique<RenderService>(registry, cfg);
    }
};

// --------------------------------------------------------------- load

/** One scheduled request. */
struct Req
{
    int scene = 0;
    CameraSpec camera;
    QualityTier tier = QualityTier::Full;
    std::string viewer;
    double due = 0.0; //!< Seconds after the schedule starts.
};

CameraSpec
cameraAt(const Vec3 &eye, int image)
{
    CameraSpec c;
    c.eye = eye;
    c.target = {0.5f, 0.5f, 0.5f};
    c.up = {0.0f, 0.0f, 1.0f};
    c.vfovDeg = 45.0f;
    c.width = image;
    c.height = image;
    return c;
}

/**
 * serve_full: request i goes to scene i mod S at its own camera on the
 * 1/4096 Full lattice; no two requests share a camera, so the tile
 * cache can only insert. The cameras follow a 3-D Kronecker
 * (low-discrepancy) sequence over azimuth, radius and height, offset by
 * the seed: every run covers the whole camera band evenly, so its cost
 * mix (and the workspaces' high-water mark) does not hinge on which
 * corners of the band a seed happens to draw.
 */
std::vector<Req>
fullSchedule(const RunContext &ctx, int num_scenes, double rate,
             double seconds)
{
    const int image = static_cast<int>(ctx.params.num("image"));
    const size_t n = static_cast<size_t>(rate * seconds);
    // Powers of the inverse of x^4 = x + 1's root (the 3-D R-sequence).
    const double g = 1.2207440845747455;
    const double alpha[3] = {1.0 / g, 1.0 / (g * g), 1.0 / (g * g * g)};
    Rng rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 11);
    double u[3] = {rng.nextFloat(), rng.nextFloat(), rng.nextFloat()};
    std::set<std::pair<int, uint64_t>> seen;
    std::vector<Req> out;
    for (size_t i = 0; i < n; i++) {
        Req r;
        r.scene = static_cast<int>(i % static_cast<size_t>(num_scenes));
        do {
            for (int d = 0; d < 3; d++)
                u[d] = std::fmod(u[d] + alpha[d], 1.0);
            float theta = static_cast<float>(kTwoPi * u[0]);
            float radius = static_cast<float>(0.8 + 0.2 * u[1]);
            float z = static_cast<float>(0.7 + 0.6 * u[2]);
            r.camera = cameraAt({0.5f + radius * std::cos(theta),
                                 0.5f + radius * std::sin(theta), z},
                                image)
                           .quantized(fullCameraLattice);
        } while (!seen.insert({r.scene, r.camera.hashKey()}).second);
        r.tier = QualityTier::Full;
        r.due = static_cast<double>(i) / rate;
        out.push_back(r);
    }
    return out;
}

/**
 * serve_preview: V viewers, each on its own slow orbit (phase, radius,
 * height and direction drawn from the seed), paced round-robin so the
 * total rate is fixed; viewer v's k-th frame advances its orbit by k
 * steps.
 */
std::vector<Req>
previewSchedule(const RunContext &ctx, int num_scenes, double rate,
                double seconds)
{
    const int image = static_cast<int>(ctx.params.num("image"));
    const int viewers = static_cast<int>(ctx.params.num("viewers"));
    const double step = ctx.params.num("orbit_step_rad");
    struct Orbit
    {
        double phase, radius, z, dir;
    };
    Rng rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 29);
    std::vector<Orbit> orbits;
    for (int v = 0; v < viewers; v++)
        orbits.push_back({kTwoPi * rng.nextFloat(),
                          rng.nextFloat(0.75f, 0.95f),
                          rng.nextFloat(0.8f, 1.2f),
                          rng.nextU32(2) ? 1.0 : -1.0});
    const size_t n = static_cast<size_t>(rate * seconds);
    std::vector<Req> out;
    for (size_t i = 0; i < n; i++) {
        const int v = static_cast<int>(i % static_cast<size_t>(viewers));
        const double k = static_cast<double>(i / static_cast<size_t>(viewers));
        const Orbit &o = orbits[static_cast<size_t>(v)];
        const double theta = o.phase + o.dir * step * k;
        Req r;
        r.scene = v % num_scenes;
        r.camera = cameraAt(
            {0.5f + static_cast<float>(o.radius * std::cos(theta)),
             0.5f + static_cast<float>(o.radius * std::sin(theta)),
             static_cast<float>(o.z)},
            image);
        r.tier = QualityTier::Preview;
        r.viewer = "viewer-" + std::to_string(v);
        r.due = static_cast<double>(i) / rate;
        out.push_back(r);
    }
    return out;
}

/** What the generator saw for one request. */
struct Outcome
{
    bool seen = false;   //!< Future became ready within the drain limit.
    double dueS = 0.0, submitS = 0.0, submitEndS = 0.0, readyS = 0.0;
    RenderResponse resp; //!< Image dropped once hashed.
    uint64_t pixelHash = 0;
};

/**
 * FNV-1a over the pixels' float bit patterns and the image size: two
 * frames hash equal only if every pixel is bit-identical (up to a
 * 2^-64 collision), so responses are checked without keeping them.
 */
uint64_t
pixelHash(const Image &img)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint32_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(static_cast<uint32_t>(img.width()));
    mix(static_cast<uint32_t>(img.height()));
    for (const Vec3 &p : img.data())
        for (float f : {p.x, p.y, p.z}) {
            uint32_t bits;
            std::memcpy(&bits, &f, sizeof(bits));
            mix(bits);
        }
    return h;
}

struct Pass
{
    std::vector<Outcome> out;
    double drainMs = 0.0; //!< Last completion after the last due time.
};

using SubmitFn =
    std::function<std::future<RenderResponse>(const RenderRequest &)>;

/**
 * Open loop from one thread: submit each request at its due time
 * whatever is still in flight, and poll the in-flight futures between
 * due times, stamping each the moment it is seen ready.
 */
Pass
runOpenLoop(const std::vector<Req> &sched,
            const std::vector<SceneArtifact> &scenes, const SubmitFn &submit)
{
    Pass pass;
    pass.out.resize(sched.size());
    std::vector<std::pair<size_t, std::future<RenderResponse>>> inflight;
    const double t0 = nowS() + 0.005;
    const double last_due = sched.empty() ? t0 : t0 + sched.back().due;
    double last_ready = t0;
    size_t next = 0;
    while (next < sched.size() || !inflight.empty()) {
        double now = nowS();
        while (next < sched.size() && t0 + sched[next].due <= now) {
            const Req &r = sched[next];
            RenderRequest rr;
            rr.sceneId = scenes[static_cast<size_t>(r.scene)].id;
            rr.camera = r.camera;
            rr.quality = r.tier;
            rr.viewerId = r.viewer;
            Outcome &o = pass.out[next];
            o.dueS = t0 + r.due;
            o.submitS = nowS();
            inflight.emplace_back(next, submit(rr));
            o.submitEndS = nowS();
            next++;
            now = o.submitEndS;
        }
        for (size_t k = 0; k < inflight.size();) {
            auto &f = inflight[k].second;
            if (f.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                Outcome &o = pass.out[inflight[k].first];
                o.readyS = nowS();
                o.resp = f.get();
                o.seen = true;
                o.pixelHash = pixelHash(o.resp.image);
                o.resp.image = Image();
                last_ready = std::max(last_ready, o.readyS);
                inflight[k] = std::move(inflight.back());
                inflight.pop_back();
            } else {
                k++;
            }
        }
        if (next == sched.size() && now - last_due > kDrainLimitS)
            break; // Unseen requests count as failed.
        auto wake = std::chrono::steady_clock::now() + kPollInterval;
        if (next < sched.size()) {
            double until = t0 + sched[next].due - nowS();
            if (until < 1e-4)
                wake = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               std::max(0.0, until)));
        }
        std::this_thread::sleep_until(wake);
    }
    // Anything still in flight is abandoned here; its future is
    // dropped before the service that owns the promise goes away.
    inflight.clear();
    pass.drainMs = std::max(0.0, (last_ready - last_due) * 1e3);
    return pass;
}

// ---------------------------------------------------------- reference

/** Independent copy of a served model, restored from its checkpoint. */
struct RefModel
{
    std::unique_ptr<NerfField> field;
    std::unique_ptr<OccupancyGrid> occ;
    std::vector<VolumeRenderer> tiers;
};

RefModel
loadRefModel(const SceneArtifact &a, Report &report)
{
    RefModel m;
    m.field = std::make_unique<NerfField>(a.spec.field, a.spec.seed);
    if (a.spec.useOccupancy)
        m.occ = std::make_unique<OccupancyGrid>(a.spec.occupancy);
    CheckpointError err = loadCheckpoint(*m.field, m.occ.get(), a.path);
    if (err != CheckpointError::None)
        report.mismatch("reference load of '" + a.id +
                        "' failed: " + checkpointErrorName(err));
    // Tier t renders with samplesPerRay >> t (the serving contract).
    for (int t = 0; t < numQualityTiers; t++) {
        RendererConfig rcfg = a.spec.renderer;
        rcfg.samplesPerRay = std::max(1, rcfg.samplesPerRay >> t);
        m.tiers.emplace_back(rcfg);
        m.tiers.back().setOccupancyGrid(m.occ.get());
    }
    return m;
}

/** Reference frames keyed by (scene, tier, camera snapped to tier). */
class References
{
  public:
    References(const std::vector<SceneArtifact> &scenes,
               const FleetShape &shape, Report &report)
        : shape(shape)
    {
        for (const SceneArtifact &a : scenes)
            models.push_back(loadRefModel(a, report));
    }

    /** The camera the service renders for `r` (snapped to its tier). */
    CameraSpec
    snapped(const Req &r) const
    {
        return r.camera.quantized(
            shape.shard.cameraLattice[static_cast<int>(r.tier)]);
    }

    /**
     * Render every distinct reference frame of a schedule in parallel
     * and keep its pixel hash.
     */
    void
    prepare(const std::vector<Req> &sched, int threads)
    {
        std::map<Key, CameraSpec> todo;
        for (const Req &r : sched)
            if (!hashes.count(keyOf(r)))
                todo.emplace(keyOf(r), snapped(r));
        std::vector<std::pair<Key, CameraSpec>> work(todo.begin(),
                                                     todo.end());
        std::vector<uint64_t> out(work.size());
        ThreadPool pool(threads);
        std::vector<Workspace> ws(static_cast<size_t>(pool.threadCount()));
        pool.parallelFor(static_cast<int>(work.size()), [&](int i,
                                                            int rank) {
            const auto &[k, spec] = work[static_cast<size_t>(i)];
            out[static_cast<size_t>(i)] = pixelHash(
                render(std::get<0>(k), std::get<1>(k), spec,
                       ws[static_cast<size_t>(rank)], nullptr));
        });
        for (size_t i = 0; i < work.size(); i++)
            hashes[work[i].first] = out[i];
    }

    uint64_t frameHash(const Req &r) const { return hashes.at(keyOf(r)); }

    /** Render one frame; `queried` (if set) gets the field queries. */
    Image
    render(int scene, int tier, const CameraSpec &spec, Workspace &ws,
           uint64_t *queried) const
    {
        const RefModel &m = models[static_cast<size_t>(scene)];
        Camera cam = spec.makeCamera();
        const int n = spec.width * spec.height;
        ws.reset();
        Ray *rays = ws.alloc<Ray>(static_cast<size_t>(n));
        RayResult *res = ws.alloc<RayResult>(static_cast<size_t>(n));
        for (int row = 0; row < spec.height; row++)
            for (int col = 0; col < spec.width; col++)
                rays[row * spec.width + col] = cam.pixelRay(col, row);
        uint64_t q0 = m.field->queryCount();
        m.tiers[static_cast<size_t>(tier)].renderRays(*m.field, rays, n,
                                                     res, ws);
        if (queried)
            *queried = m.field->queryCount() - q0;
        Image img(spec.width, spec.height);
        for (int row = 0; row < spec.height; row++)
            for (int col = 0; col < spec.width; col++)
                img.at(col, row) = res[row * spec.width + col].color;
        return img;
    }

    RefModel &model(int scene) { return models[static_cast<size_t>(scene)]; }

  private:
    using Key = std::tuple<int, int, uint64_t>;
    Key
    keyOf(const Req &r) const
    {
        const int tier = static_cast<int>(r.tier);
        return {r.scene, tier,
                r.camera.hashKey(shape.shard.cameraLattice[tier])};
    }

    FleetShape shape;
    std::vector<RefModel> models;
    std::map<Key, uint64_t> hashes;
};

/**
 * Check every response of a pass against its reference frame and
 * return the due-time latencies (failures as infinite).
 */
std::vector<double>
checkPass(const char *label, const Pass &pass, const std::vector<Req> &sched,
          const References &refs, Report &report)
{
    std::vector<double> lat;
    for (size_t i = 0; i < sched.size(); i++) {
        const Outcome &o = pass.out[i];
        std::ostringstream why;
        if (!o.seen)
            why << "no response within the drain limit";
        else if (o.resp.status != RequestStatus::Ok)
            why << "status " << requestStatusName(o.resp.status);
        else if (o.resp.servedQuality != sched[i].tier)
            why << "served tier " << static_cast<int>(o.resp.servedQuality);
        else if (o.pixelHash != refs.frameHash(sched[i]))
            why << "pixels differ from the reference render";
        const bool ok = why.str().empty();
        report.op(ok);
        if (!ok) {
            std::string msg = std::string(label) + " request " +
                              std::to_string(i) + ": " + why.str();
            if (o.seen && o.resp.status == RequestStatus::Ok)
                report.mismatch(msg);
            else
                std::fprintf(stderr, "perfbench: FAILED: %s\n",
                             msg.c_str());
        }
        lat.push_back(ok ? dueLatencyMs(o.dueS, o.readyS) : kFailedLatency);
    }
    return lat;
}

// ------------------------------------------------------------- layers

/**
 * Per-request renderer cost on one thread: each sampled request's rays
 * rendered at its tier, then the field kernels timed on the samples
 * its march emits.
 */
void
addRendererLayerMetrics(const std::vector<Req> &sched, References &refs,
                        Report &report)
{
    constexpr size_t kFrames = 16;
    Workspace ws;
    std::vector<double> frame_ms;
    double rays = 0, queried = 0, enc_s = 0, mlp_s = 0, points = 0;
    const size_t stride = std::max<size_t>(1, sched.size() / kFrames);
    for (size_t i = 0; i < sched.size(); i += stride) {
        const Req &r = sched[i];
        const int tier = static_cast<int>(r.tier);
        const CameraSpec spec = refs.snapped(r);
        uint64_t q = 0;
        double t0 = nowS();
        refs.render(r.scene, tier, spec, ws, &q);
        frame_ms.push_back((nowS() - t0) * 1e3);
        const int n = spec.width * spec.height;
        rays += n;
        queried += static_cast<double>(q);

        RefModel &m = refs.model(r.scene);
        Camera cam = spec.makeCamera();
        ws.reset();
        Ray *rs = ws.alloc<Ray>(static_cast<size_t>(n));
        for (int p = 0; p < n; p++)
            rs[p] = cam.pixelRay(p % spec.width, p / spec.width);
        SampleStream st;
        m.tiers[static_cast<size_t>(tier)].marchRays(rs, n, nullptr, st, ws);
        const int k = st.totalSamples;
        if (k == 0)
            continue;
        HashEncoding &dg = m.field->densityGrid();
        HashEncoding &cg = m.field->colorGrid();
        Mlp &dm = m.field->densityMlp();
        Mlp &cm = m.field->colorMlp();
        const size_t uk = static_cast<size_t>(k);
        float *df = ws.alloc<float>(uk * static_cast<size_t>(dg.outputDim()));
        float *cf = ws.alloc<float>(uk * static_cast<size_t>(cg.outputDim()));
        double e0 = nowS();
        dg.encodeBatch(st.pts, k, df, nullptr, ws);
        cg.encodeBatch(st.pts, k, cf, nullptr, ws);
        enc_s += nowS() - e0;

        // MLP inputs: the encoded features, padded with a fixed view
        // encoding where the color MLP takes one.
        auto fill = [&](int dim, const float *feat, int feat_dim) {
            float *in = ws.alloc<float>(uk * static_cast<size_t>(dim));
            for (size_t s = 0; s < uk; s++)
                for (int d = 0; d < dim; d++)
                    in[s * static_cast<size_t>(dim) + static_cast<size_t>(d)] =
                        d < feat_dim
                            ? feat[s * static_cast<size_t>(feat_dim) +
                                   static_cast<size_t>(d)]
                            : 0.25f;
            return in;
        };
        float *din = fill(dm.inputDim(), df, dg.outputDim());
        float *cin = fill(cm.inputDim(), cf, cg.outputDim());
        float *dout = ws.alloc<float>(uk * static_cast<size_t>(dm.outputDim()));
        float *cout = ws.alloc<float>(uk * static_cast<size_t>(cm.outputDim()));
        double m0 = nowS();
        dm.forwardBatch(din, k, dout, nullptr, ws);
        cm.forwardBatch(cin, k, cout, nullptr, ws);
        mlp_s += nowS() - m0;
        points += k;
    }
    report.add("renderer.render_rays_ms_per_frame", median(frame_ms), "ms");
    report.add("renderer.samples_per_ray", rays > 0 ? queried / rays : 0.0,
               "count");
    report.add("hash_encoding.encode_ns_per_point",
               points > 0 ? enc_s / points * 1e9 : 0.0, "ns");
    report.add("mlp.forward_ns_per_point",
               points > 0 ? mlp_s / points * 1e9 : 0.0, "ns");
}

/** A fleet's counters, read when its measured pass has drained. */
struct FleetSnapshot
{
    FleetStats fleet;
    std::vector<ServeStats> shards;
    std::vector<TileCache::Stats> caches;
};

FleetSnapshot
snapshotFleet(ShardRouter &router)
{
    FleetSnapshot snap;
    snap.fleet = router.fleetStats();
    for (int s = 0; s < router.numShards(); s++) {
        snap.shards.push_back(router.shardService(s).stats());
        snap.caches.push_back(router.shardService(s).cacheStats());
    }
    return snap;
}

/**
 * The serving layer block. The routed numbers and counters come from
 * the measured pass itself; the router's added latency compares it with
 * the same schedule sent to one standalone RenderService holding all
 * the fleet's workers (whose responses are checked too).
 */
void
addServeLayerMetrics(const FleetShape &shape, const Setup &setup,
                     const std::vector<Req> &sched, const Pass &routed,
                     const std::vector<double> &routed_lat,
                     const FleetSnapshot &snap, References &refs,
                     Report &report)
{
    Pass alone;
    {
        Standalone sa(shape, setup.scenes, report);
        alone = runOpenLoop(sched, setup.scenes,
                            [&](const RenderRequest &r) {
                                return sa.service->submit(r);
                            });
    }
    const std::vector<double> alone_lat =
        checkPass("standalone", alone, sched, refs, report);
    const FleetStats &fleet = snap.fleet;

    std::vector<double> submit_us, late_ms, queue_ms, service_ms, render_ms;
    uint64_t from_cache = 0, rendered = 0;
    for (const Outcome &o : routed.out) {
        submit_us.push_back((o.submitEndS - o.submitS) * 1e6);
        late_ms.push_back((o.submitS - o.dueS) * 1e3);
        if (o.seen && o.resp.status == RequestStatus::Ok) {
            queue_ms.push_back(o.resp.queueMs);
            from_cache += static_cast<uint64_t>(o.resp.tilesFromCache);
            rendered += static_cast<uint64_t>(o.resp.tilesRendered);
        }
    }
    for (const Outcome &o : alone.out)
        if (o.seen && o.resp.status == RequestStatus::Ok) {
            service_ms.push_back(o.resp.totalMs);
            render_ms.push_back(o.resp.totalMs - o.resp.queueMs);
        }

    const double e2e_p50 = median(routed_lat);
    const double added_p50 = e2e_p50 - median(alone_lat);
    report.add("shard_router.added_ms_p50", added_p50, "ms");
    report.add("shard_router.added_ms_tail",
               tailOf(routed_lat).value - tailOf(alone_lat).value, "ms");
    report.add("shard_router.submit_us", median(submit_us), "us");
    report.add("shard_router.retries", static_cast<double>(fleet.retries),
               "count");
    report.add("shard_router.failovers",
               static_cast<double>(fleet.failovers), "count");

    uint64_t rays = 0, chunks = 0, cross = 0, highwater = 0, evictions = 0;
    for (const ServeStats &s : snap.shards) {
        rays += s.raysRendered;
        chunks += s.chunksRendered;
        cross += s.crossRequestChunks;
        highwater = std::max(highwater, s.queueDepthHighwater);
    }
    for (const TileCache::Stats &c : snap.caches)
        evictions += c.evictions;
    const double queue_p50 = median(queue_ms);
    const double render_p50 = median(render_ms);
    report.add("render_service.latency_p50_ms", median(service_ms), "ms");
    report.add("render_service.queue_ms_p50", queue_p50, "ms");
    report.add("render_service.rays_per_chunk",
               chunks ? static_cast<double>(rays) / chunks : 0.0, "count");
    report.add("render_service.cross_request_chunk_frac",
               chunks ? static_cast<double>(cross) / chunks : 0.0, "frac");
    report.add("render_service.queue_highwater",
               static_cast<double>(highwater), "count");

    const uint64_t tiles = from_cache + rendered;
    report.add("tile_cache.hit_rate",
               tiles ? static_cast<double>(from_cache) / tiles : 0.0, "frac");
    const double pre = static_cast<double>(fleet.prefetchTilesRendered);
    report.add("tile_cache.prefetch_hit_rate",
               pre > 0 ? fleet.prefetchHits / pre : 0.0, "frac");
    report.add("tile_cache.prefetch_waste_frac",
               pre > 0 ? fleet.prefetchWasted / pre : 0.0, "frac");
    report.add("tile_cache.evictions", static_cast<double>(evictions),
               "count");

    report.add("scene_registry.register_ms", median(setup.registerMs), "ms");
    report.add("serialize.save_ms", median(setup.saveMs), "ms");
    report.add("serve.unattributed_frac",
               unattributedFrac(e2e_p50, {added_p50, queue_p50, render_p50}),
               "frac");
    report.add("loadgen.late_ms_p50", median(late_ms), "ms");
    report.add("loadgen.late_ms_max",
               late_ms.empty() ? 0.0
                               : *std::max_element(late_ms.begin(),
                                                   late_ms.end()),
               "ms");
    report.add("loadgen.drain_ms", routed.drainMs, "ms");
    addRendererLayerMetrics(sched, refs, report);

    std::printf("# serving layers: %zu requests, tile-cache share %.3f, "
                "routed p50 %.3f ms vs standalone p50 %.3f ms\n",
                sched.size(),
                tiles ? static_cast<double>(from_cache) / tiles : 0.0,
                e2e_p50, median(alone_lat));
}

// -------------------------------------------------------------- setup

/**
 * Build the served scenes from nothing: datasets, from-scratch
 * training, checkpoints, then registration on a fresh fleet. With
 * `trace`, the first scene's training records the trainer layers.
 */
Setup
buildSetup(const RunContext &ctx, const FleetShape &shape, int rep,
           TrainTrace *trace, Report &report, HostInfo &host)
{
    Setup s;
    const double t0 = nowS();
    double eval_s = 0.0;
    const std::vector<std::string> names = ctx.params.items("scenes");
    const int iterations =
        static_cast<int>(ctx.params.num("scene_iterations"));
    const FieldConfig fcfg = shippedFieldConfig();
    for (size_t i = 0; i < names.size(); i++) {
        Dataset data = makeQuickstartDataset(names[i]);
        // The served models are the fleet's fixed content: their seed
        // is a workload constant, and --seed only draws the traffic.
        TrainConfig tcfg = shippedTrainConfig(
            static_cast<uint64_t>(ctx.params.num("scene_seed")) + i,
            ctx.nproc);
        Trainer trainer(data, fcfg, tcfg);
        TrainRun run = trainFor(trainer, data, tcfg, iterations,
                                i == 0 ? trace : nullptr,
                                ctx.params.list("probe_marks"), ctx.nproc);
        s.trainS += run.seconds;
        if (run.nonFiniteLosses)
            report.mismatch(names[i] + ": non-finite training loss");
        if (i == 0 && trace)
            addTrainLayerMetrics(*trace, report);

        double e0 = nowS();
        s.psnrDb += trainer.evalPsnr() / static_cast<double>(names.size());
        eval_s += nowS() - e0;

        SceneArtifact a;
        a.id = names[i];
        a.path = ctx.workDir + "/" + names[i] + "-" + std::to_string(rep) +
                 ".ckpt";
        a.spec.field = fcfg;
        a.spec.renderer = trainer.renderer().config();
        a.spec.useOccupancy = true;
        a.spec.occupancy = tcfg.occupancy;
        a.spec.seed = tcfg.seed;
        double c0 = nowS();
        CheckpointError err = trainer.saveCheckpoint(a.path);
        s.saveMs.push_back((nowS() - c0) * 1e3);
        if (err != CheckpointError::None)
            report.mismatch("checkpoint of '" + a.id +
                            "' failed: " + checkpointErrorName(err));
        s.scenes.push_back(a);
        host.kernelBackend = trainer.kernelBackendName();
        host.trainThreads = trainer.threadCount();
    }
    s.router = makeRouter(shape, s.scenes, &s.registerMs, report);
    s.seconds = nowS() - t0 - eval_s;
    return s;
}

} // namespace

void
runServe(const RunContext &ctx, Report &report, HostInfo &host)
{
    const bool preview = ctx.workload == "serve_preview";
    const FleetShape shape = fleetShape(ctx, preview, host);
    const double rate = ctx.params.num("rate_rps");
    // A traced run sets up three times: a warm-up (a process's first
    // set-up runs slower), untraced, then traced, so the trace's overhead
    // on training is measured on the same models in a warm process.
    const int setups =
        ctx.trace ? 3 : static_cast<int>(ctx.params.num("setups"));

    // Set-up, repeated; each repetition must reproduce the first's
    // models exactly (same seeds), which is checked by test PSNR.
    std::vector<double> setup_s, train_s;
    Setup setup;
    TrainTrace trace;
    for (int k = 0; k < setups; k++) {
        setup.router.reset();
        double psnr_before = setup.psnrDb;
        const bool traced = ctx.trace && k == setups - 1;
        setup = buildSetup(ctx, shape, k, traced ? &trace : nullptr, report,
                           host);
        setup_s.push_back(setup.seconds);
        train_s.push_back(setup.trainS);
        bool same = k == 0 || setup.psnrDb == psnr_before;
        if (!same)
            report.mismatch("set-up " + std::to_string(k) +
                            " trained different models than set-up 0");
        report.op(same && std::isfinite(setup.psnrDb));
    }

    const double setup_rss_mb = peakRssMb();
    const int num_scenes = static_cast<int>(setup.scenes.size());
    const std::vector<Req> sched =
        preview ? previewSchedule(ctx, num_scenes, rate, ctx.seconds)
                : fullSchedule(ctx, num_scenes, rate, ctx.seconds);
    // The measured pass runs on the set-up's own fleet. Responses are
    // hashed on arrival; the reference renders come afterwards, so the
    // RSS high-water mark is the program's, not the checker's.
    Pass pass = runOpenLoop(sched, setup.scenes,
                            [&](const RenderRequest &r) {
                                return setup.router->submit(r);
                            });
    const FleetSnapshot snap = snapshotFleet(*setup.router);
    setup.router.reset();
    const double peak_rss_mb = peakRssMb();
    References refs(setup.scenes, shape, report);
    refs.prepare(sched, ctx.nproc);
    const std::vector<double> lat =
        checkPass("measured", pass, sched, refs, report);

    if (!ctx.trace) {
        Tail tail = tailOf(lat);
        report.add("setup_s", median(setup_s), "s");
        report.add("peak_rss_mb", peak_rss_mb, "MB");
        report.add("train_s", median(train_s), "s");
        report.add("train_psnr_db", setup.psnrDb, "dB");
        report.add("latency_p50_ms", median(lat), "ms");
        report.add("latency_tail_ms", tail.value, "ms");
        std::printf("# %s: %zu requests at %.1f req/s; latency from due "
                    "time; tail = p%.3f of %zu (%zu beyond); drain %.1f "
                    "ms\n",
                    ctx.workload.c_str(), sched.size(), rate,
                    tail.percentile, tail.count, tail.beyond, pass.drainMs);
        // Where the latency distribution's modes sit: the share of
        // requests answered wholly from cache, and a few quantiles.
        size_t all_cached = 0;
        for (const Outcome &o : pass.out)
            all_cached += o.seen && o.resp.status == RequestStatus::Ok &&
                          o.resp.tilesRendered == 0;
        std::vector<double> sorted = lat;
        std::sort(sorted.begin(), sorted.end());
        std::printf("# requests served wholly from cache: %.3f\n"
                    "# latency quantiles (ms):",
                    static_cast<double>(all_cached) /
                        static_cast<double>(std::max<size_t>(1, lat.size())));
        for (double q : {0.5, 0.75, 0.9, 0.95, 0.98, 0.99})
            if (!sorted.empty())
                std::printf(" p%g %.3f", q * 100,
                            sorted[static_cast<size_t>(
                                q * static_cast<double>(sorted.size() - 1))]);
        std::printf("\n# peak RSS after set-up %.2f MB, after the pass %.2f MB"
                    "\n# set-ups (s):",
                    setup_rss_mb, peak_rss_mb);
        for (size_t k = 0; k < setup_s.size(); k++)
            std::printf(" %.3f (train %.3f)", setup_s[k], train_s[k]);
        std::printf("\n");
        return;
    }

    addServeLayerMetrics(shape, setup, sched, pass, lat, snap, refs, report);
    // Tracing runs only in set-up training (the serving passes carry
    // none), so its overhead is the traced training loop's time over
    // the untraced one just before it, both from the same seeds.
    report.add("trace_overhead_frac",
               train_s.back() / train_s[train_s.size() - 2] - 1.0, "frac");
}

} // namespace perfbench
