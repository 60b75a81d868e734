#include "serve/render_service.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace instant3d {

/** In-flight request state shared by its tile jobs. */
struct RenderService::Pending
{
    uint64_t id = 0;
    ServedScenePtr scene;
    uint64_t generation = 0;
    CameraSpec rawSpec; //!< As submitted (pre-quantization).
    CameraSpec spec;    //!< Quantized on the served tier's lattice.
    Camera camera;
    uint64_t cameraKey = 0;
    TileRect roi;
    QualityTier tier = QualityTier::Full; //!< Requested tier.

    /**
     * Tier the request renders at. Set at admission (possibly degraded
     * under queueMtx), optionally stepped down once more by the
     * scheduler's deadline-risk check before any of the request's
     * tiles dispatch; stable from then on. All writes are ordered
     * before worker reads by the queue lock / pool handoff.
     */
    int servedTier = 0;
    int minTier = 0; //!< Numeric max tier degradation may reach.
    bool deadlineChecked = false; //!< Scheduler-only: risk check done.

    double submitT = 0.0;
    double deadlineMs = 0.0;
    std::atomic<double> firstDequeueT{0.0};
    Image image; //!< roi-sized output; tiles write disjoint pixels.
    std::atomic<int> remaining{0};
    std::atomic<uint8_t> failStatus{
        static_cast<uint8_t>(RequestStatus::Ok)};
    std::atomic<int> tilesRendered{0};
    std::atomic<int> tilesCached{0};
    RenderDone done;

    /**
     * TraceContext: adopted from the request (router-owned) or begun
     * here when this service is the first tracing-aware layer, in
     * which case ownsTrace is set and finishTile() completes it.
     */
    obs::RequestTracePtr trace;
    bool ownsTrace = false;

    explicit Pending(const Camera &cam) : camera(cam) {}

    /** Record the first terminal failure; later ones are ignored. */
    void
    markFailed(RequestStatus status)
    {
        uint8_t expected = static_cast<uint8_t>(RequestStatus::Ok);
        failStatus.compare_exchange_strong(
            expected, static_cast<uint8_t>(status));
    }

    bool
    failed() const
    {
        return failStatus.load(std::memory_order_acquire) !=
               static_cast<uint8_t>(RequestStatus::Ok);
    }
};

/**
 * One predicted frame of one viewer, shared by its speculative tile
 * jobs. Carries everything a render needs (the ServedScenePtr pins the
 * model against eviction) plus the viewer epoch it was predicted at:
 * a newer prediction for the same viewer bumps the shared epoch, which
 * cancels still-queued tiles of this batch at dequeue.
 */
struct RenderService::PrefetchBatch
{
    ServedScenePtr scene;
    uint64_t generation = 0;
    CameraSpec spec; //!< Predicted, snapped on the tier's lattice.
    Camera camera;
    uint64_t cameraKey = 0;
    QualityTier tier = QualityTier::Full;
    uint64_t epoch = 0;
    std::shared_ptr<std::atomic<uint64_t>> viewerEpoch;

    explicit PrefetchBatch(const Camera &cam) : camera(cam) {}

    bool
    superseded() const
    {
        return viewerEpoch->load(std::memory_order_relaxed) != epoch;
    }
};

RenderService::RenderService(SceneRegistry &scene_registry,
                             const RenderServiceConfig &service_config)
    : registry(scene_registry), cfg(service_config),
      cache(static_cast<size_t>(std::max(0, service_config.cacheTiles)),
            static_cast<size_t>(
                std::max(0LL, service_config.cacheBytes)))
{
    fatalIf(cfg.tilePixels < 1, "tilePixels must be positive");
    fatalIf(cfg.chunkRays < 1, "chunkRays must be positive");
    fatalIf(cfg.maxQueueTiles < 1, "maxQueueTiles must be positive");
    fatalIf(cfg.maxQueueTilesDegraded != 0 &&
                cfg.maxQueueTilesDegraded < cfg.maxQueueTiles,
            "maxQueueTilesDegraded must be 0 (auto) or >= maxQueueTiles");
    fatalIf(cfg.deadlineRiskFraction <= 0.0 ||
                cfg.deadlineRiskFraction > 1.0,
            "deadlineRiskFraction must be in (0, 1]");
    fatalIf(cfg.cameraLattice[0] != fullCameraLattice,
            "Full-tier camera lattice is pinned to 1/4096 "
            "(bit-identity contract)");
    for (int t = 1; t < numQualityTiers; t++)
        fatalIf(cfg.cameraLattice[t] <= 0.0f,
                "camera lattice denominators must be positive");
    fatalIf(cfg.prefetch && cfg.cacheTiles <= 0,
            "prefetch renders into the tile cache; enable cacheTiles");
    fatalIf(cfg.prefetch && cfg.maxPrefetchTiles < 1,
            "maxPrefetchTiles must be positive with prefetch on");
    fatalIf(cfg.prefetch && cfg.prefetchHistory < 2,
            "prefetchHistory needs >= 2 specs for velocity");
    pool = std::make_unique<ThreadPool>(cfg.workers);
    workspaces.resize(pool->threadCount());

    obsGroup = obs::nextTrackGroup();
    obs::TraceRing::global().setTrackName(
        obsGroup, "render-service-" + std::to_string(obsGroup));
    auto &metrics = obs::MetricsRegistry::global();
    histQueueMs = &metrics.histogram("serve.queue_ms");
    histTotalMs = &metrics.histogram("serve.total_ms");
    histChunkMs = &metrics.histogram("serve.chunk_render_ms");
    obsCollector = metrics.addCollector(
        [this](obs::MetricsSink &sink) { collectMetrics(sink); });

    scheduler = std::thread([this] { schedulerLoop(); });
}

RenderService::~RenderService()
{
    // Deregister first: removeCollector synchronizes against an
    // in-flight snapshot, so no collector can touch a dying service.
    obs::MetricsRegistry::global().removeCollector(obsCollector);
    stop();
}

void
RenderService::collectMetrics(obs::MetricsSink &sink) const
{
    const ServeStats s = stats();
    sink.counter("serve.requests_accepted", s.requestsAccepted);
    sink.counter("serve.requests_completed", s.requestsCompleted);
    sink.counter("serve.requests_rejected", s.requestsRejected);
    sink.counter("serve.requests_deadline_exceeded",
                 s.requestsDeadlineExceeded);
    sink.counter("serve.requests_cold_start", s.requestsColdStart);
    sink.counter("serve.requests_degraded", s.requestsDegraded);
    sink.counter("serve.tiles_rendered", s.tilesRendered);
    sink.counter("serve.tiles_from_cache", s.tilesFromCache);
    sink.counter("serve.rays_rendered", s.raysRendered);
    sink.counter("serve.chunks_rendered", s.chunksRendered);
    sink.counter("serve.cross_request_chunks", s.crossRequestChunks);
    sink.counter("serve.prefetch_tiles_rendered",
                 s.prefetchTilesRendered);
    sink.gauge("serve.outstanding_tiles",
               static_cast<double>(outstandingTileCount()));
    const TileCache::Stats cs = cache.stats();
    sink.gauge("serve.cache_entries", static_cast<double>(cs.entries));
    sink.gauge("serve.cache_bytes", static_cast<double>(cs.bytesHeld));
}

void
RenderService::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMtx);
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        stopping = true;
    }
    queueCv.notify_all();
    if (scheduler.joinable())
        scheduler.join();
    stoppedFlag.store(true, std::memory_order_release);
}

std::future<RenderResponse>
RenderService::submit(const RenderRequest &request)
{
    auto promise = std::make_shared<std::promise<RenderResponse>>();
    std::future<RenderResponse> future = promise->get_future();
    submit(request, [promise](RenderResponse resp) {
        promise->set_value(std::move(resp));
    });
    return future;
}

void
RenderService::submit(const RenderRequest &request, RenderDone done)
{
    // TraceContext: adopt the router's trace, or begin one here --
    // this service is then the first tracing-aware layer, owns the
    // trace, and completes it (in finishTile for admitted requests,
    // via answerEarly below otherwise).
    obs::RequestTracePtr trace = request.trace;
    bool owns_trace = false;
    if (!trace) {
        trace = obs::beginTrace(request.sceneId); // null when disabled
        owns_trace = trace != nullptr;
    }
    // The span closes before the request can complete, so no trace is
    // answered with its admission span still missing.
    std::optional<obs::ScopedSpan> admission;
    admission.emplace(trace.get(), "serve.admission", obsGroup, 0);
    auto answerEarly = [&](RequestStatus status, int retry_after_ms) {
        admission.reset();
        if (trace) {
            trace->note("status", requestStatusName(status));
            if (owns_trace)
                obs::TraceRing::global().complete(
                    trace, (monotonicSeconds() - trace->beginT()) * 1e3);
        }
        done(statusResponse(status, retry_after_ms));
    };

    if (request.camera.width < 1 || request.camera.height < 1 ||
        static_cast<int>(request.quality) < 0 ||
        static_cast<int>(request.quality) >= numQualityTiers ||
        static_cast<int>(request.minQuality) < 0 ||
        static_cast<int>(request.minQuality) >= numQualityTiers) {
        statBadRequest.fetch_add(1, std::memory_order_relaxed);
        return answerEarly(RequestStatus::BadRequest, 0);
    }

    // Capacity-aware acquire: a warm scene is pinned by this request's
    // shared_ptr for its whole lifetime (eviction can never drop an
    // in-flight render); a cold scene answers ColdStart immediately --
    // the acquire itself begins (or joins) the single-flight reload --
    // so no client or router thread ever blocks on a checkpoint load
    // here.
    AcquireOutcome acq = registry.acquireOrLoad(request.sceneId);
    if (acq.state == SceneState::Absent) {
        statUnknownScene.fetch_add(1, std::memory_order_relaxed);
        return answerEarly(RequestStatus::UnknownScene, 0);
    }
    if (acq.state == SceneState::Quarantined) {
        statSceneUnavailable.fetch_add(1, std::memory_order_relaxed);
        return answerEarly(RequestStatus::SceneUnavailable, 0);
    }
    if (!acq.scene) { // Cold or Loading: reload in flight.
        statColdStart.fetch_add(1, std::memory_order_relaxed);
        return answerEarly(RequestStatus::ColdStart, acq.retryAfterMs);
    }
    ServedScenePtr scene = std::move(acq.scene);

    // Snap the camera onto the *requested tier's* quantization lattice
    // up front: the snapped camera is what gets rendered AND what keys
    // the cache, so a cache hit is bit-exact for the camera actually
    // served. If admission degrades the tier below, the spec is
    // re-snapped from the raw camera onto the served tier's lattice.
    CameraSpec spec = request.camera.quantized(
        latticeFor(static_cast<int>(request.quality)));
    TileRect roi = request.roi;
    if (roi.w == 0) {
        roi = {0, 0, spec.width, spec.height};
    }
    if (roi.w < 1 || roi.h < 1 || roi.x < 0 || roi.y < 0 ||
        roi.x + roi.w > spec.width || roi.y + roi.h > spec.height) {
        statBadRequest.fetch_add(1, std::memory_order_relaxed);
        return answerEarly(RequestStatus::BadRequest, 0);
    }

    // Tile split (row-major over the roi).
    std::vector<TileRect> tiles;
    for (int ty = roi.y; ty < roi.y + roi.h; ty += cfg.tilePixels) {
        int th = std::min(cfg.tilePixels, roi.y + roi.h - ty);
        for (int tx = roi.x; tx < roi.x + roi.w; tx += cfg.tilePixels) {
            int tw = std::min(cfg.tilePixels, roi.x + roi.w - tx);
            tiles.push_back({tx, ty, tw, th});
        }
    }
    // Larger than the whole admission window: no amount of retrying
    // can ever admit it, so don't pretend the overload is transient.
    if (tiles.size() > static_cast<size_t>(cfg.maxQueueTiles)) {
        statBadRequest.fetch_add(1, std::memory_order_relaxed);
        return answerEarly(RequestStatus::BadRequest, 0);
    }

    auto req = std::make_shared<Pending>(spec.makeCamera());
    req->id = nextRequestId.fetch_add(1, std::memory_order_relaxed);
    req->scene = std::move(scene);
    req->generation = req->scene->generation();
    req->rawSpec = request.camera;
    req->spec = spec;
    req->cameraKey =
        spec.hashKey(latticeFor(static_cast<int>(request.quality)));
    req->roi = roi;
    req->tier = request.quality;
    req->servedTier = static_cast<int>(request.quality);
    // minQuality values *better* than the requested tier are clamped
    // to it (a request cannot forbid the tier it asked for).
    req->minTier = std::max(static_cast<int>(request.quality),
                            static_cast<int>(request.minQuality));
    req->submitT = monotonicSeconds();
    req->deadlineMs = request.deadlineMs;
    req->image = Image(roi.w, roi.h);
    req->remaining.store(static_cast<int>(tiles.size()),
                         std::memory_order_relaxed);
    req->trace = trace;
    req->ownsTrace = owns_trace;

    // servedTier may be mutated by the scheduler (deadline-risk check)
    // once the tiles are visible, so the predictor takes the admission
    // tier captured under the lock rather than re-reading the shared
    // field after publication.
    int admitted_tier = req->servedTier;
    // A refusal is decided under the queue lock but answered after it:
    // the callback may submit to another service, so it never runs
    // while this one holds a lock.
    RequestStatus refusal = RequestStatus::Ok;
    int hint = 0;
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        // Backpressure: bounded admission over *outstanding* tiles
        // (queued + rendering). Past maxQueueTiles the request is
        // degraded one tier per full window of depth (when policy and
        // the request's minQuality allow) or rejected with a
        // load-proportional retry-after hint.
        const size_t outstanding =
            outstandingTiles.load(std::memory_order_relaxed);
        const size_t depth = outstanding + tiles.size();
        const size_t window = static_cast<size_t>(cfg.maxQueueTiles);
        if (stopping) {
            refusal = RequestStatus::Shutdown;
        } else if (depth > window) {
            bool admitted = false;
            if (cfg.degradeUnderLoad) {
                const size_t hard_cap =
                    cfg.maxQueueTilesDegraded > 0
                        ? static_cast<size_t>(cfg.maxQueueTilesDegraded)
                        : 4 * window;
                const int levels = static_cast<int>(std::min<size_t>(
                    (depth - 1) / window, numQualityTiers - 1));
                const int target = std::min(
                    std::min(static_cast<int>(request.quality) + levels,
                             numQualityTiers - 1),
                    req->minTier);
                if (depth <= hard_cap && target > req->servedTier) {
                    req->servedTier = target;
                    // Re-snap onto the served tier's lattice so the
                    // rendered camera and the cache key agree with the
                    // tier actually served.
                    const float lat = latticeFor(target);
                    req->spec = req->rawSpec.quantized(lat);
                    req->cameraKey = req->rawSpec.hashKey(lat);
                    req->camera = req->spec.makeCamera();
                    statAdmissionDegraded.fetch_add(
                        1, std::memory_order_relaxed);
                    if (trace)
                        trace->note(
                            "admission_degraded",
                            std::to_string(
                                target -
                                static_cast<int>(request.quality)));
                    admitted = true;
                }
            }
            if (!admitted) {
                const double scale =
                    static_cast<double>(
                        std::max(outstanding, window)) /
                    static_cast<double>(window);
                hint = std::max(1, static_cast<int>(
                                       std::ceil(cfg.retryAfterMs * scale)));
                refusal = RequestStatus::Rejected;
            }
        }
        if (refusal == RequestStatus::Ok) {
            admission.reset();
            req->done = std::move(done);
            // Two-level demand queue: deadline-bearing tiles go to the
            // EDF level keyed by absolute deadline (one request's tiles
            // share the key and stay contiguous), the rest keep arrival
            // order.
            if (req->deadlineMs > 0.0) {
                const double deadline_at =
                    req->submitT + req->deadlineMs / 1e3;
                for (const auto &t : tiles)
                    deadlineQueue.emplace(deadline_at,
                                          TileJob{req, nullptr, t});
            } else {
                for (const auto &t : tiles)
                    fifoQueue.push_back({req, nullptr, t});
            }
            uint64_t new_depth =
                outstandingTiles.fetch_add(tiles.size(),
                                           std::memory_order_relaxed) +
                tiles.size();
            uint64_t hw =
                statQueueHighwater.load(std::memory_order_relaxed);
            while (new_depth > hw &&
                   !statQueueHighwater.compare_exchange_weak(
                       hw, new_depth, std::memory_order_relaxed)) {
            }
            admitted_tier = req->servedTier;
        }
    }
    if (refusal == RequestStatus::Rejected)
        statRejected.fetch_add(1, std::memory_order_relaxed);
    if (refusal != RequestStatus::Ok)
        return answerEarly(refusal, hint);
    statAccepted.fetch_add(1, std::memory_order_relaxed);
    queueCv.notify_one();
    maybeEnqueuePrefetch(request, req->scene, roi, admitted_tier);
}

namespace {

/** Viewer-map GC bound: least-recently-seen entries age out past it. */
constexpr size_t kMaxTrackedViewers = 1024;

bool
specsEqual(const CameraSpec &a, const CameraSpec &b)
{
    auto veq = [](const Vec3 &u, const Vec3 &v) {
        return u.x == v.x && u.y == v.y && u.z == v.z;
    };
    return veq(a.eye, b.eye) && veq(a.target, b.target) &&
           veq(a.up, b.up) && a.vfovDeg == b.vfovDeg &&
           a.width == b.width && a.height == b.height;
}

} // namespace

void
RenderService::maybeEnqueuePrefetch(const RenderRequest &request,
                                    const ServedScenePtr &scene,
                                    const TileRect &roi,
                                    int served_tier)
{
    if (!cfg.prefetch || request.viewerId.empty())
        return;

    // Record the observation on the fine (1/4096) lattice -- tier
    // switches must not perturb the velocity estimate -- then predict
    // the next frame under constant velocity from the last two specs.
    // Every observation bumps the viewer's epoch, superseding any
    // still-queued prediction: even a viewer that stops moving
    // invalidates the motion its old prediction extrapolated.
    const CameraSpec seen = request.camera.quantized();
    CameraSpec prev, last;
    std::shared_ptr<std::atomic<uint64_t>> epoch_ptr;
    uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lock(viewerMtx);
        ViewerState &vs = viewers[request.viewerId];
        vs.lastTouch = ++viewerTouch;
        vs.history.push_back(seen);
        if (vs.history.size() >
            static_cast<size_t>(cfg.prefetchHistory))
            vs.history.erase(vs.history.begin());
        epoch = vs.epoch->fetch_add(1, std::memory_order_relaxed) + 1;
        epoch_ptr = vs.epoch;
        if (viewers.size() > kMaxTrackedViewers) {
            auto oldest = viewers.end();
            for (auto it = viewers.begin(); it != viewers.end(); ++it)
                if (it->first != request.viewerId &&
                    (oldest == viewers.end() ||
                     it->second.lastTouch < oldest->second.lastTouch))
                    oldest = it;
            if (oldest != viewers.end())
                viewers.erase(oldest);
        }
        if (vs.history.size() < 2)
            return;
        prev = vs.history[vs.history.size() - 2];
        last = vs.history.back();
    }
    if (specsEqual(prev, last))
        return; // Static viewer: nothing to extrapolate.

    CameraSpec pred = last;
    pred.eye = last.eye + (last.eye - prev.eye);
    pred.target = last.target + (last.target - prev.target);
    pred.up = last.up + (last.up - prev.up);
    pred.vfovDeg = last.vfovDeg + (last.vfovDeg - prev.vfovDeg);

    const float lat = latticeFor(served_tier);
    const CameraSpec spec = pred.quantized(lat);
    // A prediction that lands in the current frame's lattice cell is
    // already being rendered (and cached) by the demand request.
    if (specsEqual(spec, request.camera.quantized(lat)))
        return;

    auto batch = std::make_shared<PrefetchBatch>(spec.makeCamera());
    batch->scene = scene;
    batch->generation = scene->generation();
    batch->spec = spec;
    batch->cameraKey = spec.hashKey(lat);
    batch->tier = static_cast<QualityTier>(served_tier);
    batch->epoch = epoch;
    batch->viewerEpoch = std::move(epoch_ptr);

    size_t enqueued = 0;
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        if (stopping)
            return;
        for (int ty = roi.y; ty < roi.y + roi.h; ty += cfg.tilePixels) {
            int th = std::min(cfg.tilePixels, roi.y + roi.h - ty);
            for (int tx = roi.x; tx < roi.x + roi.w;
                 tx += cfg.tilePixels) {
                int tw = std::min(cfg.tilePixels, roi.x + roi.w - tx);
                prefetchQueue.push_back(
                    {nullptr, batch, {tx, ty, tw, th}});
                enqueued++;
            }
        }
        // Bound the speculative backlog; the oldest predictions are
        // the stalest, so they cancel first.
        while (prefetchQueue.size() >
               static_cast<size_t>(cfg.maxPrefetchTiles)) {
            prefetchQueue.pop_front();
            statPrefetchCancelled.fetch_add(1,
                                            std::memory_order_relaxed);
        }
    }
    statPrefetchEnqueued.fetch_add(enqueued,
                                   std::memory_order_relaxed);
    queueCv.notify_one();
}

RenderResponse
RenderService::render(const RenderRequest &request)
{
    const double t0 = monotonicSeconds();
    RenderResponse resp = submit(request).get();
    // Blocking callers absorb cold starts: wait for the single-flight
    // reload (bounded by the deadline when one is set, else until the
    // load settles) and resubmit. The attempt cap only guards against
    // a scene that keeps getting re-evicted between warm-up and
    // resubmission under extreme budget pressure.
    for (int attempt = 0;
         resp.status == RequestStatus::ColdStart && attempt < 4;
         attempt++) {
        double wait_ms = 0.0; // 0 = until the load settles
        if (request.deadlineMs > 0.0) {
            wait_ms = request.deadlineMs - (monotonicSeconds() - t0) * 1000.0;
            if (wait_ms <= 0.0)
                break;
        }
        if (!registry.awaitWarm(request.sceneId, wait_ms))
            break;
        resp = submit(request).get();
    }
    // The blocking caller's latency includes every cold-start wait and
    // resubmission above, not just the final attempt's queue-to-finish
    // time -- restamp totalMs end-to-end (mirroring what ShardRouter
    // does for routed requests).
    resp.totalMs = (monotonicSeconds() - t0) * 1e3;
    return resp;
}

void
RenderService::invalidateScene(const std::string &scene_id)
{
    cache.invalidateScene(scene_id);
}

void
RenderService::finishTile(const std::shared_ptr<Pending> &req,
                          bool rendered, bool from_cache)
{
    outstandingTiles.fetch_sub(1, std::memory_order_relaxed);
    if (rendered)
        req->tilesRendered.fetch_add(1, std::memory_order_relaxed);
    if (from_cache)
        req->tilesCached.fetch_add(1, std::memory_order_relaxed);
    if (req->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;

    // Last tile: whoever gets here completes the request.
    double t = monotonicSeconds();
    RenderResponse resp;
    resp.status = static_cast<RequestStatus>(
        req->failStatus.load(std::memory_order_acquire));
    resp.image = std::move(req->image);
    resp.sceneGeneration = req->generation;
    resp.tilesRendered =
        req->tilesRendered.load(std::memory_order_relaxed);
    resp.tilesFromCache =
        req->tilesCached.load(std::memory_order_relaxed);
    double first =
        req->firstDequeueT.load(std::memory_order_relaxed);
    resp.queueMs =
        first > 0.0 ? (first - req->submitT) * 1e3 : 0.0;
    resp.totalMs = (t - req->submitT) * 1e3;
    resp.servedQuality = static_cast<QualityTier>(req->servedTier);
    resp.degradeLevels = req->servedTier - static_cast<int>(req->tier);
    if (resp.status == RequestStatus::Ok) {
        statServedTier[req->servedTier].fetch_add(
            1, std::memory_order_relaxed);
        if (resp.degradeLevels > 0)
            statDegraded.fetch_add(1, std::memory_order_relaxed);
    }
    if (resp.status == RequestStatus::DeadlineExceeded)
        statDeadline.fetch_add(1, std::memory_order_relaxed);
    statCompleted.fetch_add(1, std::memory_order_relaxed);
    histTotalMs->record(resp.totalMs);
    if (req->trace) {
        req->trace->note("status", requestStatusName(resp.status));
        req->trace->note("served_tier",
                         std::to_string(req->servedTier));
        if (resp.degradeLevels > 0)
            req->trace->note("degrade_levels",
                             std::to_string(resp.degradeLevels));
        if (req->ownsTrace)
            obs::TraceRing::global().complete(req->trace,
                                              resp.totalMs);
    }
    req->done(std::move(resp));
}

void
RenderService::renderChunk(const Chunk &chunk, int rank)
{
    // Armed in tests/benches to widen the in-flight window and make
    // queue-depth scenarios reproducible on fast machines.
    fault::maybeDelay(fault::Point::ChunkRenderDelay);

    const bool tracing = obs::enabled();
    const double chunk_t0 = tracing ? monotonicSeconds() : 0.0;

    Workspace &ws = workspaces[rank];
    ws.reset();

    Ray *rays = ws.alloc<Ray>(chunk.rays);
    RayResult *results = ws.alloc<RayResult>(chunk.rays);

    int off = 0;
    for (const auto &job : chunk.tiles) {
        const Camera &cam =
            job.req ? job.req->camera : job.pre->camera;
        for (int row = job.tile.y; row < job.tile.y + job.tile.h; row++)
            for (int col = job.tile.x; col < job.tile.x + job.tile.w;
                 col++)
                rays[off++] = cam.pixelRay(col, row);
    }

    chunk.scene->renderer(chunk.tier)
        .renderRays(chunk.scene->field(), rays, chunk.rays, results,
                    ws);

    const double t_rendered = tracing ? monotonicSeconds() : 0.0;
    // When tracing, demand tiles retire *after* the chunk's spans
    // attach to their traces below, so a service-owned trace never
    // completes with its last render span still missing.
    std::vector<std::shared_ptr<Pending>> finished;

    const bool caching = cfg.cacheTiles > 0;
    off = 0;
    for (const auto &job : chunk.tiles) {
        if (job.pre) {
            // Speculative tile: pixels go to the cache only -- there
            // is no pending request to answer.
            const auto &pb = *job.pre;
            std::vector<Vec3> pixels(static_cast<size_t>(job.tile.w) *
                                     job.tile.h);
            for (int py = 0; py < job.tile.h; py++)
                for (int px = 0; px < job.tile.w; px++)
                    pixels[static_cast<size_t>(py) * job.tile.w + px] =
                        results[off++].color;
            TileKey key{pb.scene->id(), pb.generation, pb.cameraKey,
                        pb.spec, job.tile.x, job.tile.y, job.tile.w,
                        job.tile.h, pb.tier};
            cache.insert(key, std::move(pixels), /*prefetched=*/true);
            statPrefetchRendered.fetch_add(1,
                                           std::memory_order_relaxed);
            continue;
        }
        const auto &req = job.req;
        std::vector<Vec3> pixels;
        if (caching)
            pixels.resize(static_cast<size_t>(job.tile.w) *
                          job.tile.h);
        for (int py = 0; py < job.tile.h; py++) {
            for (int px = 0; px < job.tile.w; px++) {
                const Vec3 &color = results[off++].color;
                req->image.at(job.tile.x - req->roi.x + px,
                              job.tile.y - req->roi.y + py) = color;
                if (caching)
                    pixels[static_cast<size_t>(py) * job.tile.w +
                           px] = color;
            }
        }
        if (caching) {
            TileKey key{req->scene->id(), req->generation,
                        req->cameraKey, req->spec,
                        job.tile.x, job.tile.y, job.tile.w,
                        job.tile.h,
                        static_cast<QualityTier>(req->servedTier)};
            cache.insert(key, std::move(pixels));
        }

        statTilesRendered.fetch_add(1, std::memory_order_relaxed);
        if (tracing)
            finished.push_back(req);
        else
            finishTile(req, true, false);
    }
    // Prefetch rays are accounted separately so demand-side
    // throughput metrics (rays/chunk) keep their meaning.
    if (chunk.speculative)
        statPrefetchRays.fetch_add(static_cast<uint64_t>(chunk.rays),
                                   std::memory_order_relaxed);
    else
        statRays.fetch_add(static_cast<uint64_t>(chunk.rays),
                           std::memory_order_relaxed);

    if (tracing) {
        const double t_done = monotonicSeconds();
        histChunkMs->record((t_rendered - chunk_t0) * 1e3);

        // One render + scatter span per distinct participating
        // request; one request's tiles are contiguous in the chunk,
        // so a pointer change marks a new request.
        obs::RequestTrace *last_trace = nullptr;
        for (const auto &job : chunk.tiles) {
            if (!job.req || !job.req->trace ||
                job.req->trace.get() == last_trace)
                continue;
            last_trace = job.req->trace.get();
            obs::TraceSpan render_span;
            render_span.name = "serve.render_chunk";
            render_span.beginT = chunk_t0;
            render_span.endT = t_rendered;
            render_span.trackGroup = obsGroup;
            render_span.track = rank + 1;
            render_span.args = {{"rays", std::to_string(chunk.rays)}};
            last_trace->addSpan(std::move(render_span));
            obs::TraceSpan scatter_span;
            scatter_span.name = "serve.cache_scatter";
            scatter_span.beginT = t_rendered;
            scatter_span.endT = t_done;
            scatter_span.trackGroup = obsGroup;
            scatter_span.track = rank + 1;
            last_trace->addSpan(std::move(scatter_span));
        }
        for (const auto &req : finished)
            finishTile(req, true, false);

        // The request-less worker-activity span goes last: it only
        // feeds the Perfetto timeline, so the global ring lock stays
        // off the client-wakeup critical path above.
        obs::TraceSpan act;
        act.name = chunk.speculative ? "serve.prefetch_chunk"
                                     : "serve.render_chunk";
        act.beginT = chunk_t0;
        act.endT = t_done;
        act.trackGroup = obsGroup;
        act.track = rank + 1; // tid 0 is the scheduler.
        act.args = {{"rays", std::to_string(chunk.rays)},
                    {"tiles", std::to_string(chunk.tiles.size())}};
        obs::TraceRing::global().recordActivity(std::move(act));
    }
}

void
RenderService::schedulerLoop()
{
    for (;;) {
        std::vector<TileJob> drained;
        bool stop_now = false;
        {
            std::unique_lock<std::mutex> lock(queueMtx);
            queueCv.wait(lock, [&] {
                return stopping || !deadlineQueue.empty() ||
                       !fifoQueue.empty() || !prefetchQueue.empty();
            });
            stop_now = stopping;
            if (stop_now) {
                // Take everything: demand tiles resolve Shutdown
                // below; speculative tiles are simply dropped.
                for (auto &kv : deadlineQueue)
                    drained.push_back(std::move(kv.second));
                deadlineQueue.clear();
                drained.insert(
                    drained.end(),
                    std::make_move_iterator(fifoQueue.begin()),
                    std::make_move_iterator(fifoQueue.end()));
                fifoQueue.clear();
                statPrefetchCancelled.fetch_add(
                    prefetchQueue.size(), std::memory_order_relaxed);
                prefetchQueue.clear();
            } else {
                // Budget-bounded pull in priority order: the EDF level
                // (earliest absolute deadline first) ahead of the FIFO
                // level, so an urgent late arrival overtakes queued
                // no-deadline tiles at the next pass. Speculative
                // tiles dispatch only when no demand tile is queued,
                // and at most one chunk's worth per pass so a demand
                // arrival waits behind a single prefetch chunk at
                // worst.
                const long budget =
                    static_cast<long>(pool->threadCount()) *
                    cfg.chunkRays;
                long rays = 0;
                while (!deadlineQueue.empty() && rays < budget) {
                    auto it = deadlineQueue.begin();
                    rays += static_cast<long>(it->second.tile.w) *
                            it->second.tile.h;
                    drained.push_back(std::move(it->second));
                    deadlineQueue.erase(it);
                }
                while (!fifoQueue.empty() && rays < budget) {
                    TileJob &front = fifoQueue.front();
                    rays += static_cast<long>(front.tile.w) *
                            front.tile.h;
                    drained.push_back(std::move(front));
                    fifoQueue.pop_front();
                }
                if (drained.empty()) {
                    long spec_rays = 0;
                    while (!prefetchQueue.empty() &&
                           spec_rays < cfg.chunkRays) {
                        TileJob &front = prefetchQueue.front();
                        spec_rays += static_cast<long>(front.tile.w) *
                                     front.tile.h;
                        drained.push_back(std::move(front));
                        prefetchQueue.pop_front();
                    }
                }
            }
            // outstandingTiles stays up: drained demand tiles are
            // still in flight until finishTile() retires them.
        }

        if (stop_now) {
            for (auto &job : drained) {
                if (!job.req)
                    continue;
                job.req->markFailed(RequestStatus::Shutdown);
                finishTile(job.req, false, false);
            }
            return;
        }

        // Armed in tests/benches to stall dispatch and let the
        // admission queue build up deterministically.
        fault::maybeDelay(fault::Point::SchedulerStall);

        const double t = monotonicSeconds();
        std::vector<Chunk> chunks;
        // Open chunk per (scene, tier) coalescing key, so tiles from
        // different requests to the same model pack into one stream.
        // A pass is all-demand or all-speculative, so a chunk never
        // mixes the two classes.
        std::map<std::pair<ServedScene *, int>, size_t> open;
        auto packTile = [&](ServedScene *sc, QualityTier tier,
                            bool speculative, TileJob &&job) {
            const int tile_rays = job.tile.w * job.tile.h;
            auto ckey = std::make_pair(sc, static_cast<int>(tier));
            auto it = open.find(ckey);
            if (it == open.end() ||
                chunks[it->second].rays + tile_rays > cfg.chunkRays) {
                Chunk c;
                c.scene = sc;
                c.tier = tier;
                c.speculative = speculative;
                open[ckey] = chunks.size();
                chunks.push_back(std::move(c));
                it = open.find(ckey);
            }
            Chunk &c = chunks[it->second];
            c.rays += tile_rays;
            c.tiles.push_back(std::move(job));
        };

        for (auto &job : drained) {
            if (job.pre) {
                // Speculative tile: cancel (never render) when a newer
                // prediction for the viewer superseded this batch or
                // demand traffic already rendered the key.
                const auto &pb = *job.pre;
                TileKey key{pb.scene->id(), pb.generation,
                            pb.cameraKey, pb.spec, job.tile.x,
                            job.tile.y, job.tile.w, job.tile.h,
                            pb.tier};
                if (pb.superseded() || cache.contains(key)) {
                    statPrefetchCancelled.fetch_add(
                        1, std::memory_order_relaxed);
                    continue;
                }
                ServedScene *sc = pb.scene.get();
                packTile(sc, pb.tier, true, std::move(job));
                continue;
            }
            const auto &req = job.req;
            double expected = 0.0;
            if (req->firstDequeueT.compare_exchange_strong(
                    expected, t, std::memory_order_relaxed)) {
                // First dequeue of this request: its admission-queue
                // wait is settled.
                histQueueMs->record((t - req->submitT) * 1e3);
                if (req->trace) {
                    obs::TraceSpan span;
                    span.name = "serve.queue_wait";
                    span.beginT = req->submitT;
                    span.endT = t;
                    span.trackGroup = obsGroup;
                    span.track = 0; // Scheduler track.
                    req->trace->addSpan(std::move(span));
                }
            }

            if (req->failed()) {
                finishTile(req, false, false);
                continue;
            }
            if (req->deadlineMs > 0.0 &&
                (t - req->submitT) * 1e3 > req->deadlineMs) {
                req->markFailed(RequestStatus::DeadlineExceeded);
                finishTile(req, false, false);
                continue;
            }
            // Deadline-risk degradation, decided once per request at
            // its first dequeue. Only the scheduler thread runs this,
            // and the scheduler blocks in the dispatch below until the
            // pass's chunks complete -- so the tier (and the re-snap
            // onto its lattice) is settled before any of the request's
            // tiles dispatch, even when a large request's tiles pull
            // across several passes.
            if (!req->deadlineChecked) {
                req->deadlineChecked = true;
                if (cfg.degradeUnderLoad && req->deadlineMs > 0.0 &&
                    (t - req->submitT) * 1e3 >
                        cfg.deadlineRiskFraction * req->deadlineMs &&
                    req->servedTier < req->minTier) {
                    req->servedTier++;
                    const float lat = latticeFor(req->servedTier);
                    req->spec = req->rawSpec.quantized(lat);
                    req->cameraKey = req->rawSpec.hashKey(lat);
                    req->camera = req->spec.makeCamera();
                    statDeadlineDegraded.fetch_add(
                        1, std::memory_order_relaxed);
                    if (req->trace)
                        req->trace->note("deadline_degraded", "1");
                }
            }
            const QualityTier served =
                static_cast<QualityTier>(req->servedTier);

            TileKey key{req->scene->id(), req->generation,
                        req->cameraKey, req->spec, job.tile.x,
                        job.tile.y, job.tile.w, job.tile.h,
                        served};
            std::vector<Vec3> pixels;
            if (cache.lookup(key, pixels)) {
                for (int py = 0; py < job.tile.h; py++)
                    for (int px = 0; px < job.tile.w; px++)
                        req->image.at(
                            job.tile.x - req->roi.x + px,
                            job.tile.y - req->roi.y + py) =
                            pixels[static_cast<size_t>(py) *
                                       job.tile.w +
                                   px];
                statTilesCached.fetch_add(1,
                                          std::memory_order_relaxed);
                finishTile(req, false, true);
                continue;
            }

            ServedScene *sc = req->scene.get();
            packTile(sc, served, false, std::move(job));
        }

        const bool tracing = obs::enabled();
        if (!chunks.empty()) {
            for (const auto &c : chunks) {
                if (c.speculative)
                    continue; // Demand-side coalescing metrics only.
                statChunks.fetch_add(1, std::memory_order_relaxed);
                uint64_t distinct = 0;
                uint64_t last_id = 0;
                for (const auto &tj : c.tiles) {
                    if (distinct == 0 || tj.req->id != last_id) {
                        // Tiles of one request are queued contiguously
                        // (EDF keeps equal deadlines in arrival order),
                        // so id changes count distinct requests.
                        distinct++;
                        last_id = tj.req->id;
                    }
                }
                if (distinct > 1)
                    statCrossChunks.fetch_add(
                        1, std::memory_order_relaxed);
            }
            pool->parallelFor(
                static_cast<int>(chunks.size()),
                [&](int c, int rank) { renderChunk(chunks[c], rank); });
        }
        if (tracing && !drained.empty()) {
            obs::TraceSpan pass;
            pass.name = "serve.scheduler_pass";
            pass.beginT = t;
            pass.endT = monotonicSeconds();
            pass.trackGroup = obsGroup;
            pass.track = 0;
            pass.args = {{"tiles", std::to_string(drained.size())},
                         {"chunks", std::to_string(chunks.size())}};
            obs::TraceRing::global().recordActivity(std::move(pass));
        }
    }
}

ServeStats
RenderService::stats() const
{
    ServeStats s;
    s.requestsAccepted = statAccepted.load(std::memory_order_relaxed);
    s.requestsCompleted = statCompleted.load(std::memory_order_relaxed);
    s.requestsRejected = statRejected.load(std::memory_order_relaxed);
    s.requestsDeadlineExceeded =
        statDeadline.load(std::memory_order_relaxed);
    s.requestsUnknownScene =
        statUnknownScene.load(std::memory_order_relaxed);
    s.requestsBadRequest =
        statBadRequest.load(std::memory_order_relaxed);
    s.requestsColdStart =
        statColdStart.load(std::memory_order_relaxed);
    s.requestsSceneUnavailable =
        statSceneUnavailable.load(std::memory_order_relaxed);
    s.tilesRendered = statTilesRendered.load(std::memory_order_relaxed);
    s.tilesFromCache = statTilesCached.load(std::memory_order_relaxed);
    s.raysRendered = statRays.load(std::memory_order_relaxed);
    s.chunksRendered = statChunks.load(std::memory_order_relaxed);
    s.crossRequestChunks =
        statCrossChunks.load(std::memory_order_relaxed);
    s.queueDepthHighwater =
        statQueueHighwater.load(std::memory_order_relaxed);
    s.requestsDegraded = statDegraded.load(std::memory_order_relaxed);
    s.admissionDegradations =
        statAdmissionDegraded.load(std::memory_order_relaxed);
    s.deadlineDegradations =
        statDeadlineDegraded.load(std::memory_order_relaxed);
    for (int t = 0; t < numQualityTiers; t++)
        s.requestsServedPerTier[t] =
            statServedTier[t].load(std::memory_order_relaxed);
    s.prefetchTilesEnqueued =
        statPrefetchEnqueued.load(std::memory_order_relaxed);
    s.prefetchTilesRendered =
        statPrefetchRendered.load(std::memory_order_relaxed);
    s.prefetchTilesCancelled =
        statPrefetchCancelled.load(std::memory_order_relaxed);
    s.prefetchRaysRendered =
        statPrefetchRays.load(std::memory_order_relaxed);
    const TileCache::Stats cs = cache.stats();
    for (int t = 0; t < numQualityTiers; t++) {
        s.cacheHitsPerTier[t] = cs.tierHits[t];
        s.cacheMissesPerTier[t] = cs.tierMisses[t];
    }
    s.prefetchHits = cs.prefetchHits;
    s.prefetchWasted = cs.prefetchWasted;
    return s;
}

} // namespace instant3d
