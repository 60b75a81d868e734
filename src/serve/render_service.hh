/**
 * @file
 * The render service: a synchronous-core, async-facade front end over
 * the registry's trained models.
 *
 * Requests enter through submit() with a completion callback (the one
 * way the service answers), its future-returning adapter, or the
 * blocking render(). Each accepted request is split into fixed-size tiles
 * that join a bounded admission queue; a scheduler thread dequeues in
 * two-level priority order -- earliest-deadline-first among
 * deadline-bearing requests, then arrival order for the rest, with
 * speculative prefetch tiles strictly last (dispatched only when no
 * demand tile is queued) -- answers tiles from the LRU cache, groups
 * the misses by (scene, quality tier), and packs them into render
 * chunks of up to chunkRays rays -- **coalescing tiles from different
 * requests into the same chunk**, so the stream kernels
 * (NerfField::queryStream via VolumeRenderer::renderRays) run at full
 * batch width even when individual requests are small. Chunks execute
 * on the shared ThreadPool; per-rank Workspace arenas keep the hot
 * path allocation-free. Each pass pulls at most a worker-count-scaled
 * ray budget so a late-arriving urgent request overtakes queued
 * non-deadline tiles at the next pass instead of waiting out a full
 * queue drain.
 *
 * Contracts:
 *  - Determinism: every ray is composited independently in t order, so
 *    a served pixel is bit-identical for any worker count, chunk
 *    packing, cache state, or request interleaving -- and, at
 *    QualityTier::Full, bit-identical to Trainer::renderImage of the
 *    same field and quantized camera.
 *  - Backpressure: when the admission queue holds more than
 *    maxQueueTiles tiles, submissions are rejected immediately with
 *    status Rejected and a load-proportional retry-after hint, instead
 *    of growing the queue without bound. With degradeUnderLoad, deep
 *    queues instead *degrade*: the request is admitted at a lower
 *    quality tier (one step per full maxQueueTiles of depth, never
 *    below the request's minQuality) up to a hard tile ceiling.
 *  - Deadlines: a request whose deadline passes before its tiles are
 *    dequeued completes with DeadlineExceeded; remaining tiles are
 *    dropped (rendered ones stay in the partial image). With
 *    degradeUnderLoad, a request that dequeues with most of its
 *    deadline already spent queueing is first stepped down one tier
 *    to improve its odds of finishing in time.
 */

#ifndef INSTANT3D_SERVE_RENDER_SERVICE_HH
#define INSTANT3D_SERVE_RENDER_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hh"
#include "common/workspace.hh"
#include "serve/scene_registry.hh"
#include "serve/tile_cache.hh"

namespace instant3d {

namespace obs {
class LatencyHistogram;
class MetricsSink;
} // namespace obs

/** Service tuning knobs. */
struct RenderServiceConfig
{
    /**
     * Render worker threads (the ThreadPool size); 0 = auto
     * (INSTANT3D_THREADS / hardware concurrency). Results are
     * bit-identical for any value.
     */
    int workers = 0;

    /** Tile edge length in pixels. */
    int tilePixels = 16;

    /**
     * Target rays per coalesced render chunk. Tiles are packed until
     * the next tile would exceed this; one oversized tile still forms
     * its own chunk.
     */
    int chunkRays = 2048;

    /**
     * Admission cap on tiles outstanding (queued or rendering): a
     * request whose tiles would push the count past this is rejected
     * with a retry-after hint. A request whose tile count *alone*
     * exceeds the cap can never be admitted and is answered with
     * BadRequest instead of a retry hint.
     */
    int maxQueueTiles = 4096;

    /** LRU tile-cache capacity in tiles; 0 disables caching. */
    int cacheTiles = 0;

    /**
     * LRU tile-cache byte budget (pixel payload); 0 = unbounded.
     * Tiles vary ~64x in size across roi/tier combinations, so a
     * count cap alone cannot bound memory -- the byte budget is the
     * primary bound and cacheTiles stays as a secondary entry cap.
     */
    long long cacheBytes = 0;

    /**
     * Base retry-after hint (ms) attached to rejected requests. The
     * hint in the response is load-proportional: base scaled by
     * outstanding tiles over maxQueueTiles (at least the base).
     */
    int retryAfterMs = 5;

    /**
     * QoS degradation: when the admission queue is deep, serve
     * requests at a lower quality tier (Full->Half->Preview, one step
     * per full maxQueueTiles of depth, bounded by the request's
     * minQuality) instead of rejecting them. Off by default -- the
     * PR-5 reject-only behavior is unchanged unless opted in.
     */
    bool degradeUnderLoad = false;

    /**
     * Hard admission ceiling while degrading (outstanding tiles);
     * beyond it requests are rejected even at the lowest tier.
     * 0 = 4 * maxQueueTiles.
     */
    int maxQueueTilesDegraded = 0;

    /**
     * Deadline-risk degradation at dequeue: when a request's first
     * tiles dequeue with more than this fraction of the deadline
     * already spent queueing, the scheduler steps the request down one
     * tier (within minQuality) to win back render time. Only active
     * with degradeUnderLoad and a nonzero deadline.
     */
    double deadlineRiskFraction = 0.5;

    /**
     * Camera quantization lattice denominator per quality tier
     * (snap = round(v * L) / L; index by static_cast<int>(tier)).
     * Full is pinned to fullCameraLattice (1/4096) -- the bit-identity
     * contract is stated against it -- and validated at construction.
     * Half/Preview default to the same fine lattice; coarser values
     * (e.g. 1024, 256) collapse nearby viewpoints of a moving viewer
     * onto one cache key, trading exact camera placement for
     * cross-frame cache reuse at the preview tiers. The tile cache
     * keys on the snapped spec, so a hit is still bit-exact for the
     * (coarsely snapped) camera actually rendered.
     */
    float cameraLattice[numQualityTiers] = {
        fullCameraLattice, fullCameraLattice, fullCameraLattice};

    /**
     * Speculative tile prefetch: predict each viewer's next camera
     * (constant-velocity extrapolation over its last few quantized
     * specs, keyed by RenderRequest::viewerId) and render the
     * predicted frame's tiles straight into the tile cache when the
     * workers are otherwise idle. Prefetch is strictly lowest
     * priority -- dispatched only when no demand tile is queued -- and
     * queued predictions are cancelled when a newer prediction for the
     * same viewer supersedes them or demand traffic already rendered
     * the tile. Requires cacheTiles > 0. Never changes pixels: a
     * prefetched tile is bit-identical to the demand render it
     * replaces.
     */
    bool prefetch = false;

    /**
     * Bound on queued prefetch tiles; enqueueing past it cancels the
     * oldest queued predictions first (they are the stalest).
     */
    int maxPrefetchTiles = 256;

    /**
     * Quantized (1/4096) camera specs remembered per viewer for the
     * motion predictor; 2 suffice for constant velocity.
     */
    int prefetchHistory = 4;
};

/**
 * Completion callback: called exactly once with a request's answer, on
 * whichever thread settles it (the submitter, the scheduler or a pool
 * worker) and never under a service lock -- so it may submit anywhere,
 * but must not stop() the service that answered it.
 */
using RenderDone = std::function<void(RenderResponse)>;

/**
 * The serving front end. One instance owns its scheduler thread,
 * ThreadPool, workspaces, and tile cache; the SceneRegistry is shared
 * and may be mutated (re-registration) while the service runs.
 */
class RenderService
{
  public:
    RenderService(SceneRegistry &scene_registry,
                  const RenderServiceConfig &service_config);
    ~RenderService();

    RenderService(const RenderService &) = delete;
    RenderService &operator=(const RenderService &) = delete;

    /**
     * Asynchronous entry point: validates and enqueues the request,
     * then calls `done` when every tile is served (or the request is
     * rejected / expired / shut down). Safe to call from any number of
     * client threads.
     */
    void submit(const RenderRequest &request, RenderDone done);

    /** submit() with a future in place of the callback. */
    std::future<RenderResponse> submit(const RenderRequest &request);

    /**
     * Blocking convenience wrapper: submit() and wait. A ColdStart
     * answer (scene evicted, single-flight reload begun) is absorbed
     * here: the call waits for the reload -- bounded by the request's
     * deadline when one is set, else until the load settles -- and
     * resubmits, so blocking callers see Ok/terminal statuses only
     * unless the deadline ran out while the scene was still cold.
     */
    RenderResponse render(const RenderRequest &request);

    /** Eagerly drop a scene's cached tiles (any generation). */
    void invalidateScene(const std::string &scene_id);

    /**
     * Quiesce the service without destroying it: stop admitting
     * requests and join the scheduler. Requests still queued when the
     * stop lands resolve RequestStatus::Shutdown (exactly as the
     * destructor always did -- the destructor is now a caller of this);
     * the in-flight chunk renders to completion first. Idempotent and
     * safe to call from any thread; submissions after (or racing) a
     * stop answer Shutdown. A stopped service stays queryable (stats,
     * cacheStats) so a router can retire a shard and still report it.
     */
    void stop();

    /** True once stop() has completed (the scheduler has exited). */
    bool stopped() const
    { return stoppedFlag.load(std::memory_order_acquire); }

    /**
     * Tiles admitted but not yet retired (queued or rendering). Zero
     * means the service is idle: a drain can wait on this after
     * cutting off new admissions.
     */
    size_t outstandingTileCount() const
    { return outstandingTiles.load(std::memory_order_acquire); }

    ServeStats stats() const;
    TileCache::Stats cacheStats() const { return cache.stats(); }
    int workerCount() const { return pool->threadCount(); }

  private:
    struct Pending;
    struct PrefetchBatch;

    /**
     * One tile of work. Demand tiles carry `req` (the pending request
     * they answer); speculative tiles carry `pre` instead and render
     * into the cache only -- exactly one of the two is set.
     */
    struct TileJob
    {
        std::shared_ptr<Pending> req;
        std::shared_ptr<PrefetchBatch> pre;
        TileRect tile; //!< Absolute pixel coordinates.
    };

    /** One coalesced render chunk: same scene + tier, >= 1 tiles. */
    struct Chunk
    {
        ServedScene *scene = nullptr;
        QualityTier tier = QualityTier::Full;
        int rays = 0;
        bool speculative = false; //!< All-prefetch chunk.
        std::vector<TileJob> tiles;
    };

    /** Per-viewer motion-predictor state (guarded by viewerMtx). */
    struct ViewerState
    {
        /** Last few 1/4096-quantized specs, most recent last. */
        std::vector<CameraSpec> history;
        /** Bumped per enqueued prediction; queued prefetch batches
         *  with an older epoch are superseded and cancel at dequeue.
         *  Shared so the scheduler checks without the viewer map. */
        std::shared_ptr<std::atomic<uint64_t>> epoch =
            std::make_shared<std::atomic<uint64_t>>(0);
        uint64_t lastTouch = 0; //!< For least-recently-seen GC.
    };

    float latticeFor(int tier) const
    { return cfg.cameraLattice[tier]; }

    void schedulerLoop();
    void renderChunk(const Chunk &chunk, int rank);
    void finishTile(const std::shared_ptr<Pending> &req, bool rendered,
                    bool from_cache);

    /**
     * Motion-predictor hook, called once per admitted request that
     * names a viewerId: records the observation and, when the last two
     * observations imply motion, enqueues the predicted next frame's
     * tiles at background priority.
     */
    void maybeEnqueuePrefetch(const RenderRequest &request,
                              const ServedScenePtr &scene,
                              const TileRect &roi, int served_tier);

    /** Snapshot-time metrics collector (mirrors stats()). */
    void collectMetrics(obs::MetricsSink &sink) const;

    SceneRegistry &registry;
    RenderServiceConfig cfg;
    std::unique_ptr<ThreadPool> pool;
    std::vector<Workspace> workspaces; //!< One per pool rank.
    TileCache cache;

    std::mutex queueMtx;
    std::condition_variable queueCv;
    /**
     * Demand admission queue, two levels: deadline-bearing tiles
     * sorted by absolute deadline (EDF; multimap preserves arrival
     * order among equal deadlines, so one request's tiles stay
     * contiguous), then no-deadline tiles in arrival order. The
     * scheduler empties the EDF level before touching the FIFO level.
     */
    std::multimap<double, TileJob> deadlineQueue;
    std::deque<TileJob> fifoQueue;
    /** Speculative tiles: dispatched only when demand is empty. */
    std::deque<TileJob> prefetchQueue;
    /**
     * Tiles outstanding: enqueued at submit, decremented as each tile
     * reaches finishTile() -- so tiles being *rendered* still count
     * against the admission cap, not just tiles sitting in the queue.
     * Demand only; prefetch tiles never count against admission.
     */
    std::atomic<size_t> outstandingTiles{0};
    bool stopping = false;
    std::thread scheduler;
    std::mutex stopMtx; //!< Serializes stop() callers (join is once).
    std::atomic<bool> stoppedFlag{false};

    std::mutex viewerMtx;
    std::unordered_map<std::string, ViewerState> viewers;
    uint64_t viewerTouch = 0;

    std::atomic<uint64_t> nextRequestId{1};

    // Stats (relaxed atomics; stats() takes a consistent-enough
    // snapshot for monitoring).
    std::atomic<uint64_t> statAccepted{0}, statCompleted{0},
        statRejected{0}, statDeadline{0}, statUnknownScene{0},
        statBadRequest{0}, statColdStart{0}, statSceneUnavailable{0},
        statTilesRendered{0}, statTilesCached{0},
        statRays{0}, statChunks{0}, statCrossChunks{0},
        statQueueHighwater{0};
    std::atomic<uint64_t> statDegraded{0}, statAdmissionDegraded{0},
        statDeadlineDegraded{0},
        statServedTier[numQualityTiers]{{0}, {0}, {0}};
    std::atomic<uint64_t> statPrefetchEnqueued{0},
        statPrefetchRendered{0}, statPrefetchCancelled{0},
        statPrefetchRays{0};

    // Telemetry (src/obs/): this instance's Perfetto track group, the
    // metrics-collector registration handle, and hot-path histogram
    // pointers (registry references are stable for the process
    // lifetime, so they are resolved once in the constructor).
    int obsGroup = 0;
    uint64_t obsCollector = 0;
    obs::LatencyHistogram *histQueueMs = nullptr;
    obs::LatencyHistogram *histTotalMs = nullptr;
    obs::LatencyHistogram *histChunkMs = nullptr;
};

} // namespace instant3d

#endif // INSTANT3D_SERVE_RENDER_SERVICE_HH
