/**
 * @file
 * Request/response types of the render-serving subsystem.
 *
 * A RenderRequest names a registered scene, a camera, a pixel region,
 * and a quality tier; the RenderService tiles it, batches the tiles
 * with tiles from *other* in-flight requests, and answers with a
 * RenderResponse carrying the pixels and per-request accounting.
 *
 * Determinism contract: for QualityTier::Full, every served pixel is
 * bit-identical to Trainer::renderImage of the same field and
 * (quantized) camera -- regardless of worker count, cache state, tile
 * boundaries, or how requests interleave. Lower tiers trade samples
 * per ray for latency and are each deterministic in their own right.
 */

#ifndef INSTANT3D_SERVE_SERVE_TYPES_HH
#define INSTANT3D_SERVE_SERVE_TYPES_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/vec3.hh"
#include "scene/camera.hh"
#include "scene/image.hh"

namespace instant3d {

namespace obs {
class RequestTrace;
} // namespace obs

/**
 * Camera quantization lattice denominator of the Full quality tier.
 * Full is pinned to 1/4096: the bit-identity contract ("a served Full
 * pixel equals Trainer::renderImage of the same quantized camera")
 * is stated against this lattice, so it is a constant, not a knob.
 * Lower tiers may snap onto coarser, configurable lattices (see
 * RenderServiceConfig::cameraLattice) so a moving viewer re-hits
 * cached tiles across frames.
 */
constexpr float fullCameraLattice = 4096.0f;

/**
 * Value-type camera description, quantizable for cache keying. The
 * service snaps every request's spec onto a lattice *before* building
 * the Camera, so near-identical viewpoints share rendered tiles and a
 * cache hit is still bit-exact for the camera actually rendered. The
 * lattice denominator is per quality tier: Full always uses
 * fullCameraLattice (1/4096); preview tiers may use coarser lattices.
 */
struct CameraSpec
{
    Vec3 eye;
    Vec3 target;
    Vec3 up{0.0f, 0.0f, 1.0f};
    float vfovDeg = 45.0f;
    int width = 0;  //!< Full image width in pixels.
    int height = 0; //!< Full image height in pixels.

    /** Snap all float fields onto the 1/`lattice` lattice. */
    CameraSpec
    quantized(float lattice = fullCameraLattice) const
    {
        auto q = [lattice](float v) {
            return std::round(v * lattice) / lattice;
        };
        CameraSpec s = *this;
        s.eye = {q(eye.x), q(eye.y), q(eye.z)};
        s.target = {q(target.x), q(target.y), q(target.z)};
        s.up = {q(up.x), q(up.y), q(up.z)};
        s.vfovDeg = q(vfovDeg);
        return s;
    }

    /** Build the pinhole camera this spec describes. */
    Camera
    makeCamera() const
    {
        return Camera(eye, target, up, vfovDeg, width, height);
    }

    /**
     * FNV-1a over the quantized fields (cache keying). The integer
     * snap uses the *same* `lattice` as quantized(), so the key and
     * the rendered camera can never drift onto different lattices.
     */
    uint64_t
    hashKey(float lattice = fullCameraLattice) const
    {
        CameraSpec s = quantized(lattice);
        uint64_t h = 1469598103934665603ULL;
        auto mix = [&h](int32_t v) {
            for (int b = 0; b < 4; b++) {
                h ^= static_cast<uint64_t>((v >> (8 * b)) & 0xff);
                h *= 1099511628211ULL;
            }
        };
        auto mixf = [&](float v) {
            mix(static_cast<int32_t>(std::lround(v * lattice)));
        };
        mixf(s.eye.x); mixf(s.eye.y); mixf(s.eye.z);
        mixf(s.target.x); mixf(s.target.y); mixf(s.target.z);
        mixf(s.up.x); mixf(s.up.y); mixf(s.up.z);
        mixf(s.vfovDeg);
        mix(s.width);
        mix(s.height);
        return h;
    }
};

/** A pixel-space rectangle; w == 0 means "the full image". */
struct TileRect
{
    int x = 0;
    int y = 0;
    int w = 0;
    int h = 0;
};

/**
 * Quality tier: tier t renders with samplesPerRay >> t. Full is the
 * trainer-parity tier (bit-identical to Trainer::renderImage); lower
 * tiers are cheaper previews with their own deterministic output.
 */
enum class QualityTier : uint8_t
{
    Full = 0,
    Half = 1,
    Preview = 2,
};

constexpr int numQualityTiers = 3;

/** Terminal status of one request. */
enum class RequestStatus : uint8_t
{
    Ok = 0,
    Rejected,         //!< Admission queue full; retry after a backoff.
    DeadlineExceeded, //!< Deadline passed before all tiles rendered.
    UnknownScene,     //!< Scene id not registered.
    BadRequest,       //!< Malformed camera or out-of-bounds region.
    Shutdown,         //!< Service destroyed while the request was queued.
    ColdStart,        //!< Scene evicted; reload begun -- retry after
                      //!< retryAfterMs (or fail over to a warm replica).
    SceneUnavailable, //!< Scene quarantined (structurally-bad
                      //!< checkpoint); retrying here cannot succeed.
};

/** Stable lowercase name of a request status (logs, trace notes). */
inline const char *
requestStatusName(RequestStatus s)
{
    switch (s) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::DeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::UnknownScene: return "unknown_scene";
    case RequestStatus::BadRequest: return "bad_request";
    case RequestStatus::Shutdown: return "shutdown";
    case RequestStatus::ColdStart: return "cold_start";
    case RequestStatus::SceneUnavailable: return "scene_unavailable";
    }
    return "invalid";
}

/** One render request against a registered scene. */
struct RenderRequest
{
    std::string sceneId;
    CameraSpec camera;
    TileRect roi;       //!< Region of interest; w == 0 = full image.
    QualityTier quality = QualityTier::Full;

    /**
     * Worst tier the client will accept when the service degrades
     * under load (see RenderServiceConfig::degradeUnderLoad). Must be
     * `quality` or lower; Preview (the default) allows the full
     * Full->Half->Preview ladder, while minQuality == quality opts the
     * request out of degradation entirely (it is rejected instead).
     */
    QualityTier minQuality = QualityTier::Preview;

    /**
     * Soft deadline in milliseconds from submission; 0 disables.
     * Checked when each tile is *dequeued*: tiles still queued past
     * the deadline are dropped and the request completes with
     * DeadlineExceeded (already-rendered tiles remain in the partial
     * image). Tiles dispatched to a render chunk before the deadline
     * run to completion, so a response may still arrive with status
     * Ok somewhat after the deadline -- this is an admission-side
     * load-shedding knob, not a render-abort guarantee.
     */
    double deadlineMs = 0.0;

    /**
     * Stable identity of the viewer (client session) issuing this
     * request; empty opts out. With speculative prefetch enabled, the
     * service keeps the last few quantized camera specs per viewerId
     * and extrapolates the camera path (constant velocity) to render
     * the *predicted* next frame's tiles into the cache during idle
     * worker time. Purely a scheduling hint: it never changes pixels.
     */
    std::string viewerId;

    /**
     * Telemetry TraceContext (see obs/trace.hh). Null on client
     * requests: the first tracing-aware layer the request enters
     * (router or service) begins a trace when telemetry is enabled,
     * and that same layer completes it; intermediate layers only
     * append their spans. Never affects pixels.
     */
    std::shared_ptr<obs::RequestTrace> trace;
};

/** Answer to one RenderRequest. */
struct RenderResponse
{
    RequestStatus status = RequestStatus::Ok;
    Image image;            //!< roi-sized pixels (partial on deadline).
    uint64_t sceneGeneration = 0;
    int tilesRendered = 0;  //!< Tiles rendered by the batch pipeline.
    int tilesFromCache = 0; //!< Tiles served from the LRU tile cache.
    double queueMs = 0.0;   //!< Submission -> first tile dequeued.
    double totalMs = 0.0;   //!< Submission -> completion.

    /**
     * Backoff hint when status == Rejected (scaled by the admission
     * queue's current load: deeper queue -> longer hint) or ColdStart
     * (scaled by the registry's observed load time and reload-queue
     * depth: a load-aware "come back when it's plausibly warm").
     */
    int retryAfterMs = 0;

    /**
     * Tier the pixels were actually rendered at. Equals the requested
     * tier unless QoS degradation stepped it down; the Full-tier
     * bit-identity contract applies when servedQuality == Full.
     */
    QualityTier servedQuality = QualityTier::Full;

    /** Tiers stepped down from the request (0 = served as asked). */
    int degradeLevels = 0;
};

/** An answer carrying only a status (and a retry hint). */
inline RenderResponse
statusResponse(RequestStatus status, int retry_after_ms = 0)
{
    RenderResponse resp;
    resp.status = status;
    resp.retryAfterMs = retry_after_ms;
    return resp;
}

/** Cumulative service counters (RenderService::stats snapshot). */
struct ServeStats
{
    uint64_t requestsAccepted = 0;
    uint64_t requestsCompleted = 0;
    uint64_t requestsRejected = 0;
    uint64_t requestsDeadlineExceeded = 0;
    uint64_t requestsUnknownScene = 0;
    uint64_t requestsBadRequest = 0;
    /** Requests answered ColdStart (scene evicted, reload in flight). */
    uint64_t requestsColdStart = 0;
    /** Requests answered SceneUnavailable (quarantined checkpoint). */
    uint64_t requestsSceneUnavailable = 0;
    uint64_t tilesRendered = 0;
    uint64_t tilesFromCache = 0;
    uint64_t raysRendered = 0;
    uint64_t chunksRendered = 0;
    /** Chunks whose tiles came from more than one request. */
    uint64_t crossRequestChunks = 0;
    /** Highest simultaneous tile-queue depth observed. */
    uint64_t queueDepthHighwater = 0;

    /** Requests completed Ok at a tier below the one requested. */
    uint64_t requestsDegraded = 0;
    /** Tier step-downs decided at admission (deep queue). */
    uint64_t admissionDegradations = 0;
    /** Tier step-downs decided at dequeue (deadline at risk). */
    uint64_t deadlineDegradations = 0;
    /** Requests completed Ok, bucketed by the tier actually served. */
    uint64_t requestsServedPerTier[numQualityTiers] = {0, 0, 0};

    /** Tile-cache hits bucketed by the tier of the looked-up key. */
    uint64_t cacheHitsPerTier[numQualityTiers] = {0, 0, 0};
    /** Tile-cache misses bucketed by the tier of the looked-up key. */
    uint64_t cacheMissesPerTier[numQualityTiers] = {0, 0, 0};

    // Speculative prefetch accounting (zero unless cfg.prefetch).
    /** Predicted tiles enqueued at background priority. */
    uint64_t prefetchTilesEnqueued = 0;
    /** Predicted tiles actually rendered into the cache. */
    uint64_t prefetchTilesRendered = 0;
    /** Predicted tiles cancelled before rendering (superseded by a
     *  newer prediction, already cached, or over the queue bound). */
    uint64_t prefetchTilesCancelled = 0;
    /** Rays spent on prefetch renders (excluded from raysRendered). */
    uint64_t prefetchRaysRendered = 0;
    /** Prefetched cache entries later hit by >= 1 demand lookup. */
    uint64_t prefetchHits = 0;
    /** Prefetched cache entries dropped without ever being hit. */
    uint64_t prefetchWasted = 0;
};

// ------------------------------------------------------------- fleet

/**
 * Typed outcome of one router->shard dispatch attempt. Ok resets a
 * shard's consecutive-failure count; Failed/Timeout/Crashed advance it
 * (and can open the circuit breaker); Rejected is backpressure from a
 * healthy shard -- it triggers failover but never trips the breaker.
 */
enum class ShardOutcome : uint8_t
{
    Ok = 0,
    Rejected, //!< Shard admission queue full (healthy but busy).
    Timeout,  //!< No response within the per-attempt shard timeout.
    Failed,   //!< Dispatch failed (shard error / draining / dead).
    Crashed,  //!< Shard stopped while the request was on it.
    /** Shard is reloading the (evicted) scene: fail over to a warm
     *  replica, breaker-neutral -- a cold cache is not a sick shard. */
    ColdStart,
};

/** Stable lowercase name of a shard outcome (logs, trace spans). */
inline const char *
shardOutcomeName(ShardOutcome o)
{
    switch (o) {
    case ShardOutcome::Ok: return "ok";
    case ShardOutcome::Rejected: return "rejected";
    case ShardOutcome::Timeout: return "timeout";
    case ShardOutcome::Failed: return "failed";
    case ShardOutcome::Crashed: return "crashed";
    case ShardOutcome::ColdStart: return "cold_start";
    }
    return "invalid";
}

/**
 * Circuit-breaker state of one shard. Closed admits traffic; Open
 * (entered after breakerFailureThreshold consecutive failures or
 * timeouts) skips the shard until breakerOpenMs elapse; HalfOpen then
 * admits exactly one probe request -- success closes the breaker,
 * failure reopens it.
 */
enum class BreakerState : uint8_t
{
    Closed = 0,
    Open,
    HalfOpen,
};

inline const char *
breakerStateName(BreakerState s)
{
    switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
    }
    return "invalid";
}

/** Per-shard slice of a FleetStats snapshot. */
struct ShardStats
{
    bool alive = true;     //!< False once crashed or fully drained.
    bool draining = false; //!< Drain in progress (no new admissions).
    BreakerState breaker = BreakerState::Closed;
    size_t scenes = 0;     //!< Scenes currently placed on this shard.
    uint64_t dispatched = 0; //!< Requests the router sent here.
    uint64_t served = 0;     //!< ... that completed Ok.
    uint64_t failed = 0;     //!< Failed or crashed outcomes.
    uint64_t rejected = 0;   //!< Backpressure rejections.
    uint64_t timeouts = 0;   //!< Per-attempt timeouts.
    uint64_t breakerOpens = 0;     //!< Closed/HalfOpen -> Open.
    uint64_t breakerHalfOpens = 0; //!< Open -> HalfOpen.
    uint64_t breakerCloses = 0;    //!< HalfOpen -> Closed.
    uint64_t coldStarts = 0;       //!< ColdStart outcomes from here.
};

/** Cumulative fleet counters (ShardRouter::fleetStats snapshot). */
struct FleetStats
{
    uint64_t requestsRouted = 0;  //!< Requests entering the router.
    uint64_t failovers = 0;       //!< Re-dispatches to another replica.
    uint64_t retries = 0;         //!< Re-dispatches of any kind.
    uint64_t hedgesIssued = 0;    //!< Second replicas dispatched.
    uint64_t hedgesWon = 0;       //!< Hedge responses that won the race.
    uint64_t shardsCrashed = 0;
    uint64_t shardsDrained = 0;
    /** Requests answered Rejected because no live replica was usable. */
    uint64_t noReplicaAvailable = 0;
    /** Failovers taken because the placed replica was cold-starting. */
    uint64_t coldStartFailovers = 0;

    // Fleet-wide cache/prefetch aggregates (summed over live shards):
    // the per-tier lattice and prefetch effects are per-shard-service
    // counters, surfaced here so a fleet operator sees one number.
    uint64_t cacheHitsPerTier[numQualityTiers] = {0, 0, 0};
    uint64_t cacheMissesPerTier[numQualityTiers] = {0, 0, 0};
    uint64_t prefetchTilesEnqueued = 0;
    uint64_t prefetchTilesRendered = 0;
    uint64_t prefetchTilesCancelled = 0;
    uint64_t prefetchHits = 0;
    uint64_t prefetchWasted = 0;

    std::vector<ShardStats> shards;
};

} // namespace instant3d

#endif // INSTANT3D_SERVE_SERVE_TYPES_HH
