/**
 * @file
 * Multi-scene model registry for the render-serving subsystem.
 *
 * A SceneRegistry owns N independent trained models ("served scenes"),
 * each a NerfField restored from a checkpoint (or snapshotted from a
 * live Trainer), its occupancy grid, and one pre-built VolumeRenderer
 * per quality tier. Scenes are published under string ids with
 * monotonically increasing generations; readers acquire() a
 * ref-counted handle, so re-registering an id never invalidates
 * in-flight renders -- the old generation stays alive until its last
 * reader drops it, and the new generation's distinct number makes
 * every stale tile-cache key unreachable.
 *
 * Capacity: with a byte budget configured, warm scenes are
 * byte-accounted and the least-recently-used checkpoint-backed scene
 * is evicted to a *cold stub* when the budget overflows. A stub
 * remembers its checkpoint path, spec, and generation; the next
 * acquireOrLoad() triggers a single-flight background reload that
 * republishes under the *same* generation (same file, bit-identical
 * model, so surviving tile-cache entries stay valid). Eviction only
 * drops the registry's reference -- in-flight renders hold their own
 * shared_ptr and drain naturally. Structurally-bad checkpoints (shape
 * / CRC / magic) quarantine the stub so a corrupt file cannot fuel a
 * reload storm; transient Io failures leave the stub cold for a later
 * retry.
 */

#ifndef INSTANT3D_SERVE_SCENE_REGISTRY_HH
#define INSTANT3D_SERVE_SCENE_REGISTRY_HH

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nerf/occupancy_grid.hh"
#include "nerf/renderer.hh"
#include "nerf/serialize.hh"
#include "nerf/trainer.hh"
#include "serve/serve_types.hh"

namespace instant3d {

class ServedScene;
using ServedScenePtr = std::shared_ptr<ServedScene>;

/** Everything needed to reconstruct a servable scene from disk. */
struct SceneSpec
{
    FieldConfig field;
    RendererConfig renderer;
    bool useOccupancy = false;  //!< Restore + attach an occupancy grid.
    OccupancyGridConfig occupancy;
    uint64_t seed = 42;         //!< Field-construction seed (params are
                                //!< overwritten by the checkpoint).

    /**
     * Extra load attempts after a *transient* checkpoint failure
     * (CheckpointError::Io only -- structural errors like a shape or
     * CRC mismatch never retry). Attempt k backs off
     * loadRetryBackoffMs << k milliseconds first; the wait is
     * interruptible, so stop()/destruction never hangs on it.
     */
    int loadRetries = 2;
    int loadRetryBackoffMs = 2;
};

/** Capacity policy for a registry. Defaults keep the legacy behavior
 *  (no budget, no eviction, loads on the caller thread only). */
struct SceneRegistryConfig
{
    /** Byte budget for warm scenes; 0 = unlimited (never evict). A
     *  single scene larger than the budget still publishes (serving
     *  beats strict accounting); everything else evicts around it. */
    size_t memoryBudgetBytes = 0;

    /** Background loader threads servicing cold-start reloads. Caps
     *  concurrent checkpoint loads so a cold-start wave cannot starve
     *  render workers; excess cold scenes queue behind the cap. */
    int maxConcurrentLoads = 1;
};

/** Lifecycle of an id inside a registry. */
enum class SceneState : uint8_t
{
    Absent,      //!< Never registered (or unregistered).
    Warm,        //!< Resident and servable.
    Cold,        //!< Evicted stub; reloadable from its checkpoint.
    Loading,     //!< A single-flight reload is in progress or queued.
    Quarantined, //!< Reload hit a structural error; no more retries.
};

/** What acquireOrLoad() found (and possibly started). */
struct AcquireOutcome
{
    ServedScenePtr scene;    //!< Non-null iff state == Warm.
    SceneState state = SceneState::Absent;
    /** Quarantine reason (structural CheckpointError) when state ==
     *  Quarantined; None otherwise. */
    CheckpointError error = CheckpointError::None;
    /** Load-aware retry hint (ms) when state is Cold/Loading: the
     *  EWMA load time scaled by the queue depth ahead of this scene. */
    int retryAfterMs = 0;
    /** True when this call began the (single) reload for the scene. */
    bool startedLoad = false;
};

/** Point-in-time capacity counters (monotonic since construction). */
struct SceneRegistryStats
{
    size_t scenes = 0;       //!< All entries (any state).
    size_t warm = 0;
    size_t cold = 0;
    size_t loading = 0;
    size_t quarantined = 0;
    size_t bytesWarm = 0;    //!< Accounted bytes of warm scenes.
    size_t budgetBytes = 0;  //!< Configured budget (0 = unlimited).
    uint64_t evictions = 0;
    /** Evictions where a render still held the scene (the shared_ptr
     *  drain seam -- the render keeps its reference and completes). */
    uint64_t evictionsWhileReferenced = 0;
    uint64_t coldLoadsStarted = 0;   //!< Single-flight loads begun.
    uint64_t reloads = 0;            //!< Cold -> warm successes.
    uint64_t singleFlightJoins = 0;  //!< acquireOrLoad calls that found
                                     //!< a load already in flight.
    uint64_t loadFailures = 0;       //!< Transient-exhausted reloads.
    uint64_t quarantineHits = 0;     //!< Acquires answered "quarantined".
    double lastLoadMs = 0.0;
    double ewmaLoadMs = 0.0;         //!< Drives retryAfterMs hints.
};

/**
 * One published, immutable-after-publication scene: the field, its
 * occupancy grid, and a renderer per quality tier (tier t renders with
 * samplesPerRay >> t). Concurrent queryStream reads are safe; nothing
 * mutates the model after registration.
 */
class ServedScene
{
  public:
    ServedScene(std::string scene_id, uint64_t scene_generation,
                const SceneSpec &scene_spec);

    const std::string &id() const { return sceneId; }
    uint64_t generation() const { return gen; }
    const SceneSpec &spec() const { return sceneSpec; }

    NerfField &field() { return *fieldPtr; }
    const OccupancyGrid *occupancy() const { return occPtr.get(); }

    /**
     * Mutable grid access for the registration-time load/snapshot;
     * never used after the scene is published.
     */
    OccupancyGrid *occupancyForLoad() { return occPtr.get(); }

    /** The renderer for a quality tier (occupancy grid attached). */
    const VolumeRenderer &renderer(QualityTier tier) const
    { return renderers[static_cast<size_t>(tier)]; }

    /** Wire size of the model's trainable parameters. */
    size_t paramBytes();

    /** Accounted resident size: params + occupancy densities. */
    size_t residentBytes();

    /**
     * Checkpoint file this scene was loaded from; empty for
     * trainer-snapshot scenes. A non-empty path makes the scene
     * evictable (its registry entry can reload it on demand) --
     * including on shard registries it was publishShared() to.
     */
    const std::string &sourcePath() const { return srcPath; }
    void setSourcePath(std::string path) { srcPath = std::move(path); }

  private:
    std::string sceneId;
    uint64_t gen;
    SceneSpec sceneSpec;
    std::string srcPath;
    std::unique_ptr<NerfField> fieldPtr;
    std::unique_ptr<OccupancyGrid> occPtr;
    std::vector<VolumeRenderer> renderers; //!< One per quality tier.
};

/**
 * Thread-safe id -> scene map with generation bookkeeping and
 * (optionally) a warm-set byte budget with LRU eviction + single-
 * flight reload. Default-constructed registries behave exactly like
 * the pre-budget registry: no eviction, no background threads.
 */
class SceneRegistry
{
  public:
    SceneRegistry() = default;
    explicit SceneRegistry(const SceneRegistryConfig &registry_config);
    ~SceneRegistry();

    SceneRegistry(const SceneRegistry &) = delete;
    SceneRegistry &operator=(const SceneRegistry &) = delete;

    /**
     * Load a checkpoint written by Trainer::saveCheckpoint (or
     * saveField/saveCheckpoint) and publish it under `id`, replacing
     * any previous generation. When spec.useOccupancy is set the file
     * must carry a matching-resolution occupancy section. Returns the
     * new generation, or 0 on load failure (the previous generation,
     * if any, stays published). The registered scene remembers `path`
     * and is evictable under a byte budget.
     */
    uint64_t registerFromCheckpoint(const std::string &id,
                                    const SceneSpec &spec,
                                    const std::string &path);

    /**
     * Snapshot a live trainer's model -- settled parameters plus the
     * current occupancy-grid state -- and publish it under `id`. This
     * is the train-and-register path used by tests and demos; the
     * served scene renders bit-identically to trainer.renderImage().
     * Returns the new generation. Trainer snapshots have no backing
     * checkpoint, so they are pinned (never evicted).
     *
     * Both register paths return 0 when a concurrent registration of
     * the same id published a newer generation first (generations only
     * move forward; the newer model stays).
     */
    uint64_t registerFromTrainer(const std::string &id,
                                 Trainer &trainer);

    /**
     * Publish an already-built scene under `id`, *sharing* the model:
     * the registry holds another reference to the same ServedScene,
     * not a copy. This is the fleet-replication seam -- a ShardRouter
     * places one canonical scene on R shard registries, so every
     * replica serves bit-identical pixels by construction and
     * re-placement during drain or crash recovery is a pointer insert,
     * not a model reload. Carries the scene's own generation; returns
     * 0 (and keeps the incumbent) if a newer generation of `id` is
     * already published here. Publication is budget-accounted: it may
     * evict this registry's LRU scenes to make room (drain
     * re-placement respects the survivors' budgets).
     */
    uint64_t publishShared(const std::string &id, ServedScenePtr scene);

    /** Ref-counted read access; nullptr when `id` is not warm here.
     *  (Cold/loading/quarantined entries read as nullptr -- use
     *  acquireOrLoad for the capacity-aware path.) */
    ServedScenePtr acquire(const std::string &id) const;

    /**
     * Capacity-aware acquire. Warm -> the scene (and an LRU touch).
     * Cold -> begins the single-flight background reload (or joins
     * the one in flight) and reports Loading with a load-aware
     * retryAfterMs; with max_wait_ms > 0 the call blocks up to that
     * long for the reload to settle (the "wait bounded by deadline"
     * path). Quarantined -> the structural error, no load attempt.
     */
    AcquireOutcome acquireOrLoad(const std::string &id,
                                 double max_wait_ms = 0.0);

    /**
     * Block until `id` is warm (returns the scene) or its reload
     * settles unsuccessfully / the wait times out (returns nullptr).
     * max_wait_ms <= 0 waits until the load settles, however long.
     */
    ServedScenePtr awaitWarm(const std::string &id, double max_wait_ms);

    /**
     * Manually evict `id` to a cold stub (ops / test hook; the budget
     * path calls the same internals). False when `id` is not warm or
     * not checkpoint-backed. In-flight renders keep their reference.
     */
    bool evictScene(const std::string &id);

    /** Lift a quarantine so the next acquireOrLoad may retry (e.g.
     *  after the checkpoint file was repaired). False when `id` is
     *  not quarantined. */
    bool clearQuarantine(const std::string &id);

    /** Drop `id` from the registry (in-flight readers keep theirs). */
    bool unregister(const std::string &id);

    /** Current generation of `id`, or 0 when absent. Cold stubs keep
     *  their generation (reloads republish under it). */
    uint64_t generation(const std::string &id) const;

    /** Lifecycle state of `id`. */
    SceneState state(const std::string &id) const;

    size_t size() const;

    SceneRegistryStats stats() const;

    /**
     * Interrupt in-flight retry backoffs and stop the loader threads.
     * Idempotent; the destructor calls it. Blocked
     * registerFromCheckpoint retry waits return promptly with a load
     * failure instead of sleeping out their backoff.
     */
    void stop();

  private:
    struct Entry
    {
        ServedScenePtr scene;  //!< Non-null iff warm.
        SceneSpec spec;        //!< For rebuilding on reload.
        std::string path;      //!< Empty = pinned (not evictable).
        uint64_t gen = 0;      //!< Survives eviction; reload reuses it.
        size_t bytes = 0;      //!< Accounted while warm.
        uint64_t lastUsed = 0; //!< LRU tick.
        bool loading = false;  //!< Single-flight latch.
        bool quarantined = false;
        CheckpointError quarantineError = CheckpointError::None;
    };

    uint64_t publish(const std::string &id, ServedScenePtr scene);
    void touchLocked(Entry &e);
    void accountPublishLocked(const std::string &id, Entry &e,
                              ServedScenePtr scene, uint64_t gen,
                              std::vector<ServedScenePtr> &graveyard);
    void evictToFitLocked(const std::string &keep_id,
                          std::vector<ServedScenePtr> &graveyard);
    int loadHintMsLocked(const std::string &id) const;
    void ensureLoadersLocked();
    void loaderLoop();
    void performLoad(const std::string &id);
    CheckpointError loadWithRetries(ServedScene &scene,
                                    const SceneSpec &spec,
                                    const std::string &path);

    SceneRegistryConfig cfg;

    mutable std::mutex mtx;
    std::condition_variable cv; //!< Load settles / queue work / stop.
    std::unordered_map<std::string, Entry> entries;
    uint64_t nextGen = 1;
    uint64_t lruTick = 0;
    size_t bytesWarm = 0;
    bool stopping = false;

    std::vector<std::thread> loaders;
    std::deque<std::string> loadQueue;

    // Monotonic counters (guarded by mtx).
    uint64_t statEvictions = 0;
    uint64_t statEvictionsWhileReferenced = 0;
    uint64_t statColdLoadsStarted = 0;
    uint64_t statReloads = 0;
    uint64_t statSingleFlightJoins = 0;
    uint64_t statLoadFailures = 0;
    uint64_t statQuarantineHits = 0;
    double statLastLoadMs = 0.0;
    double statEwmaLoadMs = 0.0;
};

} // namespace instant3d

#endif // INSTANT3D_SERVE_SCENE_REGISTRY_HH
