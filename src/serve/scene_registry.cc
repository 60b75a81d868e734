#include "serve/scene_registry.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/telemetry.hh"

namespace instant3d {

namespace {

/** All registry timing rides the one process clock (common/stats.hh),
 *  so load latencies compare directly against serve/router spans. */
double
nowMs()
{
    return monotonicSeconds() * 1e3;
}

bool
structuralError(CheckpointError err)
{
    return err != CheckpointError::None && err != CheckpointError::Io;
}

} // namespace

ServedScene::ServedScene(std::string scene_id, uint64_t scene_generation,
                         const SceneSpec &scene_spec)
    : sceneId(std::move(scene_id)), gen(scene_generation),
      sceneSpec(scene_spec)
{
    fieldPtr = std::make_unique<NerfField>(sceneSpec.field,
                                           sceneSpec.seed);
    if (sceneSpec.useOccupancy)
        occPtr = std::make_unique<OccupancyGrid>(sceneSpec.occupancy);

    // Tier t halves samplesPerRay t times; tier Full keeps the
    // training-time renderer config and is the trainer-parity tier.
    renderers.reserve(numQualityTiers);
    for (int t = 0; t < numQualityTiers; t++) {
        RendererConfig rcfg = sceneSpec.renderer;
        rcfg.samplesPerRay = std::max(1, rcfg.samplesPerRay >> t);
        renderers.emplace_back(rcfg);
        renderers.back().setOccupancyGrid(occPtr.get());
    }
}

size_t
ServedScene::paramBytes()
{
    return fieldStorageBytes(*fieldPtr);
}

size_t
ServedScene::residentBytes()
{
    size_t bytes = fieldStorageBytes(*fieldPtr);
    if (occPtr)
        bytes += occPtr->numCells() * sizeof(float);
    return bytes;
}

SceneRegistry::SceneRegistry(const SceneRegistryConfig &registry_config)
    : cfg(registry_config)
{
    cfg.maxConcurrentLoads = std::max(1, cfg.maxConcurrentLoads);
}

SceneRegistry::~SceneRegistry()
{
    stop();
}

void
SceneRegistry::stop()
{
    std::vector<std::thread> join;
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
        // Abandon queued (not yet started) reloads so their entries
        // settle as cold instead of "loading forever".
        for (const std::string &id : loadQueue) {
            auto it = entries.find(id);
            if (it != entries.end())
                it->second.loading = false;
        }
        loadQueue.clear();
        join.swap(loaders);
        cv.notify_all();
    }
    for (std::thread &t : join)
        t.join();
}

CheckpointError
SceneRegistry::loadWithRetries(ServedScene &scene, const SceneSpec &spec,
                               const std::string &path)
{
    // Transient I/O errors (a loaded-down disk, an NFS hiccup) retry
    // with exponential backoff; structural errors (wrong shape, CRC
    // mismatch) are permanent and fail immediately. The backoff wait
    // is interruptible: stop() wakes it and the load aborts as Io
    // instead of hanging teardown for the rest of the schedule.
    CheckpointError err = CheckpointError::None;
    for (int attempt = 0;; attempt++) {
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (stopping)
                return CheckpointError::Io;
        }
        err = loadCheckpoint(scene.field(), scene.occupancyForLoad(),
                             path);
        if (err != CheckpointError::Io || attempt >= spec.loadRetries)
            break;
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait_for(lock,
                    std::chrono::milliseconds(
                        spec.loadRetryBackoffMs << attempt),
                    [&] { return stopping; });
        if (stopping)
            return CheckpointError::Io;
    }
    return err;
}

uint64_t
SceneRegistry::registerFromCheckpoint(const std::string &id,
                                      const SceneSpec &spec,
                                      const std::string &path)
{
    uint64_t gen;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (stopping)
            return 0;
        gen = nextGen++;
    }
    auto scene = std::make_shared<ServedScene>(id, gen, spec);
    scene->setSourcePath(path);

    double t0 = nowMs();
    CheckpointError err = loadWithRetries(*scene, spec, path);
    if (err != CheckpointError::None) {
        warn("SceneRegistry: could not load checkpoint '" + path +
             "' for scene '" + id + "' (" +
             checkpointErrorName(err) + ")");
        return 0;
    }
    double ms = nowMs() - t0;
    obs::MetricsRegistry::global()
        .histogram("registry.load_ms")
        .record(ms);
    {
        std::lock_guard<std::mutex> lock(mtx);
        statLastLoadMs = ms;
        statEwmaLoadMs = statEwmaLoadMs <= 0.0
                             ? ms
                             : 0.7 * statEwmaLoadMs + 0.3 * ms;
    }
    return publish(id, std::move(scene));
}

uint64_t
SceneRegistry::registerFromTrainer(const std::string &id,
                                   Trainer &trainer)
{
    SceneSpec spec;
    spec.field = trainer.field().config();
    spec.renderer = trainer.renderer().config();
    const OccupancyGrid *tocc = trainer.occupancyGrid();
    if (tocc) {
        spec.useOccupancy = true;
        spec.occupancy = tocc->config();
    }

    uint64_t gen;
    {
        std::lock_guard<std::mutex> lock(mtx);
        gen = nextGen++;
    }
    auto scene = std::make_shared<ServedScene>(id, gen, spec);

    // Snapshot the settled parameter state (the sparse lazy optimizer
    // may owe catch-up updates until syncParams).
    trainer.syncParams();
    for (auto gid : trainer.field().paramGroups())
        scene->field().groupParams(gid) =
            trainer.field().groupParams(gid);
    if (tocc) {
        OccupancyGrid *occ = scene->occupancyForLoad();
        for (size_t c = 0; c < tocc->numCells(); c++)
            occ->setCellDensity(c, tocc->cellDensity(c));
    }
    return publish(id, std::move(scene));
}

uint64_t
SceneRegistry::publishShared(const std::string &id, ServedScenePtr scene)
{
    if (!scene)
        return 0;
    return publish(id, std::move(scene));
}

uint64_t
SceneRegistry::publish(const std::string &id, ServedScenePtr scene)
{
    uint64_t gen = scene->generation();
    // Evicted (and replaced) scenes are destroyed after the lock
    // drops: freeing a multi-megabyte model under the registry mutex
    // would stall every concurrent acquire.
    std::vector<ServedScenePtr> graveyard;
    {
        std::lock_guard<std::mutex> lock(mtx);
        // Externally-built generations (publishShared) must not
        // collide with ones this registry mints later.
        if (gen >= nextGen)
            nextGen = gen + 1;
        // Generations must only move forward: if a concurrent
        // registration of the same id already published a newer scene
        // (warm or cold stub) while this one was still loading, keep
        // the newer one and report supersession.
        auto it = entries.find(id);
        if (it != entries.end() && it->second.gen > gen)
            return 0;
        Entry &e = entries[id];
        if (e.scene) {
            bytesWarm -= e.bytes;
            graveyard.push_back(std::move(e.scene));
        }
        e.scene = std::move(scene);
        e.gen = gen;
        e.spec = e.scene->spec();
        e.path = e.scene->sourcePath();
        e.bytes = e.scene->residentBytes();
        e.quarantined = false;
        e.quarantineError = CheckpointError::None;
        bytesWarm += e.bytes;
        touchLocked(e);
        evictToFitLocked(id, graveyard);
        cv.notify_all();
    }
    return gen;
}

void
SceneRegistry::touchLocked(Entry &e)
{
    e.lastUsed = ++lruTick;
}

void
SceneRegistry::evictToFitLocked(const std::string &keep_id,
                                std::vector<ServedScenePtr> &graveyard)
{
    if (cfg.memoryBudgetBytes == 0)
        return;
    while (bytesWarm > cfg.memoryBudgetBytes) {
        // LRU among evictable warm scenes (checkpoint-backed, not the
        // one being published); idle scenes (no outstanding render
        // references) evict before referenced ones.
        auto pick = entries.end();
        bool pick_idle = false;
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            Entry &e = it->second;
            if (!e.scene || e.path.empty() || it->first == keep_id)
                continue;
            bool idle = e.scene.use_count() == 1;
            bool better =
                pick == entries.end() || (idle && !pick_idle) ||
                (idle == pick_idle &&
                 e.lastUsed < pick->second.lastUsed);
            if (better) {
                pick = it;
                pick_idle = idle;
            }
        }
        if (pick == entries.end())
            break; // nothing evictable; serve over budget
        Entry &e = pick->second;
        statEvictions++;
        if (!pick_idle) {
            // An in-flight render still holds the scene: eviction
            // only drops the registry's reference -- the render's
            // shared_ptr keeps the model alive until it drains.
            statEvictionsWhileReferenced++;
        }
        bytesWarm -= e.bytes;
        e.bytes = 0;
        graveyard.push_back(std::move(e.scene));
        e.scene = nullptr; // cold stub: keeps path, spec, generation
    }
}

int
SceneRegistry::loadHintMsLocked(const std::string &id) const
{
    double per = statEwmaLoadMs > 0.0 ? statEwmaLoadMs : 10.0;
    // Scale by how many load "waves" precede this scene in the queue:
    // a scene 5 deep behind a 2-loader pool waits ~3 load times.
    double waves = 1.0;
    for (size_t i = 0; i < loadQueue.size(); i++) {
        if (loadQueue[i] == id) {
            waves += static_cast<double>(
                i / static_cast<size_t>(cfg.maxConcurrentLoads));
            break;
        }
    }
    return std::max(1, static_cast<int>(std::ceil(per * waves)));
}

void
SceneRegistry::ensureLoadersLocked()
{
    if (!loaders.empty() || stopping)
        return;
    loaders.reserve(static_cast<size_t>(cfg.maxConcurrentLoads));
    for (int i = 0; i < cfg.maxConcurrentLoads; i++)
        loaders.emplace_back([this] { loaderLoop(); });
}

void
SceneRegistry::loaderLoop()
{
    for (;;) {
        std::string id;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cv.wait(lock,
                    [&] { return stopping || !loadQueue.empty(); });
            if (stopping)
                return;
            id = std::move(loadQueue.front());
            loadQueue.pop_front();
        }
        performLoad(id);
    }
}

void
SceneRegistry::performLoad(const std::string &id)
{
    SceneSpec spec;
    std::string path;
    uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = entries.find(id);
        if (it == entries.end())
            return; // unregistered while queued
        Entry &e = it->second;
        if (e.scene || e.quarantined || !e.loading) {
            // Superseded while queued (a direct publish warmed it, or
            // it was quarantined); nothing to load.
            e.loading = false;
            cv.notify_all();
            return;
        }
        spec = e.spec;
        path = e.path;
        gen = e.gen;
    }

    double t0 = nowMs();
    auto scene = std::make_shared<ServedScene>(id, gen, spec);
    scene->setSourcePath(path);
    CheckpointError err = loadWithRetries(*scene, spec, path);
    double ms = nowMs() - t0;
    if (err == CheckpointError::None)
        obs::MetricsRegistry::global()
            .histogram("registry.load_ms")
            .record(ms);

    std::vector<ServedScenePtr> graveyard;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = entries.find(id);
        if (it == entries.end()) {
            cv.notify_all();
            return; // unregistered mid-load; drop the model
        }
        Entry &e = it->second;
        e.loading = false;
        if (err == CheckpointError::None) {
            if (e.scene || e.gen > gen) {
                // A newer generation published while we loaded; the
                // incumbent wins and this load is discarded.
            } else {
                e.scene = std::move(scene);
                e.bytes = e.scene->residentBytes();
                bytesWarm += e.bytes;
                touchLocked(e);
                statReloads++;
                statLastLoadMs = ms;
                statEwmaLoadMs = statEwmaLoadMs <= 0.0
                                     ? ms
                                     : 0.7 * statEwmaLoadMs + 0.3 * ms;
                evictToFitLocked(id, graveyard);
            }
        } else if (structuralError(err)) {
            // A corrupt checkpoint can only produce this same error
            // again: quarantine the stub so concurrent demand cannot
            // fuel a reload storm. clearQuarantine() re-arms it.
            e.quarantined = true;
            e.quarantineError = err;
            warn("SceneRegistry: quarantined scene '" + id +
                 "' (checkpoint '" + path + "': " +
                 checkpointErrorName(err) + ")");
        } else {
            statLoadFailures++; // transient; stays cold for a retry
        }
        cv.notify_all();
    }
}

AcquireOutcome
SceneRegistry::acquireOrLoad(const std::string &id, double max_wait_ms)
{
    AcquireOutcome out;
    std::unique_lock<std::mutex> lock(mtx);
    auto it = entries.find(id);
    if (it == entries.end())
        return out; // Absent
    {
        Entry &e = it->second;
        if (e.scene) {
            touchLocked(e);
            out.scene = e.scene;
            out.state = SceneState::Warm;
            return out;
        }
        if (e.quarantined) {
            statQuarantineHits++;
            out.state = SceneState::Quarantined;
            out.error = e.quarantineError;
            return out;
        }
        if (!e.loading && !stopping && !e.path.empty()) {
            // Single-flight: this call owns the (one) reload; every
            // concurrent acquireOrLoad for the id joins it below.
            e.loading = true;
            loadQueue.push_back(id);
            statColdLoadsStarted++;
            out.startedLoad = true;
            ensureLoadersLocked();
            cv.notify_all();
        } else if (e.loading) {
            statSingleFlightJoins++;
        }
        out.state = e.loading ? SceneState::Loading : SceneState::Cold;
        out.retryAfterMs = loadHintMsLocked(id);
    }

    if (max_wait_ms <= 0.0 || out.state != SceneState::Loading)
        return out;

    // Bounded wait for the reload to settle (the caller's deadline is
    // the bound). Re-find the entry after every wake: the map may
    // rehash, and the id may be unregistered while we sleep.
    cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(max_wait_ms),
        [&] {
            auto it2 = entries.find(id);
            return stopping || it2 == entries.end() ||
                   it2->second.scene != nullptr ||
                   !it2->second.loading || it2->second.quarantined;
        });
    auto it2 = entries.find(id);
    if (it2 == entries.end()) {
        out.scene = nullptr;
        out.state = SceneState::Absent;
        return out;
    }
    Entry &e = it2->second;
    if (e.scene) {
        touchLocked(e);
        out.scene = e.scene;
        out.state = SceneState::Warm;
    } else if (e.quarantined) {
        out.state = SceneState::Quarantined;
        out.error = e.quarantineError;
    } else {
        out.state = e.loading ? SceneState::Loading : SceneState::Cold;
        out.retryAfterMs = loadHintMsLocked(id);
    }
    return out;
}

ServedScenePtr
SceneRegistry::awaitWarm(const std::string &id, double max_wait_ms)
{
    std::unique_lock<std::mutex> lock(mtx);
    auto settled = [&] {
        auto it = entries.find(id);
        return stopping || it == entries.end() ||
               it->second.scene != nullptr || !it->second.loading ||
               it->second.quarantined;
    };
    if (max_wait_ms <= 0.0) {
        cv.wait(lock, settled);
    } else {
        cv.wait_for(
            lock,
            std::chrono::duration<double, std::milli>(max_wait_ms),
            settled);
    }
    auto it = entries.find(id);
    if (it == entries.end() || !it->second.scene)
        return nullptr;
    touchLocked(it->second);
    return it->second.scene;
}

bool
SceneRegistry::evictScene(const std::string &id)
{
    std::vector<ServedScenePtr> graveyard;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = entries.find(id);
        if (it == entries.end() || !it->second.scene ||
            it->second.path.empty())
            return false;
        Entry &e = it->second;
        statEvictions++;
        if (e.scene.use_count() > 1)
            statEvictionsWhileReferenced++;
        bytesWarm -= e.bytes;
        e.bytes = 0;
        graveyard.push_back(std::move(e.scene));
        e.scene = nullptr;
        cv.notify_all();
    }
    return true;
}

bool
SceneRegistry::clearQuarantine(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(id);
    if (it == entries.end() || !it->second.quarantined)
        return false;
    it->second.quarantined = false;
    it->second.quarantineError = CheckpointError::None;
    cv.notify_all();
    return true;
}

ServedScenePtr
SceneRegistry::acquire(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(id);
    return it == entries.end() ? nullptr : it->second.scene;
}

bool
SceneRegistry::unregister(const std::string &id)
{
    ServedScenePtr doomed;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = entries.find(id);
        if (it == entries.end())
            return false;
        if (it->second.scene) {
            bytesWarm -= it->second.bytes;
            doomed = std::move(it->second.scene);
        }
        entries.erase(it);
        for (auto qit = loadQueue.begin(); qit != loadQueue.end();) {
            if (*qit == id)
                qit = loadQueue.erase(qit);
            else
                ++qit;
        }
        cv.notify_all();
    }
    return true;
}

uint64_t
SceneRegistry::generation(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(id);
    return it == entries.end() ? 0 : it->second.gen;
}

SceneState
SceneRegistry::state(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(id);
    if (it == entries.end())
        return SceneState::Absent;
    const Entry &e = it->second;
    if (e.scene)
        return SceneState::Warm;
    if (e.quarantined)
        return SceneState::Quarantined;
    return e.loading ? SceneState::Loading : SceneState::Cold;
}

size_t
SceneRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return entries.size();
}

SceneRegistryStats
SceneRegistry::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    SceneRegistryStats s;
    s.scenes = entries.size();
    for (const auto &kv : entries) {
        const Entry &e = kv.second;
        if (e.scene)
            s.warm++;
        else if (e.quarantined)
            s.quarantined++;
        else if (e.loading)
            s.loading++;
        else
            s.cold++;
    }
    s.bytesWarm = bytesWarm;
    s.budgetBytes = cfg.memoryBudgetBytes;
    s.evictions = statEvictions;
    s.evictionsWhileReferenced = statEvictionsWhileReferenced;
    s.coldLoadsStarted = statColdLoadsStarted;
    s.reloads = statReloads;
    s.singleFlightJoins = statSingleFlightJoins;
    s.loadFailures = statLoadFailures;
    s.quarantineHits = statQuarantineHits;
    s.lastLoadMs = statLastLoadMs;
    s.ewmaLoadMs = statEwmaLoadMs;
    return s;
}

} // namespace instant3d
