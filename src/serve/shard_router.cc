#include "serve/shard_router.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>

#include "common/fault_injection.hh"
#include "common/stats.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace instant3d {

namespace {

/** FNV-1a over (scene id, shard index): the rendezvous weight. */
uint64_t
rendezvousWeight(const std::string &id, int s)
{
    uint64_t h = 1469598103934665603ULL;
    for (char c : id) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ULL;
    }
    h ^= static_cast<uint64_t>(s) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
    h ^= h >> 29;
    return h;
}

/** Router-side classification of a shard's response. */
ShardOutcome
classify(const RenderResponse &resp)
{
    switch (resp.status) {
    case RequestStatus::Ok: return ShardOutcome::Ok;
    case RequestStatus::Rejected: return ShardOutcome::Rejected;
    case RequestStatus::Shutdown: return ShardOutcome::Crashed;
    // UnknownScene from a *placed* replica is a placement anomaly,
    // not a client error: fail over to a replica that has the scene.
    case RequestStatus::UnknownScene: return ShardOutcome::Failed;
    // The replica evicted the scene and is reloading it: fail over to
    // a warm replica, breaker-neutral.
    case RequestStatus::ColdStart: return ShardOutcome::ColdStart;
    // Quarantined checkpoint on that replica: another replica's copy
    // (shared canonical model or its own file) may still serve it.
    case RequestStatus::SceneUnavailable: return ShardOutcome::Failed;
    // Client-terminal statuses pass through; the shard answered, so
    // they are Ok outcomes for the breaker and end the request.
    case RequestStatus::BadRequest:
    case RequestStatus::DeadlineExceeded: return ShardOutcome::Ok;
    }
    return ShardOutcome::Failed;
}

} // namespace

/**
 * One failure domain: a private registry + service, plus the health
 * state the router tracks about it. `mtx` guards the mutable health
 * fields *and* serializes the submit handoff against drain/crash flag
 * flips (so a drain that has set `draining` is guaranteed no further
 * admissions). Lock order: placementMtx may be held while taking a
 * shard mtx, never the reverse; two shard mutexes are never held at
 * once.
 */
struct ShardRouter::Shard
{
    explicit Shard(const SceneRegistryConfig &registry_config)
        : registry(registry_config) {}

    SceneRegistry registry;
    std::unique_ptr<RenderService> service;

    mutable std::mutex mtx;
    bool alive = true;
    bool draining = false;
    BreakerState breaker = BreakerState::Closed;
    int consecutiveFailures = 0;
    double openedAt = 0.0;    //!< When the breaker last opened.
    bool probeInFlight = false;

    std::atomic<uint64_t> nDispatched{0}, nServed{0}, nFailed{0},
        nRejected{0}, nTimeouts{0}, nBreakerOpens{0},
        nBreakerHalfOpens{0}, nBreakerCloses{0}, nColdStarts{0};
};

/**
 * One router->shard dispatch still awaiting its outcome. The tried mask
 * never sends a request to one shard twice, so the shard names it.
 */
struct ShardRouter::Dispatch
{
    int shard = -1;
    bool hedge = false;
    double startT = 0.0;
    /** shard.stall mask: an earlier answer is re-timed to arrive here
     *  (a slow replica, modeled without holding any thread). */
    double readyAfter = 0.0;
};

/**
 * One routed request. Events (shard answers, timers) queue in
 * `events`; the thread that finds the request idle handles them one at
 * a time, so the routing state below needs no lock of its own, and an
 * answer delivered inside a dispatch just queues behind it.
 */
struct ShardRouter::Route
{
    RenderRequest request;
    std::promise<RenderResponse> promise;
    double submitT = 0.0;
    double deadlineT = 0.0; //!< Absolute; 0 = no deadline.
    /** The router began request.trace (and so completes it). */
    bool ownsTrace = false;

    std::vector<int> order; //!< Rotated replica preference.
    uint32_t tried = 0;
    int attempts = 0;
    bool hedged = false;
    /** Largest retry hint from a cold replica: if every replica is
     *  cold, the client's Rejected says when a reload may be done. */
    int coldHint = 0;
    /** 1 primary + at most 1 hedge; once done, the abandoned ones. */
    std::vector<Dispatch> active;
    bool done = false;

    std::mutex mtx; //!< Guards `events` and `handling`.
    std::deque<Event> events;
    bool handling = false;
};

ShardRouter::ShardRouter(const ShardRouterConfig &router_config)
    : cfg(router_config)
{
    // The tried-set is a uint32_t bitmask, hence the 32-shard ceiling.
    cfg.numShards = std::min(32, std::max(1, cfg.numShards));
    cfg.replication = std::min(cfg.numShards,
                               std::max(1, cfg.replication));
    cfg.maxAttempts = std::max(1, cfg.maxAttempts);
    cfg.retryBackoffMs = std::max(0, cfg.retryBackoffMs);
    cfg.shardTimeoutMs = std::max(0.0, cfg.shardTimeoutMs);
    cfg.hedgeDelayMs = std::max(0.0, cfg.hedgeDelayMs);
    cfg.breakerFailureThreshold =
        std::max(1, cfg.breakerFailureThreshold);
    cfg.breakerOpenMs = std::max(0.0, cfg.breakerOpenMs);

    shards.reserve(static_cast<size_t>(cfg.numShards));
    for (int s = 0; s < cfg.numShards; s++) {
        auto shard = std::make_unique<Shard>(cfg.registry);
        shard->service = std::make_unique<RenderService>(
            shard->registry, cfg.shard);
        shards.push_back(std::move(shard));
    }

    obsGroup = obs::nextTrackGroup();
    obs::TraceRing::global().setTrackName(
        obsGroup, "shard-router-" + std::to_string(obsGroup));
    auto &metrics = obs::MetricsRegistry::global();
    histRouteMs = &metrics.histogram("router.total_ms");
    // The collector mirrors only the router's own atomics; per-shard
    // serve counters are already collected by each shard's service.
    obsCollector = metrics.addCollector([this](obs::MetricsSink &sink) {
        sink.counter("router.requests_routed", statRouted.load());
        sink.counter("router.failovers", statFailovers.load());
        sink.counter("router.retries", statRetries.load());
        sink.counter("router.hedges_issued", statHedgesIssued.load());
        sink.counter("router.hedges_won", statHedgesWon.load());
        sink.counter("router.shards_crashed", statCrashes.load());
        sink.counter("router.shards_drained", statDrains.load());
        sink.counter("router.no_replica_available",
                     statNoReplica.load());
        sink.counter("router.cold_start_failovers",
                     statColdStartFailovers.load());
    });

    timer = std::thread([this] { timerLoop(); });
}

ShardRouter::~ShardRouter()
{
    obs::MetricsRegistry::global().removeCollector(obsCollector);
    {
        // Under the timer lock, so the timer cannot miss it between
        // its check and its wait.
        std::lock_guard<std::mutex> lock(timerMtx);
        stopping.store(true, std::memory_order_release);
    }
    timerCv.notify_all();
    timer.join();
    // Stopped shards answer their queued requests Shutdown, and with
    // `stopping` set a request resolves Shutdown instead of failing
    // over (or crashing the shard whose thread delivered the answer).
    for (auto &shard : shards)
        shard->service->stop();
    // What is left waits on a timer alone (a backoff, a stall mask),
    // and no other thread is left to race this.
    for (auto &kv : timers)
        if (!kv.second.first->done)
            finish(*kv.second.first,
                   statusResponse(RequestStatus::Shutdown));
}

// ----------------------------------------------------------- scenes

uint64_t
ShardRouter::addScene(const std::string &id, Trainer &trainer)
{
    uint64_t gen = master.registerFromTrainer(id, trainer);
    if (gen == 0)
        return 0;
    seedPlacement(id);
    return gen;
}

uint64_t
ShardRouter::addSceneFromCheckpoint(const std::string &id,
                                    const SceneSpec &spec,
                                    const std::string &path)
{
    uint64_t gen = master.registerFromCheckpoint(id, spec, path);
    if (gen == 0)
        return 0;
    seedPlacement(id);
    return gen;
}

std::vector<int>
ShardRouter::rendezvousOrder(const std::string &id) const
{
    std::vector<int> order(shards.size());
    for (size_t s = 0; s < shards.size(); s++)
        order[s] = static_cast<int>(s);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        uint64_t wa = rendezvousWeight(id, a);
        uint64_t wb = rendezvousWeight(id, b);
        return wa != wb ? wa > wb : a < b;
    });
    return order;
}

void
ShardRouter::fillReplicas(const std::string &id, std::vector<int> &replicas)
{
    // Top the set up to R on live shards in rendezvous preference
    // order. A replica is a pointer insert of the canonical scene, not
    // a model copy or reload.
    ServedScenePtr scene = master.acquire(id);
    for (int s : rendezvousOrder(id)) {
        if (!scene || static_cast<int>(replicas.size()) >= cfg.replication)
            return;
        if (std::find(replicas.begin(), replicas.end(), s) != replicas.end())
            continue;
        Shard &shard = *shards[static_cast<size_t>(s)];
        {
            std::lock_guard<std::mutex> lock(shard.mtx);
            if (!shard.alive || shard.draining)
                continue;
        }
        shard.registry.publishShared(id, scene);
        replicas.push_back(s);
    }
}

void
ShardRouter::seedPlacement(const std::string &id)
{
    std::lock_guard<std::mutex> place_lock(placementMtx);
    std::vector<int> placed;
    fillReplicas(id, placed);
    placements[id] = std::move(placed);
}

std::vector<int>
ShardRouter::placement(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(placementMtx);
    auto it = placements.find(id);
    return it == placements.end() ? std::vector<int>{} : it->second;
}

void
ShardRouter::replaceScenesOf(int s)
{
    std::lock_guard<std::mutex> place_lock(placementMtx);
    for (auto &kv : placements) {
        auto pos = std::find(kv.second.begin(), kv.second.end(), s);
        if (pos == kv.second.end())
            continue;
        kv.second.erase(pos);
        fillReplicas(kv.first, kv.second); // Restore R where possible.
    }
}

// ----------------------------------------------------------- health

void
ShardRouter::recordOutcome(int s, ShardOutcome outcome)
{
    Shard &shard = *shards[static_cast<size_t>(s)];
    std::lock_guard<std::mutex> lock(shard.mtx);
    shard.probeInFlight = false;
    switch (outcome) {
    case ShardOutcome::Ok:
        shard.nServed.fetch_add(1);
        shard.consecutiveFailures = 0;
        if (shard.breaker == BreakerState::HalfOpen) {
            shard.breaker = BreakerState::Closed;
            shard.nBreakerCloses.fetch_add(1);
        }
        break;
    case ShardOutcome::Rejected:
        // Backpressure is breaker-neutral: a busy shard is not a sick
        // shard. A rejected half-open probe neither closes nor reopens
        // the breaker -- the next candidate pass probes again.
        shard.nRejected.fetch_add(1);
        break;
    case ShardOutcome::ColdStart:
        // Breaker-neutral for the same reason: a shard reloading an
        // evicted scene is healthy, just cold for this scene. The
        // router fails over; the reload proceeds in the background.
        shard.nColdStarts.fetch_add(1);
        break;
    case ShardOutcome::Timeout:
    case ShardOutcome::Failed:
    case ShardOutcome::Crashed:
        (outcome == ShardOutcome::Timeout ? shard.nTimeouts : shard.nFailed)
            .fetch_add(1);
        shard.consecutiveFailures++;
        if (shard.breaker == BreakerState::HalfOpen ||
            (shard.breaker == BreakerState::Closed &&
             shard.consecutiveFailures >= cfg.breakerFailureThreshold)) {
            shard.breaker = BreakerState::Open;
            shard.openedAt = monotonicSeconds();
            shard.nBreakerOpens.fetch_add(1);
        }
        break;
    }
}

int
ShardRouter::pickReplica(const std::vector<int> &order, uint32_t tried)
{
    double now = monotonicSeconds();
    for (int s : order) {
        if (tried & (1u << s))
            continue;
        Shard &shard = *shards[static_cast<size_t>(s)];
        std::lock_guard<std::mutex> lock(shard.mtx);
        if (!shard.alive || shard.draining)
            continue;
        switch (shard.breaker) {
        case BreakerState::Closed:
            return s;
        case BreakerState::Open:
            // Lazy Open -> HalfOpen at candidate selection: the
            // cooldown sets no timer; the first request to look at the
            // shard after breakerOpenMs becomes the probe.
            if (now - shard.openedAt >= cfg.breakerOpenMs / 1e3) {
                shard.breaker = BreakerState::HalfOpen;
                shard.nBreakerHalfOpens.fetch_add(1);
                shard.probeInFlight = true;
                return s;
            }
            break;
        case BreakerState::HalfOpen:
            if (!shard.probeInFlight) {
                shard.probeInFlight = true;
                return s;
            }
            break;
        }
    }
    return -1;
}

// ----------------------------------------------------------- routing

std::vector<int>
ShardRouter::rotatedPlacement(const RenderRequest &request) const
{
    // Camera-keyed rotation of the replica preference order: the same
    // viewpoint lands on the same replica while replicas are healthy,
    // so the per-shard tile caches see coherent streams instead of
    // each camera spraying across all R caches. The key is hashed on
    // the requested tier's lattice (the same one the shard caches key
    // on), so with a coarse preview lattice every viewpoint in a cell
    // prefers the same replica -- a cell's cached tiles live in one
    // cache instead of being re-rendered in all R of them.
    std::vector<int> order = placement(request.sceneId);
    if (!order.empty()) {
        const float lattice =
            cfg.shard.cameraLattice[static_cast<int>(request.quality)];
        std::rotate(order.begin(),
                    order.begin() +
                        static_cast<long>(request.camera.hashKey(lattice) %
                                          order.size()),
                    order.end());
    }
    return order;
}

void
ShardRouter::post(const RoutePtr &route, Event ev)
{
    std::unique_lock<std::mutex> lock(route->mtx);
    route->events.push_back(std::move(ev));
    if (route->handling)
        return; // The handling thread picks it up in order.
    route->handling = true;
    while (!route->events.empty()) {
        Event next = std::move(route->events.front());
        route->events.pop_front();
        lock.unlock();
        handle(route, next);
        lock.lock();
    }
    route->handling = false;
}

void
ShardRouter::handle(const RoutePtr &route, Event &ev)
{
    Route &r = *route;
    size_t i = 0;
    while (i < r.active.size() && r.active[i].shard != ev.shard)
        i++;
    const bool live = i < r.active.size();
    if (r.done) {
        // An abandoned dispatch (past the deadline, or a hedge's loser)
        // still reports its shard's health -- a half-open probe must
        // not stay in flight forever -- but its answer is dropped.
        if (ev.kind == Wake::Answer && live) {
            recordOutcome(r.active[i].shard, classify(ev.resp));
            r.active.erase(r.active.begin() + static_cast<long>(i));
        }
        return;
    }

    switch (ev.kind) {
    case Wake::Attempt: // At submit, and when a backoff ends.
        return advance(route, true);
    case Wake::Answer:
        if (!live)
            return; // Abandoned: timed out.
        if (monotonicSeconds() < r.active[i].readyAfter)
            return schedule(route, r.active[i].readyAfter, std::move(ev));
        return settle(route, i, classify(ev.resp), std::move(ev.resp));
    case Wake::ShardTimeout:
        if (live)
            settle(route, i, ShardOutcome::Timeout, {});
        return;
    case Wake::Hedge:
        // One extra replica per request, launched when the primary
        // this timer was set for has produced nothing after
        // hedgeDelayMs.
        if (!r.hedged && r.active.size() == 1 && live) {
            r.hedged = true;
            int s = pickReplica(r.order, r.tried);
            if (s >= 0) {
                r.tried |= 1u << s;
                if (dispatch(route, s, true))
                    statHedgesIssued.fetch_add(1);
            }
        }
        return;
    case Wake::Deadline:
        for (const Dispatch &d : r.active)
            traceDispatch(r, d, "abandoned");
        return finish(r, statusResponse(RequestStatus::DeadlineExceeded));
    }
}

void
ShardRouter::advance(const RoutePtr &route, bool backed_off)
{
    Route &r = *route;
    auto reject = [&] {
        finish(r, statusResponse(RequestStatus::Rejected,
                                 std::max(cfg.shard.retryAfterMs,
                                          r.coldHint)));
    };
    for (;;) {
        if (stopping.load(std::memory_order_acquire))
            return finish(r, statusResponse(RequestStatus::Shutdown));
        const double now = monotonicSeconds();
        if (r.deadlineT > 0.0 && now >= r.deadlineT)
            return finish(r, statusResponse(RequestStatus::DeadlineExceeded));
        if (r.attempts >= cfg.maxAttempts)
            return reject();
        // Attempt k >= 2 backs off exponentially, truncated to the
        // remaining deadline.
        if (r.attempts > 0 && cfg.retryBackoffMs > 0 && !backed_off) {
            double backoff =
                (cfg.retryBackoffMs << (r.attempts - 1)) / 1e3;
            if (r.deadlineT > 0.0)
                backoff = std::min(backoff, r.deadlineT - now);
            return schedule(route, now + backoff, {Wake::Attempt});
        }
        backed_off = false;
        int s = pickReplica(r.order, r.tried);
        if (s < 0) {
            // First attempt, or placement shifted under us (a crash or
            // drain re-placed the scene): refresh the snapshot once
            // before giving up.
            r.order = rotatedPlacement(r.request);
            s = pickReplica(r.order, r.tried);
        }
        if (s < 0) {
            if (!master.acquire(r.request.sceneId))
                return finish(r, statusResponse(RequestStatus::UnknownScene));
            statNoReplica.fetch_add(1);
            return reject();
        }
        r.tried |= 1u << s;
        if (r.attempts > 0) {
            statRetries.fetch_add(1);
            statFailovers.fetch_add(1);
        }
        r.attempts++;
        if (dispatch(route, s, false))
            return;
    }
}

bool
ShardRouter::dispatch(const RoutePtr &route, int s, bool hedge)
{
    Route &r = *route;
    Dispatch d;
    d.shard = s;
    d.hedge = hedge;
    d.startT = monotonicSeconds();

    // Fleet fault points, checked in dispatch order. A crash takes
    // the whole shard down (scenes re-place; queued shard requests
    // resolve Shutdown); a fail costs only this attempt; a stall
    // delays observability of the response without holding a thread.
    ShardOutcome fault = ShardOutcome::Ok;
    if (fault::shouldFire(fault::Point::ShardCrash)) {
        killShard(s);
        fault = ShardOutcome::Crashed;
    } else if (fault::shouldFire(fault::Point::ShardFail)) {
        fault = ShardOutcome::Failed;
    } else {
        if (fault::shouldFire(fault::Point::ShardStall))
            d.readyAfter = d.startT +
                fault::armedDelayMs(fault::Point::ShardStall) / 1e3;
        // Submit under the shard mutex so a drain that has set
        // `draining` is guaranteed to see no later admissions. An
        // answer given inside submit() only queues on the route.
        Shard &shard = *shards[static_cast<size_t>(s)];
        std::lock_guard<std::mutex> lock(shard.mtx);
        if (!shard.alive || shard.draining) {
            fault = ShardOutcome::Failed;
        } else {
            r.active.push_back(d);
            shard.service->submit(
                r.request, [this, route, s](RenderResponse resp) {
                    post(route, {Wake::Answer, s, std::move(resp)});
                });
            shard.nDispatched.fetch_add(1);
        }
    }
    if (fault != ShardOutcome::Ok) {
        traceDispatch(r, d, shardOutcomeName(fault));
        recordOutcome(s, fault);
        return false;
    }
    if (cfg.shardTimeoutMs > 0.0)
        schedule(route, d.startT + cfg.shardTimeoutMs / 1e3,
                 {Wake::ShardTimeout, s});
    if (cfg.hedgeRequests && !r.hedged)
        schedule(route, d.startT + cfg.hedgeDelayMs / 1e3,
                 {Wake::Hedge, s});
    return true;
}

void
ShardRouter::settle(const RoutePtr &route, size_t i, ShardOutcome outcome,
                    RenderResponse resp)
{
    Route &r = *route;
    const Dispatch d = std::move(r.active[i]);
    r.active.erase(r.active.begin() + static_cast<long>(i));
    traceDispatch(r, d, shardOutcomeName(outcome));
    recordOutcome(d.shard, outcome);
    // A Shutdown answered while the router is stopping is the router's
    // own doing: crashing that shard would stop() it from its own
    // scheduler thread.
    if (outcome == ShardOutcome::Crashed &&
        !stopping.load(std::memory_order_acquire))
        killShard(d.shard);
    if (outcome == ShardOutcome::ColdStart) {
        // The replica began (or joined) its reload when it answered;
        // the failover goes to a warm one.
        statColdStartFailovers.fetch_add(1);
        r.coldHint = std::max(r.coldHint, resp.retryAfterMs);
    }
    if (outcome != ShardOutcome::Ok) {
        if (r.active.empty())
            advance(route, false);
        return;
    }
    if (r.request.trace) {
        // The losing dispatch (if any) is abandoned: its shard still
        // renders it, and its answer only updates the shard's health.
        for (const Dispatch &other : r.active)
            traceDispatch(r, other, "abandoned");
        if (d.hedge)
            r.request.trace->note("hedge_won", "1");
        if (r.attempts > 1)
            r.request.trace->note("failovers",
                                  std::to_string(r.attempts - 1));
    }
    if (d.hedge)
        statHedgesWon.fetch_add(1);
    finish(r, std::move(resp));
}

void
ShardRouter::finish(Route &r, RenderResponse resp)
{
    r.done = true;
    // Client-observed latency: the shard measured its own queue+render
    // span, but the client also paid backoff, failover, and the hedge
    // delay. The trace completes and the histogram records before the
    // client can see the answer.
    resp.totalMs = (monotonicSeconds() - r.submitT) * 1e3;
    histRouteMs->record(resp.totalMs);
    if (r.request.trace) {
        r.request.trace->note("status", requestStatusName(resp.status));
        if (r.ownsTrace)
            obs::TraceRing::global().complete(r.request.trace,
                                              resp.totalMs);
    }
    r.promise.set_value(std::move(resp));
}

void
ShardRouter::traceDispatch(const Route &r, const Dispatch &d,
                           const char *outcome) const
{
    // One span per dispatch, closed when the router resolves it
    // (response, fault, timeout, or abandonment).
    if (!r.request.trace)
        return;
    obs::TraceSpan span;
    span.name = "router.dispatch";
    span.beginT = d.startT;
    span.endT = monotonicSeconds();
    span.trackGroup = obsGroup;
    span.track = 0;
    span.args = {{"shard", std::to_string(d.shard)},
                 {"attempt", std::to_string(r.attempts)},
                 {"outcome", outcome}};
    if (d.hedge)
        span.args.emplace_back("hedge", "1");
    r.request.trace->addSpan(std::move(span));
}

void
ShardRouter::schedule(const RoutePtr &route, double at, Event ev)
{
    {
        std::lock_guard<std::mutex> lock(timerMtx);
        timers.emplace(at, std::make_pair(route, std::move(ev)));
    }
    timerCv.notify_one();
}

void
ShardRouter::timerLoop()
{
    std::unique_lock<std::mutex> lock(timerMtx);
    while (!stopping.load(std::memory_order_acquire)) {
        if (timers.empty()) {
            timerCv.wait(lock);
            continue;
        }
        auto first = timers.begin();
        const double wait = first->first - monotonicSeconds();
        if (wait > 0.0) {
            timerCv.wait_for(lock, std::chrono::duration<double>(wait));
            continue;
        }
        std::pair<RoutePtr, Event> due = std::move(first->second);
        timers.erase(first);
        lock.unlock();
        post(due.first, std::move(due.second));
        lock.lock();
    }
}

// ------------------------------------------------------- lifecycle

void
ShardRouter::killShard(int s)
{
    Shard &shard = *shards[static_cast<size_t>(s)];
    {
        std::lock_guard<std::mutex> lock(shard.mtx);
        if (!shard.alive)
            return;
        shard.alive = false;
    }
    statCrashes.fetch_add(1);
    // Queued requests on the dead shard resolve Shutdown; the router
    // classifies each answer as Crashed and fails it over. The
    // in-flight chunk renders to completion first.
    shard.service->stop();
    replaceScenesOf(s);
}

bool
ShardRouter::drainShard(int s)
{
    Shard &shard = *shards[static_cast<size_t>(s)];
    {
        std::lock_guard<std::mutex> lock(shard.mtx);
        if (!shard.alive || shard.draining)
            return false;
        shard.draining = true; // dispatch() admits nothing from here on
    }
    statDrains.fetch_add(1);

    // Re-place first so requests routed during the drain already have
    // a full replica set to land on.
    replaceScenesOf(s);

    // Let every queued and in-flight tile complete -- a drain fails no
    // admitted request.
    while (shard.service->outstandingTileCount() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    shard.service->stop();

    {
        std::lock_guard<std::mutex> lock(shard.mtx);
        shard.draining = false;
        shard.alive = false; // Fully drained.
    }
    return true;
}

bool
ShardRouter::shardAlive(int s) const
{
    Shard &shard = *shards[static_cast<size_t>(s)];
    std::lock_guard<std::mutex> lock(shard.mtx);
    return shard.alive;
}

const RenderService &
ShardRouter::shardService(int s) const
{
    return *shards[static_cast<size_t>(s)]->service;
}

SceneRegistry &
ShardRouter::shardRegistry(int s)
{
    return shards[static_cast<size_t>(s)]->registry;
}

BreakerState
ShardRouter::breakerState(int s) const
{
    Shard &shard = *shards[static_cast<size_t>(s)];
    std::lock_guard<std::mutex> lock(shard.mtx);
    return shard.breaker;
}

// ---------------------------------------------------------- client

std::future<RenderResponse>
ShardRouter::submit(const RenderRequest &request)
{
    statRouted.fetch_add(1);
    auto route = std::make_shared<Route>();
    route->request = request;
    // The router is the first tracing-aware layer for routed requests:
    // it begins the trace here and completes it in finish(). Shards it
    // dispatches to see a non-null trace and only append.
    if (!route->request.trace) {
        route->request.trace = obs::beginTrace(request.sceneId);
        route->ownsTrace = route->request.trace != nullptr;
    }
    route->submitT = monotonicSeconds();
    std::future<RenderResponse> fut = route->promise.get_future();
    if (request.deadlineMs > 0.0) {
        route->deadlineT = route->submitT + request.deadlineMs / 1e3;
        schedule(route, route->deadlineT, {Wake::Deadline});
    }
    post(route, {Wake::Attempt});
    return fut;
}

RenderResponse
ShardRouter::render(const RenderRequest &request)
{
    return submit(request).get();
}

// ----------------------------------------------------------- stats

FleetStats
ShardRouter::fleetStats() const
{
    FleetStats fs;
    fs.requestsRouted = statRouted.load();
    fs.failovers = statFailovers.load();
    fs.retries = statRetries.load();
    fs.hedgesIssued = statHedgesIssued.load();
    fs.hedgesWon = statHedgesWon.load();
    fs.shardsCrashed = statCrashes.load();
    fs.shardsDrained = statDrains.load();
    fs.noReplicaAvailable = statNoReplica.load();
    fs.coldStartFailovers = statColdStartFailovers.load();

    std::vector<size_t> sceneCounts(shards.size(), 0);
    {
        std::lock_guard<std::mutex> lock(placementMtx);
        for (const auto &kv : placements)
            for (int s : kv.second)
                sceneCounts[static_cast<size_t>(s)]++;
    }

    fs.shards.resize(shards.size());
    for (size_t s = 0; s < shards.size(); s++) {
        const Shard &shard = *shards[s];
        ShardStats &ss = fs.shards[s];
        {
            std::lock_guard<std::mutex> lock(shard.mtx);
            ss.alive = shard.alive;
            ss.draining = shard.draining;
            ss.breaker = shard.breaker;
        }
        ss.scenes = sceneCounts[s];
        ss.dispatched = shard.nDispatched.load();
        ss.served = shard.nServed.load();
        ss.failed = shard.nFailed.load();
        ss.rejected = shard.nRejected.load();
        ss.timeouts = shard.nTimeouts.load();
        ss.breakerOpens = shard.nBreakerOpens.load();
        ss.breakerHalfOpens = shard.nBreakerHalfOpens.load();
        ss.breakerCloses = shard.nBreakerCloses.load();
        ss.coldStarts = shard.nColdStarts.load();

        // Cache/prefetch passthrough: the per-tier lattice and the
        // speculative prefetch live inside each shard's service;
        // surface their counters as fleet-wide sums (stopped shards
        // stay queryable, so crashed/drained shards still report).
        const ServeStats svc = shard.service->stats();
        for (int t = 0; t < numQualityTiers; t++) {
            fs.cacheHitsPerTier[t] += svc.cacheHitsPerTier[t];
            fs.cacheMissesPerTier[t] += svc.cacheMissesPerTier[t];
        }
        fs.prefetchTilesEnqueued += svc.prefetchTilesEnqueued;
        fs.prefetchTilesRendered += svc.prefetchTilesRendered;
        fs.prefetchTilesCancelled += svc.prefetchTilesCancelled;
        fs.prefetchHits += svc.prefetchHits;
        fs.prefetchWasted += svc.prefetchWasted;
    }
    return fs;
}

} // namespace instant3d
