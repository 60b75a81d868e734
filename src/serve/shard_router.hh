/**
 * @file
 * Fault-tolerant shard router: a fleet front end over N in-process
 * RenderService shards.
 *
 * One RenderService is one failure domain -- a crash or stall takes
 * every scene it serves down with it. The ShardRouter composes N
 * services into a fleet that survives shard death, stalls, and
 * overload:
 *
 *  - **Placement**: scenes are placed on R shards (replication factor)
 *    by rendezvous (highest-random-weight) consistent hashing, so
 *    placement is a pure function of (scene id, shard index) and
 *    adding or removing a shard moves only the scenes that must move.
 *    Replicas share one canonical ServedScene through the registry's
 *    ref-count seam (SceneRegistry::publishShared), so every replica
 *    serves bit-identical Full-tier pixels by construction.
 *  - **Health / circuit breaker**: each shard carries a three-state
 *    breaker (Closed -> Open after breakerFailureThreshold consecutive
 *    Failed/Timeout/Crashed outcomes -> HalfOpen after breakerOpenMs,
 *    admitting one probe -> Closed on probe success, Open on failure).
 *    Backpressure rejections never trip the breaker: a busy shard is
 *    not a sick shard.
 *  - **Failover / retry**: a failed attempt re-dispatches to the next
 *    live replica with exponential backoff, bounded by maxAttempts and
 *    the request deadline (deadline-aware: the router gives up with
 *    DeadlineExceeded rather than retrying into a dead deadline, and
 *    the deadline holds while a dispatch is still outstanding).
 *  - **Hedging** (optional): when a dispatch has produced no response
 *    after hedgeDelayMs, a second replica gets the same request and
 *    the first response wins; the loser is abandoned (its work is the
 *    classic hedging waste). Exactly one response reaches the client.
 *  - **Drain**: drainShard() stops new admissions to a shard, re-places
 *    its scenes on live replicas (restoring R where possible), lets
 *    every queued and in-flight tile complete, then stops the shard --
 *    no queued request is failed by a drain.
 *
 * Routing is event-driven: no thread is parked per request. submit()
 * picks a replica and dispatches on the caller's thread; each shard
 * answer (a RenderService completion callback) either answers the
 * client or fails over, on whichever thread delivered it; and one
 * timer thread per router fires the retry backoff, the hedge delay,
 * shardTimeoutMs, the `shard.stall` mask and the request deadline.
 * A request's events are handled one at a time, in arrival order.
 *
 * Fleet fault points (`shard.fail`, `shard.stall`, `shard.crash`) are
 * threaded through the dispatch path, so failover, breaker
 * transitions, and hedge races replay deterministically under
 * INSTANT3D_FAULTS (see common/fault_injection.hh).
 *
 * Determinism contract: a scene's replicas are one shared model, and
 * every RenderService preserves the Full-tier bit-identity contract,
 * so a Full-tier pixel served through the router is bit-identical to
 * Trainer::renderImage regardless of replica choice, failover
 * history, hedging, or drain timing.
 */

#ifndef INSTANT3D_SERVE_SHARD_ROUTER_HH
#define INSTANT3D_SERVE_SHARD_ROUTER_HH

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/render_service.hh"
#include "serve/scene_registry.hh"

namespace instant3d {

/** Fleet tuning knobs. */
struct ShardRouterConfig
{
    /** Number of RenderService shards (failure domains); max 32. */
    int numShards = 4;

    /** Replicas per scene; clamped to numShards at placement time. */
    int replication = 2;

    /**
     * Per-shard service configuration (workers, queue, cache,
     * per-tier camera lattices, speculative prefetch...). The
     * lattice/prefetch knobs flow through unchanged to every shard;
     * the router additionally keys its replica-affinity rotation on
     * the requested tier's lattice so one coarse preview cell sticks
     * to one replica's cache, and fleetStats() sums the per-shard
     * cache/prefetch counters fleet-wide.
     */
    RenderServiceConfig shard;

    /**
     * Per-shard registry capacity policy (byte budget, loader cap).
     * With a budget set, each shard evicts its own LRU scenes and
     * cold-starts them back on demand; the router fails requests over
     * to a warm replica while a cold one reloads. Defaults to
     * unlimited (the pre-capacity fleet behavior).
     */
    SceneRegistryConfig registry;

    /** Dispatch attempts per request (first try + failovers). */
    int maxAttempts = 3;

    /**
     * Backoff before retry attempt k is retryBackoffMs << (k-1),
     * truncated to the request's remaining deadline.
     */
    int retryBackoffMs = 1;

    /**
     * Per-attempt shard timeout in ms; an attempt with no response in
     * time counts a Timeout outcome and fails over. 0 disables (the
     * router then waits on the shard indefinitely, or until the
     * request deadline).
     */
    double shardTimeoutMs = 0.0;

    /** Dispatch a hedge to a second replica after hedgeDelayMs. */
    bool hedgeRequests = false;
    double hedgeDelayMs = 20.0;

    /** Consecutive failures/timeouts that open a shard's breaker. */
    int breakerFailureThreshold = 3;

    /** Open -> HalfOpen cooldown in ms. */
    double breakerOpenMs = 100.0;
};

/**
 * The fleet front end. Owns N shards (each a SceneRegistry +
 * RenderService pair), a master registry of canonical scenes, and the
 * timer thread; it starts no other thread.
 */
class ShardRouter
{
  public:
    explicit ShardRouter(const ShardRouterConfig &router_config);
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /**
     * Snapshot a live trainer and place the scene on R shards.
     * Returns the published generation (0 on failure).
     */
    uint64_t addScene(const std::string &id, Trainer &trainer);

    /** Checkpoint-file variant of addScene (same retry semantics as
     *  SceneRegistry::registerFromCheckpoint). */
    uint64_t addSceneFromCheckpoint(const std::string &id,
                                    const SceneSpec &spec,
                                    const std::string &path);

    /**
     * Current replica set of a scene, in rendezvous preference order.
     * Empty when the scene is unknown or every replica is gone.
     */
    std::vector<int> placement(const std::string &id) const;

    /**
     * Route a request: returns a future resolving once a replica
     * serves it, every attempt is exhausted, or the deadline passes
     * (an outstanding dispatch is then abandoned).
     * Fleet-level failures surface as RequestStatus::Rejected with a
     * retry hint (the condition is retryable: breakers half-open,
     * crashed shards get their scenes re-placed).
     */
    std::future<RenderResponse> submit(const RenderRequest &request);

    /** Blocking convenience wrapper: submit() and wait. */
    RenderResponse render(const RenderRequest &request);

    /**
     * Gracefully drain shard `s`: stop new admissions, re-place its
     * scenes on live replicas, wait for its queued + in-flight tiles
     * to complete (no queued request is failed), then stop it. Blocks
     * until the shard is idle. False when `s` is already dead or
     * draining.
     */
    bool drainShard(int s);

    /**
     * Abrupt shard death (what the `shard.crash` fault point calls):
     * the service stops dead -- its queued requests resolve Shutdown
     * (the router counts each as a Crashed outcome and fails over) --
     * and its scenes are re-placed on live shards.
     */
    void killShard(int s);

    bool shardAlive(int s) const;
    BreakerState breakerState(int s) const;

    int numShards() const { return static_cast<int>(shards.size()); }

    /** The shard's service, for stats and tests; never null. */
    const RenderService &shardService(int s) const;

    /** The shard's registry (capacity stats, manual eviction -- an
     *  ops/test seam; placement itself stays router-driven). */
    SceneRegistry &shardRegistry(int s);

    FleetStats fleetStats() const;

  private:
    struct Shard;
    struct Dispatch;
    struct Route;
    using RoutePtr = std::shared_ptr<Route>;

    /** What wakes a routed request: a shard's answer or a timer. */
    enum class Wake : uint8_t
    {
        Attempt, Answer, ShardTimeout, Hedge, Deadline
    };
    struct Event
    {
        Wake kind = Wake::Attempt;
        int shard = -1;        //!< Whose dispatch it concerns, if any.
        RenderResponse resp{}; //!< Answer events only.
    };

    void post(const RoutePtr &route, Event ev);
    void handle(const RoutePtr &route, Event &ev);
    void advance(const RoutePtr &route, bool backed_off);
    bool dispatch(const RoutePtr &route, int s, bool hedge);
    void settle(const RoutePtr &route, size_t i, ShardOutcome outcome,
                RenderResponse resp);
    void finish(Route &route, RenderResponse resp);
    void traceDispatch(const Route &route, const Dispatch &d,
                       const char *outcome) const;
    void schedule(const RoutePtr &route, double at, Event ev);
    void timerLoop();
    std::vector<int> rotatedPlacement(const RenderRequest &request) const;
    int pickReplica(const std::vector<int> &order, uint32_t tried);
    void recordOutcome(int s, ShardOutcome outcome);
    void replaceScenesOf(int s);
    void seedPlacement(const std::string &id);
    void fillReplicas(const std::string &id, std::vector<int> &replicas);
    std::vector<int> rendezvousOrder(const std::string &id) const;

    ShardRouterConfig cfg;
    SceneRegistry master; //!< Canonical scenes (source for re-placement).

    std::vector<std::unique_ptr<Shard>> shards;

    mutable std::mutex placementMtx;
    std::unordered_map<std::string, std::vector<int>> placements;

    std::atomic<uint64_t> statRouted{0}, statFailovers{0},
        statRetries{0}, statHedgesIssued{0}, statHedgesWon{0},
        statCrashes{0}, statDrains{0}, statNoReplica{0},
        statColdStartFailovers{0};

    // Telemetry (src/obs/): the router's Perfetto track group, its
    // metrics-collector handle, and the routed-latency histogram.
    int obsGroup = 0;
    uint64_t obsCollector = 0;
    obs::LatencyHistogram *histRouteMs = nullptr;

    std::atomic<bool> stopping{false}; //!< Set under timerMtx.

    /** Pending timer events by due time (monotonicSeconds). */
    std::mutex timerMtx;
    std::condition_variable timerCv;
    std::multimap<double, std::pair<RoutePtr, Event>> timers;
    std::thread timer;
};

} // namespace instant3d

#endif // INSTANT3D_SERVE_SHARD_ROUTER_HH
