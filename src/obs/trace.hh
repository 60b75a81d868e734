/**
 * @file
 * Per-request span tracing with Chrome trace-event export.
 *
 * A RequestTrace rides on RenderRequest (a shared_ptr TraceContext)
 * from ShardRouter::routeOne through shard dispatch, RenderService
 * admission, the EDF queue wait, chunk render, and cache scatter --
 * one span per stage, with attempt/hedge/failover/degradation
 * annotations attached along the way. The layer that *created* the
 * trace (router for routed requests, service for direct ones)
 * completes it; completed traces land in the process-wide TraceRing,
 * a bounded lock-protected ring of the last N requests (default 256).
 *
 * The ring also holds *activity* spans that belong to no single
 * request -- scheduler passes and chunk renders -- so the exported
 * Chrome trace-event JSON (exportChromeTrace(), loadable in Perfetto
 * or chrome://tracing) shows named slices on per-worker tracks: each
 * RenderService is a "process" (track group), tid 0 is its scheduler,
 * tid 1..N are its pool workers, and the router is its own group.
 *
 * A trace whose end-to-end time exceeds the ring's slow threshold is
 * dumped through warn() as a per-span breakdown at completion (the
 * slow-request log; see examples/serve_demo.cpp).
 *
 * Cost: every site is gated on obs::enabled() (one relaxed load
 * disarmed; compiled out under INSTANT3D_DISABLE_TELEMETRY), and
 * tracing never touches pixels -- served images are bit-identical
 * with tracing on, off, or compiled out.
 */

#ifndef INSTANT3D_OBS_TRACE_HH
#define INSTANT3D_OBS_TRACE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace instant3d {
namespace obs {

/** One named slice on one track: [beginT, endT] in monotonicSeconds. */
struct TraceSpan
{
    std::string name;
    double beginT = 0.0;
    double endT = 0.0;
    int trackGroup = 0; //!< Chrome "pid": router or service instance.
    int track = 0;      //!< Chrome "tid": 0 control, 1..N worker rank.
    /** Flat key/value annotations (attempt, shard, rays, ...). */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * The TraceContext of one request. Spans append from any thread
 * (the router's callers and timer, the scheduler, pool workers -- hedged
 * dispatches can even write from two shards at once), so appends are
 * mutex-protected; the request path takes this lock only a handful of
 * times per request.
 */
class RequestTrace
{
  public:
    RequestTrace(std::string scene_id, uint64_t request_id);

    void addSpan(TraceSpan span);
    /** Request-level annotation ("status", "hedge_won", ...). */
    void note(const std::string &key, const std::string &value);

    const std::string &sceneId() const { return scene; }
    uint64_t id() const { return requestId; }
    double beginT() const { return begin; }
    double totalMs() const { return total; }

    std::vector<TraceSpan> spans() const;
    std::vector<std::pair<std::string, std::string>> notes() const;

    /** Human-readable per-span breakdown (the slow-request dump). */
    std::string summary() const;

  private:
    friend class TraceRing;
    std::string scene;
    uint64_t requestId = 0;
    double begin = 0.0;
    double total = 0.0; //!< Set at completion (ms).
    mutable std::mutex mtx;
    std::vector<TraceSpan> spanList;
    std::vector<std::pair<std::string, std::string>> noteList;
};

using RequestTracePtr = std::shared_ptr<RequestTrace>;

/**
 * Begin a trace for one request: returns nullptr when tracing is
 * disabled (every consumer null-checks, so the disarmed path never
 * allocates). Request ids are drawn from a process-wide sequence.
 */
RequestTracePtr beginTrace(const std::string &scene_id);

/** Allocate a Chrome "pid" for one component (service / router). */
int nextTrackGroup();

/**
 * The process-wide ring of completed traces plus component activity
 * spans. Lock-protected and bounded: pushing past the capacity drops
 * the oldest trace.
 */
class TraceRing
{
  public:
    static TraceRing &global();

    /** Traces slower than this dump a breakdown via warn(); 0 = off. */
    void setSlowThresholdMs(double ms);
    double slowThresholdMs() const;

    /**
     * Complete a trace: stamps total_ms, fires the slow-request log
     * when over threshold, and appends to the ring. Null-safe.
     */
    void complete(const RequestTracePtr &trace, double total_ms);

    /** Record a request-less activity span (scheduler pass, chunk). */
    void recordActivity(TraceSpan span);

    /** Perfetto process_name for a track group. */
    void setTrackName(int track_group, const std::string &name);

    std::vector<RequestTracePtr> traces() const;
    uint64_t completedCount() const;
    uint64_t slowCount() const;
    void clear(); //!< Drop traces and activity (counters survive).

    /**
     * Chrome trace-event JSON ({"traceEvents": [...]}): every span of
     * every ringed trace plus the activity spans, as "X" (complete)
     * events with microsecond timestamps rebased to the earliest span.
     */
    std::string exportChromeTrace() const;

  private:
    mutable std::mutex mtx;
    size_t capacity = 256;
    double slowMs = 0.0;
    uint64_t nCompleted = 0;
    uint64_t nSlow = 0;
    std::deque<RequestTracePtr> ring;
    std::deque<TraceSpan> activity;
    std::map<int, std::string> trackNames;
};

/**
 * RAII span: records [construction, destruction] onto `trace` (when
 * non-null) under `name`. Annotations added via arg() while open.
 */
class ScopedSpan
{
  public:
    ScopedSpan(RequestTrace *trace, const char *name, int track_group,
               int track);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void arg(const std::string &key, const std::string &value);

  private:
    RequestTrace *target;
    TraceSpan span;
};

} // namespace obs
} // namespace instant3d

#endif // INSTANT3D_OBS_TRACE_HH
