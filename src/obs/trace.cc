#include "obs/trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/telemetry.hh"

namespace instant3d {
namespace obs {

// ----------------------------------------------------- request trace

RequestTrace::RequestTrace(std::string scene_id, uint64_t request_id)
    : scene(std::move(scene_id)), requestId(request_id),
      begin(monotonicSeconds())
{
}

void
RequestTrace::addSpan(TraceSpan span)
{
    std::lock_guard<std::mutex> lock(mtx);
    spanList.push_back(std::move(span));
}

void
RequestTrace::note(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mtx);
    noteList.emplace_back(key, value);
}

std::vector<TraceSpan>
RequestTrace::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return spanList;
}

std::vector<std::pair<std::string, std::string>>
RequestTrace::notes() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return noteList;
}

std::string
RequestTrace::summary() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "request %llu scene=%s total=%.2fms\n",
                  static_cast<unsigned long long>(requestId),
                  scene.c_str(), total);
    out += buf;
    for (const auto &kv : noteList) {
        std::snprintf(buf, sizeof(buf), "  note %s=%s\n",
                      kv.first.c_str(), kv.second.c_str());
        out += buf;
    }
    // Spans relative to the trace origin, in begin order.
    std::vector<const TraceSpan *> ordered;
    ordered.reserve(spanList.size());
    for (const TraceSpan &s : spanList)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const TraceSpan *a, const TraceSpan *b) {
                  return a->beginT < b->beginT;
              });
    for (const TraceSpan *s : ordered) {
        std::snprintf(buf, sizeof(buf),
                      "  span %-22s +%8.2fms dur %8.2fms [%d/%d]",
                      s->name.c_str(), (s->beginT - begin) * 1e3,
                      (s->endT - s->beginT) * 1e3, s->trackGroup,
                      s->track);
        out += buf;
        for (const auto &kv : s->args) {
            std::snprintf(buf, sizeof(buf), " %s=%s",
                          kv.first.c_str(), kv.second.c_str());
            out += buf;
        }
        out += '\n';
    }
    return out;
}

// -------------------------------------------------------- lifecycle

RequestTracePtr
beginTrace(const std::string &scene_id)
{
    if (!enabled())
        return nullptr;
    static std::atomic<uint64_t> nextId{1};
    return std::make_shared<RequestTrace>(
        scene_id, nextId.fetch_add(1, std::memory_order_relaxed));
}

int
nextTrackGroup()
{
    static std::atomic<int> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------- ring

TraceRing &
TraceRing::global()
{
    static TraceRing *g = new TraceRing;
    return *g;
}

void
TraceRing::setSlowThresholdMs(double ms)
{
    std::lock_guard<std::mutex> lock(mtx);
    slowMs = ms;
}

double
TraceRing::slowThresholdMs() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return slowMs;
}

void
TraceRing::complete(const RequestTracePtr &trace, double total_ms)
{
    if (!trace)
        return;
    trace->total = total_ms;
    bool slow = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        nCompleted++;
        slow = slowMs > 0.0 && total_ms > slowMs;
        if (slow)
            nSlow++;
        ring.push_back(trace);
        while (ring.size() > capacity)
            ring.pop_front();
    }
    // The dump runs outside the ring lock: summary() takes the
    // trace's own lock and warn() does I/O.
    if (slow) {
        char head[96];
        std::snprintf(head, sizeof(head),
                      "slow request (%.2f ms > %.2f ms threshold):\n",
                      total_ms, slowThresholdMs());
        warn(head + trace->summary());
    }
}

void
TraceRing::recordActivity(TraceSpan span)
{
    std::lock_guard<std::mutex> lock(mtx);
    activity.push_back(std::move(span));
    // Activity slices are denser than request traces (one per
    // scheduler pass / chunk); give them a few ring-widths of room.
    while (activity.size() > capacity * 8)
        activity.pop_front();
}

void
TraceRing::setTrackName(int track_group, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    trackNames[track_group] = name;
}

std::vector<RequestTracePtr>
TraceRing::traces() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return {ring.begin(), ring.end()};
}

uint64_t
TraceRing::completedCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return nCompleted;
}

uint64_t
TraceRing::slowCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return nSlow;
}

void
TraceRing::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    ring.clear();
    activity.clear();
}

namespace {

/** Minimal JSON string escape (names and args are plain ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

void
appendEvent(std::string &out, const TraceSpan &s, double base_t,
            bool &first)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{",
                  first ? "" : ",", jsonEscape(s.name).c_str(),
                  (s.beginT - base_t) * 1e6,
                  (s.endT - s.beginT) * 1e6, s.trackGroup, s.track);
    out += buf;
    bool first_arg = true;
    for (const auto &kv : s.args) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":\"%s\"",
                      first_arg ? "" : ",",
                      jsonEscape(kv.first).c_str(),
                      jsonEscape(kv.second).c_str());
        out += buf;
        first_arg = false;
    }
    out += "}}";
    first = false;
}

} // namespace

std::string
TraceRing::exportChromeTrace() const
{
    std::vector<RequestTracePtr> snap;
    std::deque<TraceSpan> act;
    std::map<int, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mtx);
        snap.assign(ring.begin(), ring.end());
        act = activity;
        names = trackNames;
    }

    // Rebase timestamps so Perfetto doesn't show hours of dead time
    // before the first slice.
    double base_t = 0.0;
    bool have_base = false;
    auto consider = [&](const TraceSpan &s) {
        if (!have_base || s.beginT < base_t) {
            base_t = s.beginT;
            have_base = true;
        }
    };
    std::vector<std::vector<TraceSpan>> traceSpans;
    traceSpans.reserve(snap.size());
    for (const auto &t : snap) {
        traceSpans.push_back(t->spans());
        for (const TraceSpan &s : traceSpans.back())
            consider(s);
    }
    for (const TraceSpan &s : act)
        consider(s);

    std::string out = "{\"traceEvents\": [";
    bool first = true;
    char buf[256];
    for (const auto &kv : names) {
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
            "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
            first ? "" : ",", kv.first,
            jsonEscape(kv.second).c_str());
        out += buf;
        first = false;
    }
    for (const auto &spans : traceSpans)
        for (const TraceSpan &s : spans)
            appendEvent(out, s, base_t, first);
    for (const TraceSpan &s : act)
        appendEvent(out, s, base_t, first);
    out += "\n]}\n";
    return out;
}

// ------------------------------------------------------ scoped span

ScopedSpan::ScopedSpan(RequestTrace *trace, const char *name,
                       int track_group, int track)
    : target(trace)
{
    if (!target)
        return;
    span.name = name;
    span.trackGroup = track_group;
    span.track = track;
    span.beginT = monotonicSeconds();
}

ScopedSpan::~ScopedSpan()
{
    if (!target)
        return;
    span.endT = monotonicSeconds();
    target->addSpan(std::move(span));
}

void
ScopedSpan::arg(const std::string &key, const std::string &value)
{
    if (target)
        span.args.emplace_back(key, value);
}

} // namespace obs
} // namespace instant3d
