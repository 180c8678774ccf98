#include "traced_env.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench
{

using clean::wl::Worker;

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Body: return "worker";
      case SpanKind::Lock: return "lock";
      case SpanKind::Unlock: return "unlock";
      case SpanKind::Barrier: return "barrier";
      case SpanKind::CondWait: return "cond_wait";
      case SpanKind::CondSignal: return "cond_signal";
      case SpanKind::CondBroadcast: return "cond_broadcast";
    }
    return "?";
}

TracedCleanEnv::TracedCleanEnv(clean::CleanRuntime &rt, std::uint64_t seed)
    : CleanEnv(rt, seed), origin_(Clock::now())
{
}

std::int64_t
TracedCleanEnv::sinceOrigin(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

void
TracedCleanEnv::record(unsigned lane, SpanKind kind, Clock::time_point start)
{
    const Clock::time_point end = Clock::now();
    Lane &l = lanes_[lane];
    const std::int64_t dur = sinceOrigin(end) - sinceOrigin(start);
    l.ns[std::size_t(kind)] += dur;
    ++l.calls[std::size_t(kind)];
    if (kind == SpanKind::Body)
        l.lastBodyNs = dur;
    if (l.spans.size() < kMaxSpansPerLane)
        l.spans.push_back({sinceOrigin(start), dur, kind});
    else
        ++l.droppedSpans;
}

void
TracedCleanEnv::parallel(unsigned n, const std::function<void(Worker &)> &fn)
{
    // Lanes are sized here, before any worker of this section exists.
    if (lanes_.size() < n)
        lanes_.resize(n);
    for (unsigned i = 0; i < n; ++i)
        lanes_[i].lastBodyNs = 0;
    const Clock::time_point start = Clock::now();
    CleanEnv::parallel(n, [this, &fn](Worker &w) {
        timed(w, SpanKind::Body, [&] { fn(w); });
    });
    const std::int64_t wall = sinceOrigin(Clock::now()) - sinceOrigin(start);
    std::int64_t slowest = 0;
    for (unsigned i = 0; i < n; ++i)
        slowest = std::max(slowest, lanes_[i].lastBodyNs);
    parallelNs_ += wall - slowest;
}

void
TracedCleanEnv::lockOp(Worker &w, unsigned id)
{
    timed(w, SpanKind::Lock, [&] { CleanEnv::lockOp(w, id); });
}

void
TracedCleanEnv::unlockOp(Worker &w, unsigned id)
{
    timed(w, SpanKind::Unlock, [&] { CleanEnv::unlockOp(w, id); });
}

void
TracedCleanEnv::barrierOp(Worker &w, unsigned id)
{
    timed(w, SpanKind::Barrier, [&] { CleanEnv::barrierOp(w, id); });
}

void
TracedCleanEnv::condWaitOp(Worker &w, unsigned cond, unsigned mutex)
{
    timed(w, SpanKind::CondWait,
          [&] { CleanEnv::condWaitOp(w, cond, mutex); });
}

void
TracedCleanEnv::condSignalOp(Worker &w, unsigned cond)
{
    timed(w, SpanKind::CondSignal, [&] { CleanEnv::condSignalOp(w, cond); });
}

void
TracedCleanEnv::condBroadcastOp(Worker &w, unsigned cond)
{
    timed(w, SpanKind::CondBroadcast,
          [&] { CleanEnv::condBroadcastOp(w, cond); });
}

SpanTotals
TracedCleanEnv::spanTotals() const
{
    SpanTotals t;
    for (const Lane &l : lanes_) {
        for (std::size_t k = 0; k < kSpanKinds; ++k) {
            t.ns[k] += l.ns[k];
            t.calls[k] += l.calls[k];
        }
    }
    t.parallelNs = parallelNs_;
    return t;
}

void
TracedCleanEnv::appendChromeEvents(std::string &out, unsigned pid,
                                   const std::string &label) const
{
    char buf[256];
    auto emit = [&out](const char *event) {
        if (!out.empty())
            out += ",\n";
        out += event;
    };
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  pid, label.c_str());
    emit(buf);
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        const Lane &l = lanes_[lane];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                      "\"tid\":%zu,\"args\":{\"name\":\"worker %zu\","
                      "\"dropped_spans\":%" PRIu64 "}}",
                      pid, lane, lane, l.droppedSpans);
        emit(buf);
        for (const Span &s : l.spans) {
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
                          "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f}",
                          spanKindName(s.kind), pid, lane,
                          static_cast<double>(s.startNs) / 1e3,
                          static_cast<double>(s.durNs) / 1e3);
            emit(buf);
        }
    }
}

} // namespace perfbench
