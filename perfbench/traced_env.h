/**
 * @file
 * The benchmark's traced CLEAN environment: a wl::CleanEnv that times,
 * from outside the runtime, every call a kernel makes into the sync
 * layer (det/kendo under core/sync_objects) and every worker body.
 *
 * Spans are kept in memory, one lane per worker, and rendered as Chrome
 * trace-event JSON (the format obs/trace_export writes, loadable in
 * Perfetto) after the run. Each lane keeps at most kMaxSpansPerLane
 * spans for the file; its totals count every call.
 */

#ifndef PERFBENCH_TRACED_ENV_H
#define PERFBENCH_TRACED_ENV_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/backend.h"

namespace perfbench
{

enum class SpanKind : std::uint8_t
{
    Body,
    Lock,
    Unlock,
    Barrier,
    CondWait,
    CondSignal,
    CondBroadcast,
};
inline constexpr std::size_t kSpanKinds = 7;

const char *spanKindName(SpanKind kind);

/** Sums over every lane of one run. */
struct SpanTotals
{
    /** Thread-nanoseconds spent in each kind of call. */
    std::array<std::int64_t, kSpanKinds> ns{};
    std::array<std::uint64_t, kSpanKinds> calls{};
    /** Orchestrator time in parallel() beyond its slowest worker body:
     *  thread spawn plus join. */
    std::int64_t parallelNs = 0;

    std::int64_t nsOf(SpanKind k) const { return ns[std::size_t(k)]; }
    std::uint64_t callsOf(SpanKind k) const { return calls[std::size_t(k)]; }
};

class TracedCleanEnv : public clean::wl::CleanEnv
{
  public:
    static constexpr std::size_t kMaxSpansPerLane = 10000;

    TracedCleanEnv(clean::CleanRuntime &rt, std::uint64_t seed);

    void parallel(unsigned n,
                  const std::function<void(clean::wl::Worker &)> &fn) override;
    void lockOp(clean::wl::Worker &w, unsigned id) override;
    void unlockOp(clean::wl::Worker &w, unsigned id) override;
    void barrierOp(clean::wl::Worker &w, unsigned id) override;
    void condWaitOp(clean::wl::Worker &w, unsigned cond,
                    unsigned mutex) override;
    void condSignalOp(clean::wl::Worker &w, unsigned cond) override;
    void condBroadcastOp(clean::wl::Worker &w, unsigned cond) override;

    /** Call only after the run, when no worker is live. */
    SpanTotals spanTotals() const;

    /** Appends this run's spans as comma-separated Chrome trace events
     *  under process @p pid named @p label. */
    void appendChromeEvents(std::string &out, unsigned pid,
                            const std::string &label) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::int64_t startNs;
        std::int64_t durNs;
        SpanKind kind;
    };

    /** Written only by the worker with this index while it runs, read
     *  by the orchestrator after the join. */
    struct Lane
    {
        std::vector<Span> spans;
        std::uint64_t droppedSpans = 0;
        std::array<std::int64_t, kSpanKinds> ns{};
        std::array<std::uint64_t, kSpanKinds> calls{};
        std::int64_t lastBodyNs = 0;
    };

    std::int64_t sinceOrigin(Clock::time_point t) const;
    void record(unsigned lane, SpanKind kind, Clock::time_point start);

    template <typename F>
    void
    timed(clean::wl::Worker &w, SpanKind kind, F &&op)
    {
        const Clock::time_point start = Clock::now();
        op();
        record(w.index(), kind, start);
    }

    Clock::time_point origin_;
    std::vector<Lane> lanes_;
    std::int64_t parallelNs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_ENV_H
