/**
 * @file
 * CleanRuntime — the software-only CLEAN system (§3, §4).
 *
 * The runtime combines:
 *   - precise WAW/RAW race detection (RaceChecker over a shadow backend),
 *   - Kendo deterministic synchronization (det::Kendo),
 *   - deterministic clock-rollover resets (RolloverController),
 *   - thread lifecycle with deterministic, reusable thread ids.
 *
 * Application code runs inside runtime-managed threads and performs all
 * potentially-shared accesses through its ThreadContext — the library
 * analogue of the paper's compiler instrumentation. Synchronization goes
 * through CleanMutex / CleanCondVar / CleanBarrier (sync_objects.h).
 *
 * When any thread detects a WAW or RAW race it throws RaceException and
 * the runtime raises a global abort flag so sibling threads unwind
 * promptly (ExecutionAborted) instead of waiting on the dead thread —
 * the library form of "the execution stops" (§3.1).
 */

#ifndef CLEAN_CORE_RUNTIME_H
#define CLEAN_CORE_RUNTIME_H

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/epoch.h"
#include "core/linear_shadow.h"
#include "core/race_check.h"
#include "core/race_exception.h"
#include "core/rollover.h"
#include "core/shared_heap.h"
#include "core/sparse_shadow.h"
#include "core/thread_state.h"
#include "det/kendo.h"
#include "inject/injection.h"
#include "obs/flight_recorder.h"
#include "recover/undo_log.h"
#include "support/common.h"
#include "support/deadlock_error.h"
#include "support/logging.h"
#include "support/stats.h"

namespace clean
{

class CleanRuntime;
class ThreadContext;
class CleanBarrier;
class RecoveryToken;

namespace recover
{
class RecoveryManager;
}

namespace obs
{
class RecordSink;
class SamplingGovernor;
}

namespace det
{
class ReplayDriver;
}

/** Shadow backend selection. */
enum class ShadowKind { Linear, Sparse };

/**
 * What happens when a WAW/RAW race is detected (§3.1 vs degraded modes).
 *
 *   Throw  — the paper's semantics: the racing thread throws
 *            RaceException before the racy write takes effect and the
 *            whole execution aborts.
 *   Report — TSan-style degraded mode: every race is logged and counted,
 *            execution continues. Detection keeps running, so later racy
 *            accesses are reported too.
 *   Count  — like Report without the per-race log line; only the counter
 *            and the failure report record the races.
 *
 * In Report/Count the racy write does take effect (its epoch publish is
 * skipped, exactly as if the check had not fired), so the "no out-of-
 * thin-air values" guarantee is deliberately given up — that is the
 * degradation.
 *
 *   Recover — SFR rollback + deterministic re-execution (ISSUE 3): the
 *            victim SFR's data writes and republished epochs are rolled
 *            back from a per-thread undo log, then re-executed serialized
 *            under a Kendo-ordered recovery token. Sites racing more than
 *            RuntimeConfig::maxRecoveries times are quarantined and
 *            degrade to Report semantics (named in failureReportJson).
 */
enum class OnRacePolicy { Throw, Report, Count, Recover };

const char *onRacePolicyName(OnRacePolicy policy);

/** Top-level configuration of a CleanRuntime. */
struct RuntimeConfig
{
    /** Race-check toggles, documented at CheckerConfig. Batching is on
     *  here, unlike in a bare CheckerConfig. */
    CheckerConfig checker{.batch = true};
    /** Slot-table capacity; live threads never exceed this. */
    ThreadId maxThreads = 64;
    /** Enable WAW/RAW race detection. */
    bool detection = true;
    /** Enable Kendo deterministic synchronization. */
    bool deterministic = true;
    ShadowKind shadow = ShadowKind::Linear;
    SharedHeapConfig heap;
    /**
     * Clocks at or above maxClock() - rolloverMargin trigger a reset at
     * the next sync point. The margin covers the handful of ticks a
     * single synchronization operation can perform.
     */
    ClockValue rolloverMargin = 8;
    /**
     * Watchdog bound on every blocking wait (Kendo turn waits, condition
     * and barrier waits, the join handshake, lock retry loops): a wait
     * longer than this throws a structured DeadlockError instead of
     * spinning forever. Must exceed the longest legitimate wait — i.e.
     * the longest SFR / compute phase of the workload. 0 disables the
     * watchdog (pre-hardening behaviour).
     */
    std::uint64_t watchdogMs = 10000;
    /** Race response policy; see OnRacePolicy. */
    OnRacePolicy onRace = OnRacePolicy::Throw;
    /** Recover policy: admitted recovery episodes per racy site before
     *  the site is quarantined (further races there degrade to Report).
     *  0 quarantines on first contact. */
    std::uint32_t maxRecoveries = 8;
    /** Recover policy: per-thread SFR undo log capacity in entries; an
     *  SFR that outgrows it becomes ineligible for rollback. */
    std::size_t undoLogEntries = std::size_t{1} << 16;
    /**
     * Overhead-budget SLO mode (§15, `--overhead-budget`): target
     * percentage of *controllable* checking overhead. 0 disables the
     * sampling tier entirely; 100 means "no budget" and is normalized
     * to off as well, so `--overhead-budget=100` is bit-identical to an
     * unbudgeted run by construction. In between, a per-thread
     * deterministic gate (core/sampling.h) sheds read checks and an
     * adaptive governor (obs/governor.h) steers the shed rate so the
     * measured overhead tracks the budget. Write checks are never shed
     * — shedding stays sound (reads never update metadata), it only
     * trades RAW detection probability for speed.
     */
    std::uint32_t overheadBudget = 0;
    /** Calibration cadence: every 2^sampleCalibLog2-th SFR of a thread
     *  sheds all reads, giving the governor its floor-cost samples.
     *  0 disables calibration (the governor then never engages). */
    unsigned sampleCalibLog2 = 6;
    /** Test/bench knob: pin the admission level (0..SampleGate::
     *  kMaxLevel) and disable governor adoption and calibration;
     *  -1 = governed (the production mode). */
    std::int32_t sampleForceLevel = -1;
    /** Deterministic fault injection (chaos harness); disabled unless
     *  inject.any(). */
    inject::InjectionConfig inject;
    /** Flight-recorder observability layer (ISSUE 4); off by default —
     *  no recorder is built and the hot path keeps one never-taken
     *  branch. Ignored when compiled out (CMake -DCLEAN_OBS=OFF). */
    obs::ObsConfig obs;
    /**
     * Record sink (ISSUE 6): when set, the runtime forces the flight
     * recorder on (with latency sampling off — physical time would
     * break byte-identical metrics) and streams every event into the
     * sink. Not owned; must outlive the runtime. Requires
     * `deterministic` — the recorded turn order IS the trace.
     */
    obs::RecordSink *recordSink = nullptr;
    /**
     * Replay driver (ISSUE 6): when set, Kendo turn grants are
     * re-driven from the loaded trace and the event stream is validated
     * against it; any disagreement raises a structured TraceError
     * (support/trace_error.h) instead of hanging or silently diverging.
     * Not owned. Mutually exclusive with `recordSink`.
     */
    det::ReplayDriver *replayDriver = nullptr;
};

/** Thrown in sibling threads after some thread raised a RaceException. */
class ExecutionAborted : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "execution aborted: a race exception occurred in another "
               "thread";
    }
};

/** Handle to a runtime-spawned thread; join through the spawning ctx. */
class ThreadHandle
{
  public:
    ThreadHandle() = default;
    explicit ThreadHandle(std::uint32_t record) : record_(record) {}

    bool valid() const { return record_ != kInvalid; }
    std::uint32_t record() const { return record_; }

  private:
    static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
    std::uint32_t record_ = kInvalid;
};

/**
 * Per-thread façade through which application code touches shared
 * memory. read()/write() implement the §4.3 ordering: the write check
 * (with its CAS epoch publish) runs *before* the store; the read check
 * runs immediately *after* the load.
 */
class ThreadContext
{
  public:
    ThreadContext(CleanRuntime &rt, ThreadId tid, std::uint32_t record);

    ThreadContext(const ThreadContext &) = delete;
    ThreadContext &operator=(const ThreadContext &) = delete;

    ThreadId tid() const { return state_->tid; }
    ThreadState &state() { return *state_; }
    const ThreadState &state() const { return *state_; }
    CleanRuntime &runtime() { return rt_; }
    std::uint32_t record() const { return record_; }

    /** Deterministic counter of this thread (Kendo). */
    det::DetCount detCount() const;

    /** Instrumented load of a shared scalar. The slow branch covers
     *  both fault injection and the Recover undo log; with neither
     *  armed the path is branch-for-branch identical to the PR-2 fast
     *  path (one abort poll + one unlikely slow-access branch). */
    template <typename T>
    T
    read(const T *p)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        if (CLEAN_UNLIKELY(slowAccess_)) {
            readSlow(reinterpret_cast<Addr>(p), &value, sizeof(T));
            return value;
        }
        std::memcpy(&value, p, sizeof(T));
        // Compiler barrier: the check must observe metadata no older
        // than the data load (x86-TSO gives the hardware ordering).
        asm volatile("" ::: "memory");
        onReadChecked(reinterpret_cast<Addr>(p), sizeof(T));
        return value;
    }

    /** Instrumented store of a shared scalar. */
    template <typename T>
    void
    write(T *p, T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (CLEAN_UNLIKELY(slowAccess_)) {
            writeSlow(reinterpret_cast<Addr>(p), &value, sizeof(T));
            return;
        }
        onWriteChecked(reinterpret_cast<Addr>(p), sizeof(T));
        asm volatile("" ::: "memory");
        std::memcpy(p, &value, sizeof(T));
    }

    /** Instrumented read-modify-write convenience (load, f, store). */
    template <typename T, typename F>
    void
    update(T *p, F f)
    {
        write(p, f(read(p)));
    }

    /** Range check for bulk reads (memcpy-in); call after copying.
     *  Defined inline below CleanRuntime so the whole per-access chain
     *  (Worker::read -> ThreadContext::read -> onRead -> checkRead ->
     *  RaceChecker fast path) collapses into one direct inlined call
     *  with no out-of-line hop. */
    void onRead(Addr addr, std::size_t size);

    /** Range check for bulk writes (memcpy-out); call before writing.
     *  Inline; see onRead. */
    void onWrite(Addr addr, std::size_t size);

    /** Counts @p n deterministic events (compute not visible as access). */
    void detTick(std::uint64_t n = 1);

    /**
     * Acquires this thread's deterministic turn: polls rollover parking
     * and spins until (detCount, tid) is the global minimum. Called by
     * sync objects; public so custom synchronization can be built on it.
     */
    void acquireTurn();

    /** Rollover poll only (used inside blocking retries). */
    void pollRollover();

    /**
     * Retires this thread's deferred read checks (§14 batched
     * checking), applying the runtime's on-race policy to every race
     * found: under Throw the first race propagates (after recording);
     * under Report/Count all races are recorded and the drain runs to
     * completion. No-op when batching is off or nothing is buffered.
     * Runs automatically at every SFR boundary (acquireTurn) and
     * before rollover parking; public so tests and custom sync can
     * force a boundary.
     */
    void drainBatch();

    /**
     * Injection hook for lock acquisitions: true when the configured
     * plan drops this acquire's happens-before join (a simulated
     * missed-instrumentation fault). Always false without injection.
     */
    bool injectSkipAcquire();

    /** Flight-recorder hooks for sync objects (no-ops unless the
     *  observability layer is enabled): lock acquired / released. */
    void obsSyncAcquire();
    void obsSyncRelease();

  private:
    friend class CleanRuntime;

    /** Out-of-line bulk access paths (injection and/or recovery). */
    void onReadSlow(Addr addr, std::size_t size);
    void onWriteSlow(Addr addr, std::size_t size);

    /** Checked scalar access bodies shared by the fast path; inline
     *  below CleanRuntime. */
    void onReadChecked(Addr addr, std::size_t size);
    void onWriteChecked(Addr addr, std::size_t size);

    /** Out-of-line scalar access paths, taken when injection or the
     *  Recover undo log is armed (slowAccess_). They perform the data
     *  movement themselves: the write path must be able to complete the
     *  pending store via replay instead of the caller's memcpy, and the
     *  read path must be able to re-load after a recovery. */
    void readSlow(Addr addr, void *bytes, std::size_t size);
    void writeSlow(Addr addr, const void *bytes, std::size_t size);

    /** Appends a read entry to the undo log (replay validation). */
    void logRead(Addr addr, const void *bytes, std::size_t size);

    /**
     * One recovery episode (ISSUE 3): roll the current SFR back,
     * acquire the Kendo-ordered recovery token, re-execute the SFR from
     * the log, bounded retries, forced final attempt. Returns false when
     * the episode is inadmissible (no log, poisoned log, quarantined
     * site) — the caller then degrades to recordRace.
     */
    bool recoverAccess(const RaceException &race, Addr addr, void *bytes,
                       std::size_t size, bool isWrite);

    /** Joins the conflicting epoch into our vector clock so the replay
     *  orders the victim SFR after the racing write. */
    void absorbRaceEpoch(const RaceException &race);

    /** Retracts the first @p count log entries' writes (reverse order):
     *  restore data bytes, then CAS our republished epochs back. */
    void rollbackWrites(std::size_t count);

    /** Re-applies the logged SFR under the recovery token. Returns false
     *  on read-validation mismatch (a concurrent writer changed an SFR
     *  input); throws RaceException on a nested race. Both roll back the
     *  applied prefix first. @p forced skips checks and validation. */
    bool replaySfr(bool forced);

    /** Kill-thread supervision (Recover): rolls back the open SFR,
     *  retires this thread from barriers and takes a final no-injection
     *  turn so the Kendo order is not wedged by the dead slot. */
    void retireAfterKill();

    /** The Kendo turn wait shared by acquireTurn and retireAfterKill:
     *  spins on the turn predicate (schedule-checked under replay) with
     *  abort polling, rollover parking and the watchdog, and records
     *  the TurnGrant event once granted. */
    void turnWait(const char *where);

    /** Injection checks at a shared-access site; throws ThreadKilled on
     *  a kill coordinate, returns true when the race check is skipped. */
    bool injectAtAccess();

    /** Injection checks at a synchronization site (delay / rollover /
     *  kill). */
    void injectAtSync();

    /** Out-of-line bodies of onReadChecked/onWriteChecked when the
     *  flight recorder is enabled: identical check semantics plus
     *  sampled check-latency timing (ObsConfig::latencySampleEvery). */
    void onReadObs(Addr addr, std::size_t size);
    void onWriteObs(Addr addr, std::size_t size);

    /** This thread's Kendo counter — the deterministic event stamp. */
    std::uint64_t obsDetNow() const;

    /** Appends one event to this thread's lane (caller checks
     *  obsLane_). */
    void obsEvent(obs::EventKind kind, std::uint64_t arg0 = 0,
                  std::uint64_t arg1 = 0);

    /** SFR boundary bookkeeping at a sync point: SfrEnd + SfrBegin
     *  events and the SFR-length histogram. */
    void obsSfrBoundary();

    /** Sampling tier (§15): reports the ended SFR's work interval
     *  (reads retired, wall ns, calibration flag) to the governor.
     *  Runs *before* the turn wait so estimates never include wait
     *  time. No-op on replay and under a forced level. */
    void sampleReport();

    /** Sampling tier boundary bookkeeping, after the SFR boundary
     *  completed: emits SampleShed / SampleQuarantine lane events,
     *  adopts the admission level (governor-published when recording,
     *  peeked from the trace when replaying), and arms the new SFR's
     *  calibration flag and work timer. */
    void sampleAdopt();

    CleanRuntime &rt_;
    std::uint32_t record_;
    ThreadState *state_;
    /** Fault plan (null when injection is off) and this thread's
     *  injection-site counter — the coordinate stream. */
    inject::InjectionPlan *plan_ = nullptr;
    std::uint64_t injectCoord_ = 0;
    /** This thread's SFR undo log (null unless OnRacePolicy::Recover
     *  with byte granularity); owned by the ThreadRecord. */
    recover::SfrLog *log_ = nullptr;
    /** Cached `plan_ != nullptr || log_ != nullptr`: the single
     *  fast-path branch covering both out-of-line access reasons. */
    bool slowAccess_ = false;
    /** This thread's flight-recorder lane; null unless the runtime
     *  built a recorder (RuntimeConfig::obs.enabled with CLEAN_OBS
     *  compiled in). The tracing-off hot path costs exactly this one
     *  never-taken null check. */
    obs::ThreadLane *obsLane_ = nullptr;
    /** Kendo stamp of the current SFR's begin (SFR-length histogram). */
    std::uint64_t obsSfrStartDet_ = 0;
    /** Countdown to the next sampled check latency. */
    std::uint32_t obsSampleCountdown_ = 0;
    /** --overhead-budget sampling tier armed (cached; §15). */
    bool sampling_ = false;
    /** True when the governor consumes this thread's measurements —
     *  recording/normal governed runs only; replays adopt recorded
     *  levels and forced-level runs never adapt. */
    bool sampleMeasure_ = false;
    /** stats.sharedReads / stats.shedReads at the last SFR boundary
     *  (per-interval deltas for governor reports and SampleShed). */
    std::uint64_t sampleLastReads_ = 0;
    std::uint64_t sampleLastSheds_ = 0;
    /** Wall stamp of the current SFR's work start (re-stamped after
     *  every turn wait, so intervals exclude waiting). */
    std::chrono::steady_clock::time_point sampleSfrStart_{};
};

/** Final record of a spawned thread, consumed at join. */
struct ThreadRecord
{
    enum class Phase : int { Unused, Running, Parked, Blocked, Finished };

    std::atomic<Phase> phase{Phase::Unused};
    ThreadId tid = 0;
    std::unique_ptr<ThreadState> state;
    std::unique_ptr<std::thread> osThread;
    std::exception_ptr error;
    det::DetCount finalDetCount = 0;
    /** Serializes the finish/join handshake (no unblock window). */
    std::mutex joinMutex;
    /** Set under joinMutex once the body finished. */
    bool done = false;
    /** Tid of a joiner blocked on this record, -1 if none. */
    std::int32_t joinerTid = -1;
    /** Raised (release) when the joiner may resume. */
    std::atomic<bool> joinFlag{false};
    /** SFR undo log (OnRacePolicy::Recover only; see recover/). */
    std::unique_ptr<recover::SfrLog> sfrLog;
};

/** The software-only CLEAN system. */
class CleanRuntime : private RolloverHost
{
  public:
    explicit CleanRuntime(const RuntimeConfig &config = {});
    ~CleanRuntime() override;

    CleanRuntime(const CleanRuntime &) = delete;
    CleanRuntime &operator=(const CleanRuntime &) = delete;

    const RuntimeConfig &config() const { return config_; }
    SharedHeap &heap() { return *heap_; }
    det::Kendo &kendo() { return *kendo_; }
    RolloverController &rollover() { return rollover_; }

    /** The implicitly-registered main thread's context (tid 0). */
    ThreadContext &mainContext() { return *mainCtx_; }

    /**
     * Spawns a thread running @p body. A synchronization (fork) event:
     * deterministic turn, deterministic tid assignment, vector-clock
     * fork semantics.
     */
    ThreadHandle spawn(ThreadContext &parent,
                       std::function<void(ThreadContext &)> body);

    /**
     * Joins a spawned thread: blocks deterministically, absorbs the
     * child's vector clock, recycles its tid. Rethrows nothing — a
     * child's RaceException is recorded; query via takeError() or
     * raceOccurred().
     */
    void join(ThreadContext &parent, ThreadHandle handle);

    /** True once any thread raised (or, in degraded modes, reported) a
     *  RaceException. */
    bool
    raceOccurred() const
    {
        return raceCount_.load(std::memory_order_acquire) > 0;
    }

    /** True once the execution is unwinding: a race under the Throw
     *  policy, a watchdog deadlock, or an unexpected exception. */
    bool
    aborted() const
    {
        return abortFlag_.load(std::memory_order_acquire);
    }

    /** Number of races recorded so far (equals 1 under Throw). */
    std::uint64_t
    raceCount() const
    {
        return raceCount_.load(std::memory_order_acquire);
    }

    /** First recorded race, if any (valid when raceOccurred()). */
    const RaceException *firstRace() const;

    /** True once a watchdog converted a stuck wait into DeadlockError. */
    bool deadlockOccurred() const;

    /** First recorded deadlock, if any. */
    const DeadlockError *firstDeadlock() const;

    /** Fault plan of this run, null when injection is off. */
    inject::InjectionPlan *injectionPlan() { return injectPlan_.get(); }

    /** Flight recorder; null unless RuntimeConfig::obs.enabled (and
     *  CLEAN_OBS compiled in). */
    obs::FlightRecorder *recorder() const { return recorder_.get(); }

    /** Replay driver of this run; null outside a replay. */
    det::ReplayDriver *replayDriver() const { return config_.replayDriver; }

    /**
     * Full merged event stream as Chrome trace-event JSON (Perfetto /
     * chrome://tracing). Timestamps are Kendo counters, so the trace of
     * a deterministic run is byte-identical run-to-run. Empty without a
     * recorder.
     */
    std::string obsTraceJson() const;

    /**
     * Structured metrics snapshot: counters (checker incl. replayed,
     * races, recovery, injection, rollovers) plus histograms (SFR
     * length in det events, sampled check latency in ns, retained
     * events by kind). The latency histogram is physical time — unlike
     * the event trace this snapshot is NOT byte-stable. Empty without a
     * recorder.
     */
    std::string metricsJson() const;

    /**
     * Machine-readable failure report: races (heap-relative offsets so
     * reports are byte-identical across runs in spite of ASLR), deadlock
     * diagnosis, per-slot deterministic counters, checker stats and
     * injection telemetry. Byte-identical across runs whenever the
     * execution itself is deterministic (any completed Kendo run,
     * including degraded Report/Count runs that continued past races).
     */
    std::string failureReportJson() const;

    /** Number of deterministic metadata resets performed (§4.5). */
    std::uint64_t rolloverResets() const { return rollover_.resets(); }

    /** Merged checker statistics of all threads seen so far. */
    CheckerStats aggregatedCheckerStats() const;

    /** Merged sampling-gate telemetry of all threads (zeros unless the
     *  sampling tier is armed). */
    SampleTelemetry aggregatedSampleTelemetry() const;

    /** Kendo counters of all ever-used slots (determinism experiment). */
    std::vector<det::DetCount> finalDetCounts() const;

    // --- internal API used by ThreadContext and sync objects ---

    /** Performs the read-side race check if addr is checked data. */
    CLEAN_ALWAYS_INLINE void
    checkRead(ThreadState &ts, Addr addr, std::size_t size)
    {
        if (!checkable(addr))
            return;
        if (linearChecker_)
            linearChecker_->afterRead(ts, addr, size);
        else
            sparseChecker_->afterRead(ts, addr, size);
    }

    /** Performs the write-side race check if addr is checked data. */
    CLEAN_ALWAYS_INLINE void
    checkWrite(ThreadState &ts, Addr addr, std::size_t size)
    {
        if (!checkable(addr))
            return;
        if (linearChecker_)
            linearChecker_->beforeWrite(ts, addr, size);
        else
            sparseChecker_->beforeWrite(ts, addr, size);
    }

    /** True iff detection is on and addr is in the checked region. */
    CLEAN_ALWAYS_INLINE bool
    checkable(Addr addr) const
    {
        return detection_ && addr >= checkBase_ && addr < checkEnd_;
    }

    /** Retires every deferred read check in @p ts's batch buffer
     *  (RaceChecker::drainBatch through the active shadow backend).
     *  Throws the first race found; ThreadContext::drainBatch is the
     *  policy-applying wrapper. */
    void
    drainBatch(ThreadState &ts)
    {
        if (linearChecker_)
            linearChecker_->drainBatch(ts);
        else
            sparseChecker_->drainBatch(ts);
    }

    /** True iff the checker is deferring read checks (config gates
     *  applied — see CheckerConfig::batch). */
    bool
    batchChecking() const
    {
        return linearChecker_ ? linearChecker_->batchEnabled()
                              : sparseChecker_->batchEnabled();
    }

    /**
     * Records a detected race. Returns true when the caller must
     * propagate the exception (OnRacePolicy::Throw — the abort flag is
     * raised); in the degraded Report/Count modes the race is
     * logged/counted and false tells the caller to continue. Under
     * Recover this is reached only for inadmissible episodes (poisoned
     * log, quarantined site) and behaves like Report.
     */
    bool recordRace(const RaceException &race);

    /** Records a race that is being *recovered* (log + counter only, no
     *  policy action — recordRace would double-report it). */
    void noteRace(const RaceException &race);

    /** True iff the --overhead-budget sampling tier is armed. */
    bool samplingEnabled() const { return sampling_; }

    /** Sampling governor; null unless samplingEnabled(). */
    obs::SamplingGovernor *samplingGovernor() const
    {
        return governor_.get();
    }

    /** True iff @p sfrOrdinal is a calibration SFR (all reads shed to
     *  sample the instrumentation floor; see sampleCalibLog2). */
    bool
    isCalibSfr(std::uint64_t sfrOrdinal) const
    {
        return sampleCalibMask_ != 0 &&
               ((sfrOrdinal + 1) & sampleCalibMask_) == 0;
    }

    /** Recovery ledger; null unless OnRacePolicy::Recover. */
    recover::RecoveryManager *recoveryManager() { return recovery_.get(); }

    /** Global recovery token; null unless OnRacePolicy::Recover. */
    RecoveryToken *recoveryToken() { return recoveryToken_.get(); }

    /** Heap-relative byte offset of @p addr (stable race-site key). */
    Addr heapOffset(Addr addr) const { return addr - checkBase_; }

    /** Shadow slot of one checked byte (byte granularity only); null
     *  when @p addr is not checkable. Used by rollback/replay. */
    EpochValue *
    shadowSlotFor(Addr addr)
    {
        if (!checkable(addr))
            return nullptr;
        if (linearShadow_)
            return linearShadow_->slots(addr);
        return sparseShadow_->slots(addr);
    }

    /** Barrier registry for kill supervision: a supervised dead thread
     *  must retire from every barrier so live parties stop waiting on
     *  its slot. Registration is a no-op outside Recover. */
    void registerBarrier(CleanBarrier *barrier);
    void unregisterBarrier(CleanBarrier *barrier);
    void retireFromBarriers(ThreadContext &ctx);

    /** Records a watchdog deadlock and raises the abort flag so every
     *  sibling wait loop unwinds. */
    void recordDeadlock(const DeadlockError &deadlock);

    /**
     * Builds, records and throws the DeadlockError for a watchdog that
     * fired in @p where after @p waitedMs on thread @p waiter.
     */
    [[noreturn]] void raiseDeadlock(const char *where, ThreadId waiter,
                                    std::uint64_t waitedMs);

    /** Throws ExecutionAborted if another thread raced. */
    CLEAN_ALWAYS_INLINE void
    throwIfAborted() const
    {
        if (CLEAN_UNLIKELY(abortFlag_.load(std::memory_order_relaxed)))
            throw ExecutionAborted();
    }

    /** Ticks @p ts's own clock, refreshing the cached epoch and arming a
     *  rollover when the clock nears its width (§4.5). */
    void tickClock(ThreadState &ts);

    /** Registers a sync object's vector clock for rollover resets. */
    void registerSyncClock(VectorClock *vc);
    void unregisterSyncClock(VectorClock *vc);

    /** Marks the phase of a record (Parked/Blocked/Running). */
    void setPhase(std::uint32_t record, ThreadRecord::Phase phase);

    /**
     * Transition a record from Blocked back to Running. Unlike a plain
     * setPhase this re-checks the rollover flag with seq_cst store-load
     * ordering so a waking thread can never slip past an in-progress
     * metadata reset (the resetter does not wait for Blocked threads).
     */
    void resumeFromBlocked(std::uint32_t record);

    /** Records are append-only and stable behind unique_ptr, but a
     *  concurrent spawn's push_back may reallocate the pointer array
     *  itself — take the registry lock for the lookup. Callers hold
     *  plain references across the call; those stay valid. */
    ThreadRecord &
    recordAt(std::uint32_t idx)
    {
        std::lock_guard<std::mutex> guard(registryMutex_);
        return *records_[idx];
    }

  private:
    // RolloverHost
    bool allOthersQuiescent(ThreadId selfTid) override;
    void performReset() override;

    std::uint32_t allocateRecord(ThreadId tid);
    ThreadId allocateTid(ThreadState &parentView);
    void releaseTid(ThreadId tid, ClockValue finalClock);

    /** Raises the abort flag; under replay also disarms the driver
     *  (post-abort unwind tails are physically timed, not validated). */
    void raiseAbortFlag();

    void threadMain(std::uint32_t record,
                    std::function<void(ThreadContext &)> body);

    /** Records a RaceDetected event on the accessor's lane. */
    void obsRaceDetected(const RaceException &race);

    RuntimeConfig config_;
    bool detection_;
    Addr checkBase_ = 0;
    Addr checkEnd_ = 0;

    std::unique_ptr<SharedHeap> heap_;
    std::unique_ptr<LinearShadow> linearShadow_;
    std::unique_ptr<SparseShadow> sparseShadow_;
    std::unique_ptr<RaceChecker<LinearShadow>> linearChecker_;
    std::unique_ptr<RaceChecker<SparseShadow>> sparseChecker_;
    std::unique_ptr<det::Kendo> kendo_;
    RolloverController rollover_;

    mutable std::mutex registryMutex_;
    std::vector<std::unique_ptr<ThreadRecord>> records_;
    std::vector<ThreadId> freeTids_;
    /** Next never-used tid (0 is the main thread). */
    ThreadId nextFreshTid_ = 1;
    /** Highest clock a previous holder of each tid reached (reuse). */
    std::vector<ClockValue> lastClock_;
    std::vector<VectorClock *> syncClocks_;
    std::vector<det::DetCount> retiredDetCounts_;

    /** --overhead-budget sampling tier (§15): armed flag, the params
     *  every gate is configured with (base = shared-heap base), the
     *  calibration-SFR mask (0 = calibration off) and the governor. */
    bool sampling_ = false;
    SampleParams sampleParams_;
    std::uint64_t sampleCalibMask_ = 0;
    std::unique_ptr<obs::SamplingGovernor> governor_;

    std::unique_ptr<ThreadContext> mainCtx_;
    std::unique_ptr<inject::InjectionPlan> injectPlan_;
    std::unique_ptr<obs::FlightRecorder> recorder_;
    std::unique_ptr<recover::RecoveryManager> recovery_;
    std::unique_ptr<RecoveryToken> recoveryToken_;
    mutable std::mutex barrierMutex_;
    std::vector<CleanBarrier *> barriers_;

    std::atomic<bool> abortFlag_{false};
    std::atomic<std::uint64_t> raceCount_{0};
    mutable std::mutex raceMutex_;
    /** First kMaxReportedRaces races, in recording order (report cap). */
    std::vector<RaceException> races_;
    std::unique_ptr<DeadlockError> firstDeadlock_;

    static constexpr std::size_t kMaxReportedRaces = 64;
};

// ---------------------------------------------------------------------
// ThreadContext hot-path access hooks.
//
// Defined here (after CleanRuntime) so the common no-injection case is a
// direct inlined call into the checker's fast path; only the injection
// branch leaves the header (onReadSlow/onWriteSlow in runtime.cc).
// ---------------------------------------------------------------------

inline void
ThreadContext::onReadChecked(Addr addr, std::size_t size)
{
    rt_.throwIfAborted();
    // The whole observability layer hangs off this one never-taken
    // branch on a cached member: with tracing off, the path below is
    // byte-for-byte the PR-2 fast path.
    if (CLEAN_UNLIKELY(obsLane_ != nullptr)) {
        onReadObs(addr, size);
        return;
    }
    try {
        rt_.checkRead(*state_, addr, size);
    } catch (const RaceException &race) {
        if (rt_.recordRace(race))
            throw;
    }
    rt_.kendo().increment(state_->tid);
}

inline void
ThreadContext::onWriteChecked(Addr addr, std::size_t size)
{
    rt_.throwIfAborted();
    if (CLEAN_UNLIKELY(obsLane_ != nullptr)) {
        onWriteObs(addr, size);
        return;
    }
    try {
        rt_.checkWrite(*state_, addr, size);
    } catch (const RaceException &race) {
        if (rt_.recordRace(race))
            throw;
    }
    rt_.kendo().increment(state_->tid);
}

inline void
ThreadContext::onRead(Addr addr, std::size_t size)
{
    if (CLEAN_UNLIKELY(slowAccess_)) {
        rt_.throwIfAborted();
        onReadSlow(addr, size);
        return;
    }
    onReadChecked(addr, size);
}

inline void
ThreadContext::onWrite(Addr addr, std::size_t size)
{
    if (CLEAN_UNLIKELY(slowAccess_)) {
        rt_.throwIfAborted();
        onWriteSlow(addr, size);
        return;
    }
    onWriteChecked(addr, size);
}

} // namespace clean

#endif // CLEAN_CORE_RUNTIME_H
