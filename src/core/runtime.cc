#include "core/runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/sync_objects.h"
#include "det/replay.h"
#include "obs/governor.h"
#include "obs/trace_export.h"
#include "obs/trace_schema.h"
#include "recover/recovery.h"
#include "support/backoff.h"
#include "support/json.h"
#include "support/trace_error.h"

namespace clean
{

const char *
onRacePolicyName(OnRacePolicy policy)
{
    switch (policy) {
      case OnRacePolicy::Throw: return "throw";
      case OnRacePolicy::Report: return "report";
      case OnRacePolicy::Count: return "count";
      case OnRacePolicy::Recover: return "recover";
    }
    return "?";
}

namespace
{

const char *
phaseName(ThreadRecord::Phase phase)
{
    switch (phase) {
      case ThreadRecord::Phase::Unused: return "unused";
      case ThreadRecord::Phase::Running: return "running";
      case ThreadRecord::Phase::Parked: return "parked";
      case ThreadRecord::Phase::Blocked: return "blocked";
      case ThreadRecord::Phase::Finished: return "finished";
    }
    return "?";
}

} // namespace

// ---------------------------------------------------------------------
// ThreadContext
// ---------------------------------------------------------------------

ThreadContext::ThreadContext(CleanRuntime &rt, ThreadId tid,
                             std::uint32_t record)
    : rt_(rt), record_(record)
{
    state_ = rt.recordAt(record).state.get();
    CLEAN_ASSERT(state_ && state_->tid == tid);
    plan_ = rt.injectionPlan();
    log_ = rt.recordAt(record).sfrLog.get();
    slowAccess_ = plan_ != nullptr || log_ != nullptr;
    if (obs::FlightRecorder *recorder = rt.recorder()) {
        obsLane_ = recorder->lane(tid);
        obsSampleCountdown_ = recorder->config().latencySampleEvery;
        if (obsLane_ != nullptr) {
            obsSfrStartDet_ = obsDetNow();
            obsEvent(obs::EventKind::ThreadStart, record_);
            obsEvent(obs::EventKind::SfrBegin, state_->sfrOrdinal);
        }
    }
    sampling_ = rt.samplingEnabled();
    if (CLEAN_UNLIKELY(sampling_)) {
        sampleMeasure_ = rt.config().replayDriver == nullptr &&
                         rt.config().sampleForceLevel < 0;
        state_->sample.setCalibSfr(rt.isCalibSfr(state_->sfrOrdinal));
        sampleLastReads_ = state_->stats.sharedReads;
        sampleLastSheds_ = state_->stats.shedReads;
        if (sampleMeasure_)
            sampleSfrStart_ = std::chrono::steady_clock::now();
    }
}

std::uint64_t
ThreadContext::obsDetNow() const
{
    return rt_.kendo().count(state_->tid);
}

void
ThreadContext::obsEvent(obs::EventKind kind, std::uint64_t arg0,
                        std::uint64_t arg1)
{
    obsLane_->record(kind, obsDetNow(), arg0, arg1);
}

void
ThreadContext::obsSfrBoundary()
{
    const std::uint64_t now = obsDetNow();
    const std::uint64_t length = now - obsSfrStartDet_;
    obsLane_->sfrLength.add(length);
    obsLane_->record(obs::EventKind::SfrEnd, now, state_->sfrOrdinal - 1,
                     length);
    obsLane_->record(obs::EventKind::SfrBegin, now, state_->sfrOrdinal);
    obsSfrStartDet_ = now;
}

void
ThreadContext::obsSyncAcquire()
{
    if (CLEAN_LIKELY(obsLane_ == nullptr))
        return;
    const std::uint64_t now = obsDetNow();
    obsLane_->record(obs::EventKind::SyncAcquire, now, now,
                     state_->sfrOrdinal);
}

void
ThreadContext::obsSyncRelease()
{
    if (CLEAN_LIKELY(obsLane_ == nullptr))
        return;
    const std::uint64_t now = obsDetNow();
    obsLane_->record(obs::EventKind::SyncRelease, now, now,
                     state_->sfrOrdinal);
}

void
ThreadContext::onReadObs(Addr addr, std::size_t size)
{
    // Same check semantics as the inline body in runtime.h, plus the
    // sampled check-latency histogram. Which accesses get timed is a
    // function of the deterministic access stream; the measured
    // nanoseconds are physical (metrics only, never in the trace).
    const bool sample =
        obsSampleCountdown_ > 0 && --obsSampleCountdown_ == 0;
    if (sample) {
        obsSampleCountdown_ =
            rt_.recorder()->config().latencySampleEvery;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            rt_.checkRead(*state_, addr, size);
        } catch (const RaceException &race) {
            if (rt_.recordRace(race))
                throw;
        }
        const auto t1 = std::chrono::steady_clock::now();
        obsLane_->checkLatencyNs.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
    } else {
        try {
            rt_.checkRead(*state_, addr, size);
        } catch (const RaceException &race) {
            if (rt_.recordRace(race))
                throw;
        }
    }
    rt_.kendo().increment(state_->tid);
}

void
ThreadContext::onWriteObs(Addr addr, std::size_t size)
{
    const bool sample =
        obsSampleCountdown_ > 0 && --obsSampleCountdown_ == 0;
    if (sample) {
        obsSampleCountdown_ =
            rt_.recorder()->config().latencySampleEvery;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            rt_.checkWrite(*state_, addr, size);
        } catch (const RaceException &race) {
            if (rt_.recordRace(race))
                throw;
        }
        const auto t1 = std::chrono::steady_clock::now();
        obsLane_->checkLatencyNs.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
    } else {
        try {
            rt_.checkWrite(*state_, addr, size);
        } catch (const RaceException &race) {
            if (rt_.recordRace(race))
                throw;
        }
    }
    rt_.kendo().increment(state_->tid);
}

det::DetCount
ThreadContext::detCount() const
{
    return rt_.kendo().count(state_->tid);
}

void
ThreadContext::onReadSlow(Addr addr, std::size_t size)
{
    if (plan_ != nullptr && injectAtAccess()) {
        // Check skipped; the access still counts as a deterministic
        // event so the Kendo schedule is unchanged by the fault.
        rt_.kendo().increment(state_->tid);
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

void
ThreadContext::onWriteSlow(Addr addr, std::size_t size)
{
    // Bulk writes announce the range but not the data, so the undo log
    // cannot snapshot what the caller is about to store: the SFR becomes
    // ineligible for rollback.
    if (log_ != nullptr && rt_.checkable(addr))
        log_->poison();
    if (plan_ != nullptr && injectAtAccess()) {
        rt_.kendo().increment(state_->tid);
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

void
ThreadContext::logRead(Addr addr, const void *bytes, std::size_t size)
{
    // Unrepresentable reads are simply not logged: a missing read entry
    // only weakens replay validation, it never makes rollback unsound.
    if (log_ == nullptr || !rt_.checkable(addr) ||
        size > recover::SfrLog::kMaxAccessBytes)
        return;
    recover::SfrLog::Entry *entry = log_->append();
    if (entry == nullptr)
        return;
    entry->addr = addr;
    entry->size = static_cast<std::uint8_t>(size);
    entry->isWrite = false;
    std::memcpy(entry->newBytes, bytes, size);
}

void
ThreadContext::readSlow(Addr addr, void *bytes, std::size_t size)
{
    rt_.throwIfAborted();
    if (plan_ != nullptr && injectAtAccess()) {
        std::memcpy(bytes, reinterpret_cast<const void *>(addr), size);
        rt_.kendo().increment(state_->tid);
        return;
    }
    std::memcpy(bytes, reinterpret_cast<const void *>(addr), size);
    asm volatile("" ::: "memory");
    try {
        rt_.checkRead(*state_, addr, size);
        logRead(addr, bytes, size);
    } catch (const RaceException &race) {
        if (recoverAccess(race, addr, bytes, size, /*isWrite=*/false)) {
            // recoverAccess re-loaded the now-ordered value into bytes
            // and appended the read entry itself.
        } else {
            if (rt_.recordRace(race))
                throw;
            // Degraded: the racy value stands (Report semantics); log it
            // so a later recovery in this SFR replays what we saw.
            logRead(addr, bytes, size);
        }
    }
    rt_.kendo().increment(state_->tid);
}

void
ThreadContext::writeSlow(Addr addr, const void *bytes, std::size_t size)
{
    rt_.throwIfAborted();
    if (plan_ != nullptr && injectAtAccess()) {
        // The check (and its epoch publish) is dropped but the store
        // happens: the log can no longer retract this SFR faithfully.
        if (log_ != nullptr && rt_.checkable(addr))
            log_->poison();
        std::memcpy(reinterpret_cast<void *>(addr), bytes, size);
        rt_.kendo().increment(state_->tid);
        return;
    }
    // Log the write *before* its check: publishBytes CASes per byte and
    // can throw mid-access, so the rollback must already cover the
    // triggering access's partial epoch publish.
    recover::SfrLog::Entry *entry = nullptr;
    if (log_ != nullptr && rt_.checkable(addr)) {
        if (size <= recover::SfrLog::kMaxAccessBytes)
            entry = log_->append();
        else
            log_->poison();
        if (entry != nullptr) {
            entry->addr = addr;
            entry->size = static_cast<std::uint8_t>(size);
            entry->isWrite = true;
            std::memcpy(entry->oldBytes,
                        reinterpret_cast<const void *>(addr), size);
            std::memcpy(entry->newBytes, bytes, size);
            for (std::size_t i = 0; i < size; ++i) {
                const EpochValue *slot = rt_.shadowSlotFor(addr + i);
                entry->oldEpochs[i] =
                    slot ? __atomic_load_n(slot, __ATOMIC_RELAXED) : 0;
            }
        }
    }
    bool stored = false;
    try {
        rt_.checkWrite(*state_, addr, size);
    } catch (const RaceException &race) {
        if (entry != nullptr &&
            recoverAccess(race, addr, nullptr, size, /*isWrite=*/true)) {
            // The replay applied the pending write as the log's last
            // entry; storing again would be redundant.
            stored = true;
        } else if (rt_.recordRace(race)) {
            throw;
        }
    }
    if (!stored) {
        asm volatile("" ::: "memory");
        std::memcpy(reinterpret_cast<void *>(addr), bytes, size);
    }
    rt_.kendo().increment(state_->tid);
}

bool
ThreadContext::injectAtAccess()
{
    const std::uint64_t coord = injectCoord_++;
    if (plan_->killThread(state_->tid, coord)) {
        if (CLEAN_UNLIKELY(obsLane_ != nullptr))
            obsEvent(obs::EventKind::InjectionFired,
                     static_cast<std::uint64_t>(
                         inject::FaultKind::KillThread),
                     coord);
        throw inject::ThreadKilled(state_->tid, coord);
    }
    const bool skip = plan_->skipCheck(state_->tid, coord);
    if (CLEAN_UNLIKELY(skip && obsLane_ != nullptr))
        obsEvent(obs::EventKind::InjectionFired,
                 static_cast<std::uint64_t>(inject::FaultKind::SkipCheck),
                 coord);
    return skip;
}

void
ThreadContext::injectAtSync()
{
    const std::uint64_t coord = injectCoord_++;
    if (plan_->killThread(state_->tid, coord)) {
        if (CLEAN_UNLIKELY(obsLane_ != nullptr))
            obsEvent(obs::EventKind::InjectionFired,
                     static_cast<std::uint64_t>(
                         inject::FaultKind::KillThread),
                     coord);
        throw inject::ThreadKilled(state_->tid, coord);
    }
    if (const std::uint32_t us = plan_->delayMicros(state_->tid, coord)) {
        if (CLEAN_UNLIKELY(obsLane_ != nullptr))
            obsEvent(obs::EventKind::InjectionFired,
                     static_cast<std::uint64_t>(inject::FaultKind::Delay),
                     coord);
        std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
    if (plan_->forceRollover(state_->tid, coord)) {
        if (CLEAN_UNLIKELY(obsLane_ != nullptr))
            obsEvent(obs::EventKind::InjectionFired,
                     static_cast<std::uint64_t>(
                         inject::FaultKind::ForceRollover),
                     coord);
        rt_.rollover().request();
        pollRollover();
    }
}

bool
ThreadContext::injectSkipAcquire()
{
    if (CLEAN_LIKELY(plan_ == nullptr))
        return false;
    const std::uint64_t coord = injectCoord_++;
    const bool skip = plan_->skipAcquire(state_->tid, coord);
    if (CLEAN_UNLIKELY(skip && obsLane_ != nullptr))
        obsEvent(obs::EventKind::InjectionFired,
                 static_cast<std::uint64_t>(
                     inject::FaultKind::SkipAcquire),
                 coord);
    return skip;
}

void
ThreadContext::detTick(std::uint64_t n)
{
    rt_.kendo().increment(state_->tid, n);
}

void
ThreadContext::drainBatch()
{
    if (CLEAN_LIKELY(state_->batch.empty()))
        return;
    for (;;) {
        try {
            rt_.drainBatch(*state_);
            return;
        } catch (const RaceException &race) {
            if (rt_.recordRace(race))
                throw;
            // Non-aborting policy (Report/Count): the checker parked
            // the cursor past the racy access; keep draining so every
            // deferred check of this SFR still runs.
        }
    }
}

void
ThreadContext::pollRollover()
{
    if (!rt_.rollover().pending())
        return;
    // The reset wipes the shadow — the evidence every buffered read
    // check needs. Retire them before parking (a parked thread can
    // otherwise only have an empty buffer: every parking site is
    // inside a sync-op path that drained on entry).
    drainBatch();
    rt_.setPhase(record_, ThreadRecord::Phase::Parked);
    try {
        rt_.rollover().parkAndMaybeReset(
            state_->tid, [this] { return rt_.aborted(); });
    } catch (const RolloverController::AbortedWait &) {
        rt_.setPhase(record_, ThreadRecord::Phase::Running);
        throw ExecutionAborted();
    }
    rt_.setPhase(record_, ThreadRecord::Phase::Running);
}

void
ThreadContext::turnWait(const char *where)
{
    auto &kendo = rt_.kendo();
    if (!kendo.enabled())
        return;
    det::ReplayDriver *driver = rt_.replayDriver();
    SpinWait spin(rt_.config().watchdogMs);
    for (;;) {
        const bool kendoReady = kendo.tryTurn(state_->tid);
        if (CLEAN_LIKELY(driver == nullptr)) {
            if (kendoReady)
                break;
        } else if (driver->tryGrant(state_->tid, kendo.count(state_->tid),
                                    kendoReady) ==
                   det::GrantStatus::Granted) {
            break;
        }
        rt_.throwIfAborted();
        pollRollover();
        if (CLEAN_UNLIKELY(spin.expired())) {
            // A complete trace deadlocks exactly like the recorded run;
            // an incomplete one starved because the rest of the
            // schedule was never written — report the truncation.
            if (driver != nullptr && !driver->traceComplete())
                driver->raiseTruncatedWait(state_->tid,
                                           kendo.count(state_->tid));
            rt_.raiseDeadlock(where, state_->tid, spin.elapsedMs());
        }
        spin.pause();
    }
    if (CLEAN_UNLIKELY(obsLane_ != nullptr))
        obsEvent(obs::EventKind::TurnGrant, state_->sfrOrdinal);
}

void
ThreadContext::acquireTurn()
{
    rt_.throwIfAborted();
    // This sync op ends the SFR: deferred read checks must raise their
    // races before the boundary completes (§14) — before the release
    // ticks our clock / the acquire adds order, and before sfrOrdinal
    // moves on. Draining here covers every sync path (locks, condvars,
    // barriers, spawn, join, thread end), mirroring the ownership
    // cache's flush-on-refreshOwnEpoch funnel.
    drainBatch();
    pollRollover();
    if (CLEAN_UNLIKELY(plan_ != nullptr))
        injectAtSync();
    // Sampling tier (§15): the ended SFR's work interval is measured
    // *before* the turn wait, so governor estimates never include wait
    // time (the batch drain above is check work and is included).
    if (CLEAN_UNLIKELY(sampling_))
        sampleReport();
    turnWait("acquireTurn");
    // Every sync op ends the current SFR: its effects are (about to be)
    // released, so the undo records covering them are dead and a new
    // recovery unit begins.
    state_->sfrOrdinal++;
    if (CLEAN_UNLIKELY(log_ != nullptr))
        log_->beginSfr();
    if (CLEAN_UNLIKELY(obsLane_ != nullptr))
        obsSfrBoundary();
    // Sampling boundary bookkeeping runs after the SfrEnd/SfrBegin
    // pair so the Sample* lane records land at deterministic positions
    // the replay validator can hold them to.
    if (CLEAN_UNLIKELY(sampling_))
        sampleAdopt();
}

void
ThreadContext::sampleReport()
{
    if (!sampleMeasure_)
        return;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - sampleSfrStart_)
            .count());
    const std::uint64_t reads =
        state_->stats.sharedReads - sampleLastReads_;
    rt_.samplingGovernor()->report(reads, ns, state_->sample.calibSfr());
}

void
ThreadContext::sampleAdopt()
{
    SampleGate &gate = state_->sample;
    // (1) Shed telemetry of the interval that just ended. The delta
    // (and therefore the SampleShed record) is a function of the
    // deterministic decisions alone, so replay validates it
    // byte-for-byte — a budgeted trace proves which checks were shed.
    const std::uint64_t sheds = state_->stats.shedReads - sampleLastSheds_;
    sampleLastSheds_ = state_->stats.shedReads;
    sampleLastReads_ = state_->stats.sharedReads;
    gate.telemetry().shedPerBoundary.add(sheds);
    const std::uint64_t window =
        state_->stats.sharedReads >> gate.params().windowLog2;
    if (CLEAN_UNLIKELY(obsLane_ != nullptr) && sheds > 0)
        obsEvent(obs::EventKind::SampleShed, sheds, window);
    // (2) Regions the gate struck out since the last boundary become
    // lane events and governor-ledger episodes. Both consume only
    // deterministic inputs, so the ledger matches on replay too.
    if (CLEAN_UNLIKELY(gate.hasPendingQuarantines())) {
        for (const SampleGate::PendingQuarantine &q :
             gate.takePendingQuarantines()) {
            const Addr offset = static_cast<Addr>(q.region)
                                << gate.params().regionLog2;
            if (obsLane_ != nullptr)
                obsEvent(obs::EventKind::SampleQuarantine, offset,
                         q.strikes);
            rt_.samplingGovernor()->noteQuarantine(offset);
        }
    }
    // (3) Level adoption — the single point where physical measurement
    // feeds back into decisions. Recording/normal runs adopt the
    // governor's published level (emitting SampleLevel); replays peek
    // the recorded lane and re-adopt exactly the recorded levels at
    // exactly the recorded boundaries. Forced-level runs never adapt.
    if (sampleMeasure_) {
        const std::uint32_t level = rt_.samplingGovernor()->level();
        if (level != gate.level()) {
            gate.adoptLevel(level);
            if (obsLane_ != nullptr)
                obsEvent(obs::EventKind::SampleLevel, level, window);
        }
    } else if (det::ReplayDriver *driver = rt_.replayDriver()) {
        const std::int64_t level =
            driver->peekSampleLevel(state_->tid, obsDetNow());
        if (level >= 0) {
            gate.adoptLevel(static_cast<std::uint32_t>(level));
            if (obsLane_ != nullptr)
                obsEvent(obs::EventKind::SampleLevel,
                         static_cast<std::uint64_t>(level), window);
        }
    }
    // (4) Arm the new SFR: calibration flag, then the work timer.
    gate.setCalibSfr(rt_.isCalibSfr(state_->sfrOrdinal));
    if (sampleMeasure_)
        sampleSfrStart_ = std::chrono::steady_clock::now();
}

// ---------------------------------------------------------------------
// SFR rollback & deterministic re-execution (OnRacePolicy::Recover)
// ---------------------------------------------------------------------

void
ThreadContext::absorbRaceEpoch(const RaceException &race)
{
    // Recovery *orders* the race: the victim SFR re-executes after the
    // conflicting write, so that write's epoch must enter our vector
    // clock or the re-executed check would fire on the same epoch again.
    const ThreadId writer = race.previousWriter();
    if (writer == state_->tid)
        return;
    if (race.previousClock() > state_->vc.clockOf(writer))
        state_->vc.setClock(writer, race.previousClock());
}

void
ThreadContext::rollbackWrites(std::size_t count)
{
    if (log_ == nullptr)
        return;
    // Undo logs only arm under Recover, which forces batching off (the
    // runtime constructor gate), so no deferred check can straddle a
    // rollback — rolling back epochs under buffered-but-unchecked reads
    // would destroy their race evidence. Drain defensively and pin the
    // invariant in debug builds.
    drainBatch();
    CLEAN_ASSERT(state_->batch.empty(),
                 "batched checks pending across a rollback (tid %u)",
                 state_->tid);
    std::uint64_t restored = 0, skipped = 0;
    // Reverse order so multiple writes to one byte unwind to the
    // pre-SFR value and epoch.
    for (std::size_t i = count; i-- > 0;) {
        const recover::SfrLog::Entry &e = log_->at(i);
        if (!e.isWrite)
            continue;
        for (std::size_t j = 0; j < e.size; ++j) {
            EpochValue *slot = rt_.shadowSlotFor(e.addr + j);
            if (slot == nullptr)
                continue;
            EpochValue cur = __atomic_load_n(slot, __ATOMIC_RELAXED);
            // Retract only bytes we still own (our epoch, or 0 after a
            // rollover reset). A byte a later writer republished is that
            // writer's to keep — retracting it would corrupt *their*
            // SFR. Note the displaced epoch can equal ownEpoch across
            // consecutive SFRs (lock acquires tick the lock's clock, not
            // ours), which this guard handles: the CAS is a no-op swap.
            if (cur != state_->ownEpoch && cur != 0) {
                skipped++;
                continue;
            }
            // Data before epoch: a concurrent reader that observes the
            // retracted value still observes our unordered epoch and
            // therefore races (and recovers) itself.
            std::memcpy(reinterpret_cast<void *>(e.addr + j),
                        &e.oldBytes[j], 1);
            asm volatile("" ::: "memory");
            __atomic_compare_exchange_n(slot, &cur, e.oldEpochs[j], false,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED);
        }
        restored++;
    }
    // The retractions above undo epochs the ownership cache may have
    // recorded as "still ours" — ownEpoch itself is unchanged, so
    // refreshOwnEpoch never runs here and the flush must be explicit.
    // Without it, a stale hit during the replay (or in the resumed SFR)
    // would skip the very check whose race triggered this rollback.
    state_->ownCache.flush(state_->stats);
    if (auto *mgr = rt_.recoveryManager())
        mgr->noteRollback(restored, skipped);
    if (CLEAN_UNLIKELY(obsLane_ != nullptr))
        obsEvent(obs::EventKind::RecoveryRollback, restored, skipped);
}

bool
ThreadContext::replaySfr(bool forced)
{
    for (std::size_t i = 0; i < log_->size(); ++i) {
        const recover::SfrLog::Entry &e = log_->at(i);
        if (e.isWrite) {
            try {
                if (forced) {
                    // Unchecked re-publication: last-resort forward
                    // progress, counted as a forced (degraded) replay.
                    for (std::size_t j = 0; j < e.size; ++j) {
                        if (EpochValue *slot = rt_.shadowSlotFor(e.addr + j))
                            __atomic_store_n(slot, state_->ownEpoch,
                                             __ATOMIC_RELAXED);
                    }
                } else {
                    rt_.checkWrite(*state_, e.addr, e.size);
                }
            } catch (...) {
                // The failed check may have partially published; entry i
                // is covered by its own oldEpochs, so unwind through it.
                rollbackWrites(i + 1);
                throw;
            }
            std::memcpy(reinterpret_cast<void *>(e.addr), e.newBytes,
                        e.size);
        } else {
            std::uint8_t cur[recover::SfrLog::kMaxAccessBytes];
            std::memcpy(cur, reinterpret_cast<const void *>(e.addr),
                        e.size);
            asm volatile("" ::: "memory");
            if (forced)
                continue;
            try {
                rt_.checkRead(*state_, e.addr, e.size);
            } catch (...) {
                rollbackWrites(i);
                throw;
            }
            if (std::memcmp(cur, e.newBytes, e.size) != 0) {
                // A concurrent (ordered) writer changed an input of the
                // SFR since the original execution: re-applying the
                // logged writes would not be a faithful re-execution.
                rollbackWrites(i);
                return false;
            }
        }
    }
    return true;
}

namespace
{

/**
 * Satellite bugfix (ISSUE 4): replay re-executes SFR accesses through
 * the regular checker, which bumps CheckerStats a second time for
 * accesses the program only performed once. This scope snapshots the
 * base counters and, on exit, moves everything the episode added into
 * the .replayed* counters — Fig. 7/10 numbers keep counting each
 * program access exactly once, and the replay cost stays visible.
 * Wide-access shape counters (wideAccesses/wideSameEpoch/
 * wideCasUpdates) are restored without a replayed twin: replays repeat
 * the original shapes, so keeping their deltas would say nothing new.
 */
struct ReplayedStatsScope
{
    explicit ReplayedStatsScope(CheckerStats &stats)
        : stats(stats), base(stats)
    {
    }

    ~ReplayedStatsScope()
    {
        stats.replayedReads += stats.sharedReads - base.sharedReads;
        stats.replayedWrites += stats.sharedWrites - base.sharedWrites;
        stats.replayedBytes += stats.accessedBytes - base.accessedBytes;
        stats.replayedEpochUpdates +=
            stats.epochUpdates - base.epochUpdates;
        stats.sharedReads = base.sharedReads;
        stats.sharedWrites = base.sharedWrites;
        stats.accessedBytes = base.accessedBytes;
        stats.epochUpdates = base.epochUpdates;
        stats.wideAccesses = base.wideAccesses;
        stats.wideSameEpoch = base.wideSameEpoch;
        stats.wideCasUpdates = base.wideCasUpdates;
    }

    CheckerStats &stats;
    CheckerStats base;
};

} // namespace

bool
ThreadContext::recoverAccess(const RaceException &race, Addr addr,
                             void *bytes, std::size_t size, bool isWrite)
{
    recover::RecoveryManager *mgr = rt_.recoveryManager();
    RecoveryToken *token = rt_.recoveryToken();
    if (mgr == nullptr || token == nullptr || log_ == nullptr ||
        log_->poisoned())
        return false;
    if (!mgr->admitEpisode(rt_.heapOffset(race.addr()))) {
        if (CLEAN_UNLIKELY(obsLane_ != nullptr))
            obsEvent(obs::EventKind::Quarantine,
                     rt_.heapOffset(race.addr()));
        return false; // quarantined: caller degrades to recordRace
    }
    rt_.noteRace(race);
    absorbRaceEpoch(race);
    if (CLEAN_UNLIKELY(obsLane_ != nullptr))
        obsEvent(obs::EventKind::RecoveryBegin,
                 rt_.heapOffset(race.addr()), state_->sfrOrdinal);

    // Everything from here on re-executes already-counted accesses;
    // route the checker-stat deltas into the .replayed* counters.
    ReplayedStatsScope replayedStats(state_->stats);

    const std::uint32_t attempts =
        std::max<std::uint32_t>(1, mgr->config().attemptsPerEpisode);
    for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
        const bool forced = attempt + 1 == attempts;
        mgr->noteAttempt();
        if (CLEAN_UNLIKELY(obsLane_ != nullptr))
            obsEvent(obs::EventKind::RecoveryReplay, attempt,
                     forced ? 1 : 0);
        rollbackWrites(log_->size());
        // Serialize the re-execution: token grant order is fixed by the
        // Kendo clock, so competing recoveries replay in the same order
        // on every run.
        token->acquire(state_->tid, rt_.kendo().count(state_->tid));
        bool ok = false;
        try {
            ok = replaySfr(forced);
            if (ok && !isWrite) {
                // Complete the pending read under the token: re-load the
                // now-ordered value and re-check it.
                std::memcpy(bytes, reinterpret_cast<const void *>(addr),
                            size);
                asm volatile("" ::: "memory");
                if (!forced)
                    rt_.checkRead(*state_, addr, size);
            }
        } catch (const RaceException &nested) {
            // replaySfr already rolled back its applied prefix (a failed
            // pending-read check left only fully-replayed writes, undone
            // at the top of the next attempt... see below).
            token->release();
            mgr->noteReplayRace();
            absorbRaceEpoch(nested);
            // Deterministic backoff: one deterministic event, plus a
            // short physical pause to let the conflicting SFR drain.
            detTick(1);
            std::this_thread::yield();
            continue;
        } catch (...) {
            token->release();
            throw;
        }
        token->release();
        if (ok) {
            if (!isWrite)
                logRead(addr, bytes, size);
            mgr->noteRecovered(forced);
            if (CLEAN_UNLIKELY(obsLane_ != nullptr))
                obsEvent(obs::EventKind::RecoveryEnd, 1, forced ? 1 : 0);
            return true;
        }
        mgr->noteReplayMismatch();
        detTick(1);
        std::this_thread::yield();
    }
    return false; // unreachable: the forced attempt cannot fail
}

void
ThreadContext::retireAfterKill()
{
    // Supervised crash (OnRacePolicy::Recover): the dying thread's open
    // SFR is retracted — its writes were never released by a sync op, so
    // after rollback the crash is invisible to the data. Then retire the
    // Kendo slot cleanly instead of wedging the turn order.
    //
    // Recover forces batching off, so no deferred check can be pending
    // here; drain defensively so a future policy that mixes kill paths
    // with batching cannot silently discard evidence.
    drainBatch();
    if (log_ != nullptr) {
        rollbackWrites(log_->size());
        log_->beginSfr();
    }
    if (auto *mgr = rt_.recoveryManager())
        mgr->noteRecoveredKill();
    rt_.retireFromBarriers(*this);
    // Final turn without injection (the plan already killed this thread)
    // so the finish handshake below runs at a deterministic count. An
    // abort or watchdog during the wait just ends the retirement early.
    try {
        pollRollover();
        turnWait("retireAfterKill");
        state_->sfrOrdinal++;
    } catch (const ExecutionAborted &) {
    } catch (const DeadlockError &) {
    } catch (const TraceError &) {
        // The replay fault is latched in the driver; letting it escape
        // here would terminate (we are inside threadMain's handler).
    }
}

// ---------------------------------------------------------------------
// CleanRuntime
// ---------------------------------------------------------------------

CleanRuntime::CleanRuntime(const RuntimeConfig &config)
    : config_(config), detection_(config.detection), rollover_(*this)
{
    CLEAN_ASSERT(config_.checker.epoch.valid(), "invalid epoch layout");
    CLEAN_ASSERT(config_.maxThreads <= config_.checker.epoch.maxThreads(),
                 "maxThreads exceeds the epoch tid width");

    heap_ = std::make_unique<SharedHeap>(config_.heap);
    checkBase_ = heap_->sharedBase();
    checkEnd_ = checkBase_ + heap_->sharedSpan();

    // Overhead-budget sampling tier (§15). 100 means "spend the whole
    // check cost" — no budget — and normalizes to off, so budget=100
    // is bit-identical to an unbudgeted run by construction. Unlike
    // batching, sampling stays on under Recover and fault injection:
    // a shed read performs no check at all, so neither rollback
    // precision nor injected skip/kill coordinates are disturbed.
    if (config_.overheadBudget >= 100)
        config_.overheadBudget = 0;
    sampling_ = config_.overheadBudget > 0 && detection_;
    if (sampling_) {
        sampleParams_ = config_.checker.sample;
        sampleParams_.base = checkBase_;
        if (config_.sampleForceLevel >= 0) {
            // Pinned level (tests, floor benches): no governor
            // adoption, no calibration intervals — the gate becomes a
            // pure function of the deterministic inputs.
            sampleParams_.initialLevel = static_cast<std::uint32_t>(
                std::min<std::int32_t>(config_.sampleForceLevel,
                                       SampleGate::kMaxLevel));
        } else {
            if (config_.sampleCalibLog2 > 0)
                sampleCalibMask_ =
                    (std::uint64_t{1} << config_.sampleCalibLog2) - 1;
            // Fail-safe cold start: a governed run begins at the level
            // whose admission fraction equals the budget — the
            // worst-case prior that every admitted check is pure
            // overhead — and the governor's measurements earn
            // admission back down. Starting at 0 instead would spend
            // the whole cold-start transient over budget on workloads
            // whose hot phase comes early, and a workload too short to
            // prime the calibration floor would never be throttled at
            // all. Replay recomputes the same level from the same
            // recorded config, so the pre-first-adoption gate state
            // matches the recording bit for bit.
            sampleParams_.initialLevel =
                std::max(sampleParams_.initialLevel,
                         SampleGate::levelForBudget(config_.overheadBudget));
        }
        obs::GovernorConfig governorConfig;
        governorConfig.budgetPct = config_.overheadBudget;
        governorConfig.initialLevel = sampleParams_.initialLevel;
        governorConfig.active = config_.replayDriver == nullptr &&
                                config_.sampleForceLevel < 0;
        governor_ = std::make_unique<obs::SamplingGovernor>(governorConfig);
    }

    // Batched read checking is off under Recover — rollback re-executes
    // the SFR from the faulting access, which requires the race to be
    // raised *at* that access, not at the boundary — and whenever fault
    // injection is armed, whose skip/kill decisions are specified
    // against inline per-access checks (a killed thread must not take
    // unretired deferred checks with it).
    CheckerConfig checkerConfig = config_.checker;
    checkerConfig.batch = checkerConfig.batch &&
                          config_.onRace != OnRacePolicy::Recover &&
                          !config_.inject.any();
    if (config_.shadow == ShadowKind::Linear) {
        linearShadow_ = std::make_unique<LinearShadow>(heap_->sharedBase(),
                                                       heap_->sharedSpan());
        linearChecker_ = std::make_unique<RaceChecker<LinearShadow>>(
            checkerConfig, *linearShadow_, sampling_);
    } else {
        sparseShadow_ = std::make_unique<SparseShadow>();
        sparseChecker_ = std::make_unique<RaceChecker<SparseShadow>>(
            checkerConfig, *sparseShadow_, sampling_);
    }

    kendo_ = std::make_unique<det::Kendo>(config_.deterministic,
                                          config_.maxThreads);
    kendo_->setWatchdogMs(config_.watchdogMs);
    lastClock_.resize(config_.maxThreads, 0);

    if (config_.inject.any())
        injectPlan_ = std::make_unique<inject::InjectionPlan>(config_.inject);

    // Record/replay (ISSUE 6) rides on the flight recorder: the hook on
    // the record funnel is the sink (recording) or the validator
    // (replaying). Force the recorder on and latency sampling off —
    // the sampled histogram holds physical nanoseconds, which would
    // break byte-identical metrics across record and replay.
    if (config_.recordSink != nullptr || config_.replayDriver != nullptr) {
        if (!obs::kCompiledIn)
            throw TraceError(TraceFault::Unsupported,
                             "record/replay requires the observability "
                             "layer (rebuild with -DCLEAN_OBS=ON)");
        if (config_.recordSink != nullptr &&
            config_.replayDriver != nullptr)
            throw TraceError(TraceFault::Unsupported,
                             "cannot record and replay in the same run");
        if (!config_.deterministic)
            throw TraceError(TraceFault::Unsupported,
                             "record/replay requires deterministic "
                             "synchronization (the Kendo turn order is "
                             "the trace)");
        config_.obs.enabled = true;
        config_.obs.latencySampleEvery = 0;
    }

    // Before the main ThreadContext below: its constructor binds the
    // thread's lane.
    if (obs::kCompiledIn && config_.obs.enabled) {
        recorder_ = std::make_unique<obs::FlightRecorder>(
            config_.obs, config_.maxThreads);
        if (config_.recordSink != nullptr)
            recorder_->setHook(config_.recordSink);
        else if (config_.replayDriver != nullptr) {
            recorder_->setHook(config_.replayDriver);
            config_.replayDriver->setFaultHandler(
                [this] { raiseAbortFlag(); });
        }
    }

    if (config_.onRace == OnRacePolicy::Recover) {
        recover::RecoveryConfig rc;
        rc.maxRecoveries = config_.maxRecoveries;
        recovery_ = std::make_unique<recover::RecoveryManager>(rc);
        recoveryToken_ = std::make_unique<RecoveryToken>(*this);
        if (config_.checker.granuleLog2 != 0)
            warn("recover policy: granuleLog2 != 0 — undo logging needs "
                 "per-byte epochs, races will degrade to report");
        if (!detection_)
            warn("recover policy with detection off: nothing to recover");
    }

    // Register the main thread as tid 0, clock 1 (clock 0 is reserved so
    // a zero epoch always reads as "no previous write").
    const std::uint32_t rec = allocateRecord(0);
    ThreadRecord &r = recordAt(rec);
    r.state = std::make_unique<ThreadState>(config_.checker.epoch, 0,
                                            config_.maxThreads);
    r.state->vc.setClock(0, 1);
    r.state->refreshOwnEpoch();
    if (sampling_)
        r.state->sample.configure(sampleParams_);
    if (recovery_ && detection_ && config_.checker.granuleLog2 == 0)
        r.sfrLog = std::make_unique<recover::SfrLog>(config_.undoLogEntries);
    r.phase.store(ThreadRecord::Phase::Running);
    kendo_->activate(0, 0);
    mainCtx_ = std::make_unique<ThreadContext>(*this, 0, rec);
}

CleanRuntime::~CleanRuntime()
{
    // Joining every spawned thread is the user's job; salvage what we
    // can so the process does not std::terminate on a joinable thread.
    bool leaked = false;
    for (auto &record : records_) {
        if (record->osThread && record->osThread->joinable()) {
            leaked = true;
            raiseAbortFlag();
            record->osThread->join();
        }
    }
    if (leaked)
        warn("CleanRuntime destroyed with unjoined threads");
}

std::uint32_t
CleanRuntime::allocateRecord(ThreadId tid)
{
    auto record = std::make_unique<ThreadRecord>();
    record->tid = tid;
    records_.push_back(std::move(record));
    return static_cast<std::uint32_t>(records_.size() - 1);
}

ThreadId
CleanRuntime::allocateTid(ThreadState &parentView)
{
    (void)parentView;
    if (!freeTids_.empty()) {
        // Smallest free id first: deterministic under the deterministic
        // join order that produced the free list.
        auto it = std::min_element(freeTids_.begin(), freeTids_.end());
        const ThreadId tid = *it;
        freeTids_.erase(it);
        return tid;
    }
    const ThreadId tid = nextFreshTid_++;
    if (tid >= config_.maxThreads)
        fatal("thread limit exceeded: %u live threads (maxThreads=%u)",
              tid + 1, config_.maxThreads);
    return tid;
}

void
CleanRuntime::releaseTid(ThreadId tid, ClockValue finalClock)
{
    lastClock_[tid] = std::max(lastClock_[tid], finalClock);
    freeTids_.push_back(tid);
}

ThreadHandle
CleanRuntime::spawn(ThreadContext &parent,
                    std::function<void(ThreadContext &)> body)
{
    // Thread creation is a synchronization operation: deterministic turn,
    // deterministic tid (§3.3), vector-clock fork semantics.
    parent.acquireTurn();

    std::uint32_t rec;
    ThreadId childTid;
    {
        std::lock_guard<std::mutex> guard(registryMutex_);
        childTid = allocateTid(parent.state());
        rec = allocateRecord(childTid);
    }

    ThreadRecord &r = recordAt(rec);
    r.state = std::make_unique<ThreadState>(config_.checker.epoch, childTid,
                                            config_.maxThreads);
    // Fork: child inherits the parent's clock view...
    r.state->vc.assign(parent.state().vc);
    // ...but its own component must stay above any clock a previous
    // holder of this tid ever published (epoch monotonicity on reuse).
    const ClockValue resume = std::max(r.state->vc.clockOf(childTid),
                                       lastClock_[childTid]);
    r.state->vc.setClock(childTid, resume);
    r.state->vc.tick(childTid);
    r.state->refreshOwnEpoch();
    if (sampling_)
        r.state->sample.configure(sampleParams_);
    if (recovery_ && detection_ && config_.checker.granuleLog2 == 0)
        r.sfrLog = std::make_unique<recover::SfrLog>(config_.undoLogEntries);

    // ...and the parent ticks so later parent writes do not appear
    // ordered before the child's view.
    tickClock(parent.state());

    const det::DetCount childStart =
        kendo_->count(parent.state().tid) + 1;
    r.phase.store(ThreadRecord::Phase::Running, std::memory_order_release);
    kendo_->activate(childTid, childStart);
    kendo_->increment(parent.state().tid);

    r.osThread = std::make_unique<std::thread>(
        [this, rec, fn = std::move(body)]() mutable {
            threadMain(rec, std::move(fn));
        });
    return ThreadHandle(rec);
}

void
CleanRuntime::threadMain(std::uint32_t record,
                         std::function<void(ThreadContext &)> body)
{
    ThreadRecord &r = recordAt(record);
    ThreadContext ctx(*this, r.tid, record);
    const auto obsFinish = [this, &r, record] {
        if (CLEAN_LIKELY(recorder_ == nullptr))
            return;
        if (obs::ThreadLane *lane = recorder_->lane(r.tid))
            lane->record(obs::EventKind::ThreadFinish,
                         kendo_->count(r.tid), record);
    };
    try {
        body(ctx);
        // Normal thread end is a synchronization point (§2.2): take the
        // deterministic turn so the final clock/counter are reproducible.
        ctx.acquireTurn();
    } catch (const inject::ThreadKilled &) {
        r.error = std::current_exception();
        if (config_.onRace == OnRacePolicy::Recover) {
            // Supervised crash: roll the open SFR back and retire the
            // Kendo slot cleanly, then fall through to the normal finish
            // handshake so joiners and barriers keep making progress.
            ctx.retireAfterKill();
        } else {
            // Simulated crash: the thread vanishes with no finish
            // handshake and no Kendo finish, so its slot stays Active at
            // a frozen count. Siblings that wait on it are rescued by
            // the watchdog (DeadlockError naming this slot) — which is
            // the point of the fault.
            obsFinish();
            r.phase.store(ThreadRecord::Phase::Finished,
                          std::memory_order_release);
            return;
        }
    } catch (const RaceException &) {
        // recordRace already ran at the throw site.
        r.error = std::current_exception();
    } catch (const ExecutionAborted &) {
        r.error = std::current_exception();
    } catch (const DeadlockError &) {
        // recordDeadlock already ran where the watchdog fired.
        r.error = std::current_exception();
    } catch (...) {
        // Incl. TraceError: a replay fault aborts the whole execution
        // (the driver latched it; the runner surfaces it after the run).
        r.error = std::current_exception();
        raiseAbortFlag();
    }

    obsFinish();
    {
        std::lock_guard<std::mutex> guard(r.joinMutex);
        r.finalDetCount = kendo_->count(r.tid);
        r.done = true;
        if (r.joinerTid >= 0) {
            kendo_->unblock(static_cast<ThreadId>(r.joinerTid),
                            r.finalDetCount + 1);
            r.joinFlag.store(true, std::memory_order_release);
        }
    }
    kendo_->increment(r.tid);
    kendo_->finish(r.tid);
    r.phase.store(ThreadRecord::Phase::Finished, std::memory_order_release);
}

void
CleanRuntime::join(ThreadContext &parent, ThreadHandle handle)
{
    CLEAN_ASSERT(handle.valid());
    ThreadRecord &r = recordAt(handle.record());
    CLEAN_ASSERT(r.osThread, "join of a non-spawned record");

    bool mustWait = false;
    // Whatever goes wrong, the OS thread is physically reaped below
    // before the error propagates (no leaked joinable threads, no
    // use-after-free of state the child still touches while unwinding).
    std::exception_ptr pending;
    // Join is a synchronization operation.
    try {
        parent.acquireTurn();
        std::lock_guard<std::mutex> guard(r.joinMutex);
        if (r.done)
            kendo_->raiseTo(parent.state().tid, r.finalDetCount + 1);
        kendo_->increment(parent.state().tid);
        if (!r.done) {
            // Counted before blocking: from here on only the child's
            // finish handshake writes our slot.
            kendo_->block(parent.state().tid);
            r.joinerTid = static_cast<std::int32_t>(parent.state().tid);
            mustWait = true;
        }
    } catch (const ExecutionAborted &) {
        // Aborted runs still physically reap the thread below.
    } catch (const DeadlockError &) {
        pending = std::current_exception();
    } catch (const TraceError &) {
        // A replay fault: the driver latched it and raised the abort
        // flag, so the child unwinds promptly and the join below is
        // bounded.
        pending = std::current_exception();
    }

    if (mustWait) {
        setPhase(parent.record(), ThreadRecord::Phase::Blocked);
        // The handshake never comes if the child was killed mid-SFR:
        // poll the abort flag and bound the wait with the watchdog.
        SpinWait spin(config_.watchdogMs);
        while (!r.joinFlag.load(std::memory_order_acquire)) {
            if (CLEAN_UNLIKELY(aborted()))
                break;
            if (CLEAN_UNLIKELY(spin.expired())) {
                try {
                    raiseDeadlock("join", parent.state().tid,
                                  spin.elapsedMs());
                } catch (const DeadlockError &) {
                    if (!pending)
                        pending = std::current_exception();
                }
                break;
            }
            spin.pause();
        }
        try {
            resumeFromBlocked(parent.record());
        } catch (const ExecutionAborted &) {
            if (!pending)
                pending = std::current_exception();
        } catch (const TraceError &) {
            if (!pending)
                pending = std::current_exception();
        }
    }
    r.osThread->join();

    // Absorb the child's happens-before knowledge and recycle its tid.
    parent.state().vc.joinFrom(r.state->vc);
    {
        std::lock_guard<std::mutex> guard(registryMutex_);
        releaseTid(r.tid, r.state->vc.clockOf(r.tid));
        retiredDetCounts_.push_back(r.finalDetCount);
    }
    if (pending)
        std::rethrow_exception(pending);
}

void
CleanRuntime::obsRaceDetected(const RaceException &race)
{
    // recordRace and noteRace run on the accessing thread, so the
    // accessor's lane keeps its single-producer contract.
    if (CLEAN_LIKELY(recorder_ == nullptr))
        return;
    if (obs::ThreadLane *lane = recorder_->lane(race.accessor()))
        lane->record(obs::EventKind::RaceDetected,
                     kendo_->count(race.accessor()),
                     heapOffset(race.addr()),
                     static_cast<std::uint64_t>(race.kind()));
}

bool
CleanRuntime::recordRace(const RaceException &race)
{
    {
        std::lock_guard<std::mutex> guard(raceMutex_);
        if (races_.size() < kMaxReportedRaces)
            races_.push_back(race);
    }
    raceCount_.fetch_add(1, std::memory_order_acq_rel);
    obsRaceDetected(race);
    switch (config_.onRace) {
      case OnRacePolicy::Throw:
        raiseAbortFlag();
        return true;
      case OnRacePolicy::Report:
        warn("race reported (degraded mode, continuing): %s", race.what());
        return false;
      case OnRacePolicy::Count:
        return false;
      case OnRacePolicy::Recover:
        // Reached only when a recovery episode was inadmissible (no or
        // poisoned undo log, quarantined site): Report-style degrade.
        warn("race degraded (recovery unavailable, continuing): %s",
             race.what());
        return false;
    }
    return true;
}

void
CleanRuntime::noteRace(const RaceException &race)
{
    {
        std::lock_guard<std::mutex> guard(raceMutex_);
        if (races_.size() < kMaxReportedRaces)
            races_.push_back(race);
    }
    raceCount_.fetch_add(1, std::memory_order_acq_rel);
    obsRaceDetected(race);
}

void
CleanRuntime::registerBarrier(CleanBarrier *barrier)
{
    if (!recovery_)
        return;
    std::lock_guard<std::mutex> guard(barrierMutex_);
    barriers_.push_back(barrier);
}

void
CleanRuntime::unregisterBarrier(CleanBarrier *barrier)
{
    if (!recovery_)
        return;
    std::lock_guard<std::mutex> guard(barrierMutex_);
    std::erase(barriers_, barrier);
}

const RaceException *
CleanRuntime::firstRace() const
{
    std::lock_guard<std::mutex> guard(raceMutex_);
    return races_.empty() ? nullptr : &races_.front();
}

void
CleanRuntime::recordDeadlock(const DeadlockError &deadlock)
{
    {
        std::lock_guard<std::mutex> guard(raceMutex_);
        if (!firstDeadlock_)
            firstDeadlock_ = std::make_unique<DeadlockError>(deadlock);
    }
    raiseAbortFlag();
    warn("%s", deadlock.what());
}

void
CleanRuntime::raiseAbortFlag()
{
    abortFlag_.store(true, std::memory_order_release);
    if (CLEAN_UNLIKELY(config_.replayDriver != nullptr))
        config_.replayDriver->disarm();
}

void
CleanRuntime::raiseDeadlock(const char *where, ThreadId waiter,
                            std::uint64_t waitedMs)
{
    const ThreadId stuck = kendo_->minActiveSlot();
    std::string phases;
    {
        std::lock_guard<std::mutex> guard(registryMutex_);
        for (const auto &record : records_) {
            if (!phases.empty())
                phases += ", ";
            phases += "tid " + std::to_string(record->tid) + "=" +
                      phaseName(record->phase.load(
                          std::memory_order_acquire));
        }
    }
    DeadlockError deadlock(
        "watchdog: thread " + std::to_string(waiter) + " waited " +
            std::to_string(waitedMs) + " ms in " + where +
            "; suspected stuck slot " +
            (stuck < kendo_->maxSlots() ? std::to_string(stuck)
                                        : std::string("<none>")) +
            " [" + kendo_->snapshot() + "] [phases: " + phases + "]",
        waiter, stuck < kendo_->maxSlots() ? stuck : waiter, waitedMs);
    if (CLEAN_UNLIKELY(recorder_ != nullptr)) {
        // raiseDeadlock throws on the waiting thread itself.
        if (obs::ThreadLane *lane = recorder_->lane(waiter))
            lane->record(obs::EventKind::WatchdogTrip,
                         kendo_->count(waiter), waitedMs,
                         stuck < kendo_->maxSlots() ? stuck : waiter);
    }
    recordDeadlock(deadlock);
    throw deadlock;
}

bool
CleanRuntime::deadlockOccurred() const
{
    std::lock_guard<std::mutex> guard(raceMutex_);
    return firstDeadlock_ != nullptr;
}

const DeadlockError *
CleanRuntime::firstDeadlock() const
{
    std::lock_guard<std::mutex> guard(raceMutex_);
    return firstDeadlock_.get();
}

void
CleanRuntime::tickClock(ThreadState &ts)
{
    ts.vc.tick(ts.tid);
    ts.refreshOwnEpoch();
    if (ts.vc.clockOf(ts.tid) + config_.rolloverMargin >=
        config_.checker.epoch.maxClock()) {
        rollover_.request();
    }
}

void
CleanRuntime::registerSyncClock(VectorClock *vc)
{
    std::lock_guard<std::mutex> guard(registryMutex_);
    syncClocks_.push_back(vc);
}

void
CleanRuntime::unregisterSyncClock(VectorClock *vc)
{
    std::lock_guard<std::mutex> guard(registryMutex_);
    std::erase(syncClocks_, vc);
}

void
CleanRuntime::setPhase(std::uint32_t record, ThreadRecord::Phase phase)
{
    recordAt(record).phase.store(phase); // seq_cst, see resumeFromBlocked
}

void
CleanRuntime::resumeFromBlocked(std::uint32_t record)
{
    ThreadRecord &r = recordAt(record);
    for (;;) {
        r.phase.store(ThreadRecord::Phase::Running); // seq_cst
        if (!rollover_.pending())
            return;
        // A reset is pending or in progress; park until it completes.
        r.phase.store(ThreadRecord::Phase::Parked);
        try {
            rollover_.parkAndMaybeReset(r.tid,
                                        [this] { return aborted(); });
        } catch (const RolloverController::AbortedWait &) {
            r.phase.store(ThreadRecord::Phase::Running);
            throw ExecutionAborted();
        }
    }
}

bool
CleanRuntime::allOthersQuiescent(ThreadId)
{
    std::lock_guard<std::mutex> guard(registryMutex_);
    for (const auto &record : records_) {
        if (record->phase.load(std::memory_order_acquire) ==
            ThreadRecord::Phase::Running) {
            return false;
        }
    }
    return true;
}

void
CleanRuntime::performReset()
{
    std::lock_guard<std::mutex> guard(registryMutex_);
    if (linearShadow_) {
        linearShadow_->reset();
    } else {
        sparseShadow_->reset();
        // Every other thread is parked and will synchronize through the
        // rollover unpark before touching the shadow again — exactly
        // the quiescent point the deferred-reclamation contract needs.
        sparseShadow_->reclaim();
    }
    for (auto &record : records_) {
        if (!record->state)
            continue;
        record->state->vc.clearClocks();
        record->state->vc.setClock(record->state->tid, 1);
        record->state->refreshOwnEpoch();
        // The reset just rewrote every shadow slot to 0, so ownership
        // claims are stale even when the re-derived element happens to
        // equal the pre-reset one (a thread that never ticked restarts
        // at the same clock) — refreshOwnEpoch's change-detection flush
        // is not sufficient here; retract the cache unconditionally.
        record->state->ownCache.flush(record->state->stats);
        // Undo logs must survive the reset (ISSUE 3): every live shadow
        // epoch was just rewritten to the reset value 0, so the epochs a
        // later rollback would restore must follow. Owners are parked,
        // so this cross-thread rewrite is quiescent.
        if (record->sfrLog)
            record->sfrLog->rewriteEpochsOnReset();
    }
    for (VectorClock *vc : syncClocks_)
        vc->clearClocks();
    std::fill(lastClock_.begin(), lastClock_.end(), 0);

    if (recorder_ != nullptr) {
        // Any thread can be the resetter, so this goes to the global
        // lane. The stamp sums the per-slot counters: each resumes
        // monotonically after the reset, so the sum orders successive
        // rollovers deterministically. performReset runs before the
        // controller bumps resets(), hence the +1 for the ordinal.
        std::uint64_t det = 0;
        for (ThreadId tid = 0; tid < config_.maxThreads; ++tid)
            det += kendo_->count(tid);
        recorder_->recordGlobal(obs::EventKind::Rollover, det,
                                rollover_.resets() + 1);
    }
}

CheckerStats
CleanRuntime::aggregatedCheckerStats() const
{
    std::lock_guard<std::mutex> guard(registryMutex_);
    CheckerStats total;
    for (const auto &record : records_) {
        if (record->state)
            total.merge(record->state->stats);
    }
    return total;
}

SampleTelemetry
CleanRuntime::aggregatedSampleTelemetry() const
{
    std::lock_guard<std::mutex> guard(registryMutex_);
    SampleTelemetry total;
    for (const auto &record : records_) {
        if (record->state)
            total.merge(record->state->sample.telemetry());
    }
    return total;
}

std::vector<det::DetCount>
CleanRuntime::finalDetCounts() const
{
    std::lock_guard<std::mutex> guard(registryMutex_);
    std::vector<det::DetCount> counts = retiredDetCounts_;
    counts.push_back(kendo_->count(0)); // main thread
    return counts;
}

std::string
CleanRuntime::failureReportJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("version", std::uint64_t{1});
    w.field("policy", onRacePolicyName(config_.onRace));
    const bool deadlocked = deadlockOccurred();
    const recover::RecoveryStats recoveryStats =
        recovery_ ? recovery_->stats() : recover::RecoveryStats{};
    const char *outcome;
    if (deadlocked) {
        outcome = "deadlock";
    } else if (config_.onRace == OnRacePolicy::Recover && raceOccurred()) {
        // "recovered": every race was rolled back and cleanly
        // re-executed. Quarantines, forced replays and episodes that
        // never got a log are honest degradations.
        const bool degraded = recoveryStats.quarantinedSites > 0 ||
                              recoveryStats.forcedReplays > 0 ||
                              raceCount() > recoveryStats.recovered;
        outcome = degraded ? "degraded" : "recovered";
    } else {
        outcome = raceOccurred() ? "race" : "clean";
    }
    w.field("outcome", outcome);

    w.key("races").beginObject();
    w.field("count", raceCount());
    w.key("reported").beginArray();
    {
        std::lock_guard<std::mutex> guard(raceMutex_);
        for (const RaceException &race : races_) {
            w.beginObject();
            w.field("kind", raceKindName(race.kind()));
            // Heap-relative: byte-identical across runs in spite of ASLR.
            w.field("addrOffset",
                    static_cast<std::uint64_t>(race.addr() - checkBase_));
            w.field("accessor",
                    static_cast<std::uint64_t>(race.accessor()));
            w.field("previousWriter",
                    static_cast<std::uint64_t>(race.previousWriter()));
            w.field("previousClock",
                    static_cast<std::uint64_t>(race.previousClock()));
            w.field("site", race.siteIndex());
            w.field("sfr", race.sfrOrdinal());
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();

    if (recovery_) {
        w.key("recovery").beginObject();
        w.field("episodes", recoveryStats.episodes);
        w.field("attempts", recoveryStats.attempts);
        w.field("recovered", recoveryStats.recovered);
        w.field("forcedReplays", recoveryStats.forcedReplays);
        w.field("replayRaces", recoveryStats.replayRaces);
        w.field("replayMismatches", recoveryStats.replayMismatches);
        w.field("rolledBackWrites", recoveryStats.rolledBackWrites);
        w.field("skippedRollbacks", recoveryStats.skippedRollbacks);
        w.field("recoveredKills", recoveryStats.recoveredKills);
        w.key("quarantinedSites").beginArray();
        for (const Addr site : recovery_->quarantinedSites())
            w.value(static_cast<std::uint64_t>(site));
        w.endArray();
        w.endObject();
    }

    {
        std::lock_guard<std::mutex> guard(raceMutex_);
        if (firstDeadlock_) {
            w.key("deadlock").beginObject();
            w.field("waiter",
                    static_cast<std::uint64_t>(firstDeadlock_->waiter()));
            w.field("stuckSlot", static_cast<std::uint64_t>(
                                     firstDeadlock_->stuckSlot()));
            w.field("waitedMs", firstDeadlock_->waitedMs());
            w.field("message", firstDeadlock_->what());
            w.endObject();
        }
    }

    w.key("detCounts").beginArray();
    {
        std::lock_guard<std::mutex> guard(registryMutex_);
        for (ThreadId tid = 0; tid < nextFreshTid_; ++tid)
            w.value(static_cast<std::uint64_t>(kendo_->count(tid)));
    }
    w.endArray();

    const CheckerStats stats = aggregatedCheckerStats();
    w.key("checker").beginObject();
    w.field("sharedReads", stats.sharedReads);
    w.field("sharedWrites", stats.sharedWrites);
    w.field("accessedBytes", stats.accessedBytes);
    w.field("epochUpdates", stats.epochUpdates);
    w.field("replayedReads", stats.replayedReads);
    w.field("replayedWrites", stats.replayedWrites);
    w.field("replayedBytes", stats.replayedBytes);
    w.field("replayedEpochUpdates", stats.replayedEpochUpdates);
    w.field("ownCacheHits", stats.ownCacheHits());
    w.field("ownCacheMisses", stats.ownCacheMisses);
    w.field("ownCacheFlushes", stats.ownCacheFlushes);
    w.field("batchRuns", stats.batchRuns);
    w.field("batchDrains", stats.batchDrains);
    w.field("batchOverflowDrains", stats.batchOverflowDrains);
    w.field("batchDrainedBytes", stats.batchDrainedBytes);
    w.field("shedReads", stats.shedReads);
    w.endObject();

    if (sampling_) {
        // Everything here is a function of the deterministic execution
        // (gate decisions, not wall-clock measurements), so budgeted
        // record/replay pairs produce byte-identical reports.
        const SampleTelemetry st = aggregatedSampleTelemetry();
        w.key("sampling").beginObject();
        w.field("budget", std::uint64_t{config_.overheadBudget});
        w.field("shedReads", stats.shedReads);
        w.field("windows", st.windows);
        w.field("bursts", st.bursts);
        w.field("strikes", st.strikes);
        w.field("quarantines", st.quarantines);
        w.field("levelAdoptions", st.levelAdoptions);
        w.field("calibSfrs", st.calibSfrs);
        w.key("quarantinedRegions").beginArray();
        {
            std::vector<Addr> regions = governor_->quarantinedRegions();
            std::sort(regions.begin(), regions.end());
            for (const Addr offset : regions)
                w.value(static_cast<std::uint64_t>(offset));
        }
        w.endArray();
        w.endObject();
    }

    w.field("rollovers", rollover_.resets());

    if (injectPlan_) {
        const inject::InjectionStats fired = injectPlan_->stats();
        w.key("injection").beginObject();
        w.field("seed", injectPlan_->config().seed);
        w.field("skippedChecks", fired.skippedChecks);
        w.field("skippedAcquires", fired.skippedAcquires);
        w.field("delays", fired.delays);
        w.field("rollovers", fired.rollovers);
        w.field("kills", fired.kills);
        w.endObject();
    }

    if (recorder_ != nullptr) {
        // "Last words": the tail of each thread's flight-recorder lane,
        // in the deterministic merge order, so a failing run's report
        // shows what every thread was doing when it died.
        w.key("events").beginObject();
        w.field("perThreadTail",
                static_cast<std::uint64_t>(recorder_->config().failureTail));
        w.key("tail").beginArray();
        for (const obs::Event &e :
             recorder_->merged(recorder_->config().failureTail)) {
            w.beginObject();
            w.field("kind", eventKindName(e.kind));
            w.field("tid", static_cast<std::uint64_t>(e.tid));
            w.field("det", e.det);
            w.field("seq", e.seq);
            w.field("arg0", e.arg0);
            w.field("arg1", e.arg1);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    return w.str();
}

std::string
CleanRuntime::obsTraceJson() const
{
    if (recorder_ == nullptr)
        return std::string();
    return obs::chromeTraceJson(recorder_->merged(),
                                recorder_->globalTid());
}

std::string
CleanRuntime::metricsJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("version", std::uint64_t{1});
    w.field("policy", onRacePolicyName(config_.onRace));

    w.key("counters").beginObject();
    w.field("races", raceCount());
    w.field("rollovers", rollover_.resets());
    const CheckerStats stats = aggregatedCheckerStats();
    w.field("sharedReads", stats.sharedReads);
    w.field("sharedWrites", stats.sharedWrites);
    w.field("accessedBytes", stats.accessedBytes);
    w.field("epochUpdates", stats.epochUpdates);
    w.field("wideAccesses", stats.wideAccesses);
    w.field("wideSameEpoch", stats.wideSameEpoch);
    w.field("wideCasUpdates", stats.wideCasUpdates);
    w.field("replayedReads", stats.replayedReads);
    w.field("replayedWrites", stats.replayedWrites);
    w.field("replayedBytes", stats.replayedBytes);
    w.field("replayedEpochUpdates", stats.replayedEpochUpdates);
    w.field("ownCacheHits", stats.ownCacheHits());
    w.field("ownCacheMisses", stats.ownCacheMisses);
    w.field("ownCacheFlushes", stats.ownCacheFlushes);
    w.field("batchRuns", stats.batchRuns);
    w.field("batchDrains", stats.batchDrains);
    w.field("batchOverflowDrains", stats.batchOverflowDrains);
    w.field("batchDrainedBytes", stats.batchDrainedBytes);
    w.field("shedReads", stats.shedReads);
    if (sampling_) {
        const SampleTelemetry st = aggregatedSampleTelemetry();
        w.field("sampleBudget", std::uint64_t{config_.overheadBudget});
        w.field("sampleWindows", st.windows);
        w.field("sampleBursts", st.bursts);
        w.field("sampleStrikes", st.strikes);
        w.field("sampleQuarantines", st.quarantines);
        w.field("sampleLevelAdoptions", st.levelAdoptions);
        w.field("sampleCalibSfrs", st.calibSfrs);
        w.field("sampleQuarantinedRegions",
                static_cast<std::uint64_t>(governor_->quarantinedCount()));
        // Deliberately no physical overhead figure here: `cleanrun
        // --record` makes metrics part of the round-trip contract, and
        // wall-clock numbers would break byte-identical replays. The
        // measured overhead prints in cleanrun's human summary instead.
    }
    if (recovery_) {
        const recover::RecoveryStats rs = recovery_->stats();
        w.field("recoveryEpisodes", rs.episodes);
        w.field("recoveryAttempts", rs.attempts);
        w.field("recovered", rs.recovered);
        w.field("forcedReplays", rs.forcedReplays);
        w.field("replayRaces", rs.replayRaces);
        w.field("replayMismatches", rs.replayMismatches);
        w.field("quarantinedSites", rs.quarantinedSites);
        w.field("recoveredKills", rs.recoveredKills);
    }
    if (injectPlan_) {
        const inject::InjectionStats fired = injectPlan_->stats();
        w.field("injectedSkippedChecks", fired.skippedChecks);
        w.field("injectedSkippedAcquires", fired.skippedAcquires);
        w.field("injectedDelays", fired.delays);
        w.field("injectedRollovers", fired.rollovers);
        w.field("injectedKills", fired.kills);
    }
    w.endObject();

    if (recorder_ != nullptr) {
        w.key("events").beginObject();
        w.field("recorded", recorder_->totalRecorded());
        w.key("retainedByKind").beginObject();
        const std::vector<std::uint64_t> byKind =
            recorder_->retainedByKind();
        for (std::size_t k = 0; k < byKind.size(); ++k) {
            if (byKind[k] > 0)
                w.field(
                    obs::eventKindName(static_cast<obs::EventKind>(k)),
                    byKind[k]);
        }
        w.endObject();
        w.endObject();
    }

    // Always present: the ownership-cache hit-run histogram comes from
    // the checker itself, not the flight recorder. The recorder's
    // histograms join it when observability is on; note the latency
    // histogram holds physical nanoseconds, so the metrics snapshot is
    // *not* byte-stable run-to-run — only the event trace is.
    w.key("histograms").beginObject();
    w.key("ownCacheHitRuns");
    stats.ownCacheHitRuns.writeTo(w);
    w.key("batchRunBytes");
    stats.batchRunBytes.writeTo(w);
    if (sampling_) {
        w.key("shedPerBoundary");
        aggregatedSampleTelemetry().shedPerBoundary.writeTo(w);
    }
    if (recorder_ != nullptr) {
        w.key("sfrLengthDetEvents");
        recorder_->mergedSfrLength().writeTo(w);
        w.key("checkLatencyNs");
        recorder_->mergedCheckLatency().writeTo(w);
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace clean
