#include "core/sync_objects.h"

#include <algorithm>
#include <thread>

#include "support/backoff.h"

namespace clean
{

// ---------------------------------------------------------------------
// RecoveryToken
// ---------------------------------------------------------------------

void
RecoveryToken::acquire(ThreadId tid, det::DetCount count)
{
    {
        std::lock_guard<std::mutex> guard(m_);
        waiters_.push_back({count, tid});
    }
    SpinWait spin(rt_.config().watchdogMs);
    for (;;) {
        {
            std::lock_guard<std::mutex> guard(m_);
            if (!held_) {
                // Grant to the strict minimum (count, tid) — the Kendo
                // tie-break — so competing recoveries serialize in the
                // same order on every run.
                auto it = std::min_element(
                    waiters_.begin(), waiters_.end(),
                    [](const Waiter &a, const Waiter &b) {
                        return a.count != b.count ? a.count < b.count
                                                  : a.tid < b.tid;
                    });
                if (it != waiters_.end() && it->tid == tid) {
                    waiters_.erase(it);
                    held_ = true;
                    return;
                }
            }
        }
        if (CLEAN_UNLIKELY(rt_.aborted())) {
            deregister(tid);
            throw ExecutionAborted();
        }
        if (CLEAN_UNLIKELY(spin.expired())) {
            deregister(tid);
            rt_.raiseDeadlock("RecoveryToken::acquire", tid,
                              spin.elapsedMs());
        }
        spin.pause();
    }
}

void
RecoveryToken::release()
{
    std::lock_guard<std::mutex> guard(m_);
    held_ = false;
}

void
RecoveryToken::deregister(ThreadId tid)
{
    std::lock_guard<std::mutex> guard(m_);
    std::erase_if(waiters_,
                  [&](const Waiter &w) { return w.tid == tid; });
}

// ---------------------------------------------------------------------
// CleanMutex
// ---------------------------------------------------------------------

CleanMutex::CleanMutex(CleanRuntime &rt)
    : rt_(rt), vc_(rt.config().checker.epoch, rt.config().maxThreads)
{
    rt_.registerSyncClock(&vc_);
}

CleanMutex::~CleanMutex()
{
    rt_.unregisterSyncClock(&vc_);
}

void
CleanMutex::lock(ThreadContext &ctx)
{
    auto &kendo = rt_.kendo();
    const ThreadId tid = ctx.tid();
    // Kendo det_lock: retry under successive deterministic turns; every
    // failed attempt advances logical time so the holder can reach its
    // unlock turn (§2.4). With Kendo disabled, acquireTurn degenerates
    // into rollover/abort polling and this is a plain spin lock.
    // acquireTurn provides the backoff while waiting for the holder's
    // progress; a plain yield between attempts keeps the handoff fast.
    // The watchdog spans the whole acquisition: a holder that never
    // unlocks (e.g. a killed thread) becomes a DeadlockError, not a
    // silent spin.
    SpinWait watchdog(rt_.config().watchdogMs);
    for (;;) {
        ctx.acquireTurn();
        if (m_.try_lock())
            break;
        kendo.increment(tid);
        rt_.throwIfAborted();
        if (CLEAN_UNLIKELY(watchdog.expired()))
            rt_.raiseDeadlock("CleanMutex::lock", tid,
                              watchdog.elapsedMs());
        std::this_thread::yield();
    }
    // Acquire: synchronize-with every earlier release of this mutex —
    // unless the injection plan drops this happens-before edge (the
    // SkipAcquire fault; properly-locked accesses by later holders then
    // surface as deterministic downstream races).
    if (CLEAN_LIKELY(!ctx.injectSkipAcquire()))
        ctx.state().vc.joinFrom(vc_);
    kendo.increment(tid);
    ctx.obsSyncAcquire();
}

bool
CleanMutex::tryLock(ThreadContext &ctx)
{
    auto &kendo = rt_.kendo();
    ctx.acquireTurn();
    const bool got = m_.try_lock();
    if (got)
        ctx.state().vc.joinFrom(vc_);
    kendo.increment(ctx.tid());
    if (got)
        ctx.obsSyncAcquire();
    return got;
}

void
CleanMutex::unlock(ThreadContext &ctx)
{
    ctx.acquireTurn();
    // Release: publish this thread's clock on the mutex, then advance the
    // thread's own clock so post-release writes are not covered by it.
    vc_.joinFrom(ctx.state().vc);
    rt_.tickClock(ctx.state());
    m_.unlock();
    rt_.kendo().increment(ctx.tid());
    ctx.obsSyncRelease();
}

void
CleanMutex::releaseForWait(ThreadContext &ctx)
{
    // Same as unlock but inside the caller's already-held turn; the
    // caller advances the deterministic counter once for the whole
    // compound wait operation.
    vc_.joinFrom(ctx.state().vc);
    rt_.tickClock(ctx.state());
    m_.unlock();
    ctx.obsSyncRelease();
}

// ---------------------------------------------------------------------
// CleanCondVar
// ---------------------------------------------------------------------

CleanCondVar::CleanCondVar(CleanRuntime &rt)
    : rt_(rt), vc_(rt.config().checker.epoch, rt.config().maxThreads)
{
    rt_.registerSyncClock(&vc_);
}

CleanCondVar::~CleanCondVar()
{
    rt_.unregisterSyncClock(&vc_);
}

void
CleanCondVar::wait(ThreadContext &ctx, CleanMutex &m)
{
    auto &kendo = rt_.kendo();
    const ThreadId tid = ctx.tid();
    std::atomic<bool> flag{false};

    // The mutex release, registration and blocking form one compound
    // synchronization operation under a single deterministic turn. All
    // of it happens under im_, so no signaler can slip in between, and
    // the release (with its record) and the counter advance come before
    // block: once blocked, only the signaler writes our slot. The
    // release may throw (replay divergence), so it precedes registration.
    ctx.acquireTurn();
    {
        std::lock_guard<std::mutex> guard(im_);
        m.releaseForWait(ctx);
        kendo.increment(tid);
        waiters_.push_back({tid, &flag});
        kendo.block(tid);
    }

    rt_.setPhase(ctx.record(), ThreadRecord::Phase::Blocked);
    SpinWait spin(rt_.config().watchdogMs);
    while (!flag.load(std::memory_order_acquire)) {
        const bool abortNow = CLEAN_UNLIKELY(rt_.aborted());
        const bool timedOut = !abortNow && CLEAN_UNLIKELY(spin.expired());
        if (CLEAN_UNLIKELY(abortNow || timedOut)) {
            // The signaler may never come; deregister and unwind. If a
            // signaler popped us concurrently it set the flag under im_,
            // so after taking im_ the state is unambiguous.
            {
                std::lock_guard<std::mutex> guard(im_);
                auto it = std::find_if(waiters_.begin(), waiters_.end(),
                                       [&](const Waiter &w) {
                                           return w.flag == &flag;
                                       });
                if (it != waiters_.end())
                    waiters_.erase(it);
                else if (!flag.load(std::memory_order_acquire))
                    continue; // popped but flag not yet set: retry
                else
                    break; // woken after all; proceed normally
            }
            // im_ is released before parking/throwing so signalers (and
            // the rollover resetter waiting on them) cannot deadlock on
            // this waiter.
            rt_.resumeFromBlocked(ctx.record());
            if (abortNow)
                throw ExecutionAborted();
            rt_.raiseDeadlock("CleanCondVar::wait", tid, spin.elapsedMs());
        }
        spin.pause();
    }
    rt_.resumeFromBlocked(ctx.record());

    // Absorb the signaler's happens-before knowledge, then re-acquire
    // the mutex deterministically.
    {
        std::lock_guard<std::mutex> guard(im_);
        ctx.state().vc.joinFrom(vc_);
    }
    m.lock(ctx);
}

void
CleanCondVar::wakeLocked(ThreadContext &ctx, bool all)
{
    auto &kendo = rt_.kendo();
    // Publish the signaler's clock so wakees synchronize with it.
    vc_.joinFrom(ctx.state().vc);
    const det::DetCount resume = kendo.count(ctx.tid()) + 1;
    const std::size_t n = all ? waiters_.size()
                              : std::min<std::size_t>(1, waiters_.size());
    for (std::size_t i = 0; i < n; ++i) {
        Waiter w = waiters_.front();
        waiters_.pop_front();
        // Re-admit before raising the flag: once the flag is visible the
        // wakee may run, and it must already count in the Kendo minimum.
        kendo.unblock(w.tid, resume);
        w.flag->store(true, std::memory_order_release);
    }
}

void
CleanCondVar::signal(ThreadContext &ctx)
{
    ctx.acquireTurn();
    {
        std::lock_guard<std::mutex> guard(im_);
        wakeLocked(ctx, false);
    }
    rt_.tickClock(ctx.state());
    rt_.kendo().increment(ctx.tid());
    ctx.obsSyncRelease();
}

void
CleanCondVar::broadcast(ThreadContext &ctx)
{
    ctx.acquireTurn();
    {
        std::lock_guard<std::mutex> guard(im_);
        wakeLocked(ctx, true);
    }
    rt_.tickClock(ctx.state());
    rt_.kendo().increment(ctx.tid());
    ctx.obsSyncRelease();
}

// ---------------------------------------------------------------------
// CleanBarrier
// ---------------------------------------------------------------------

CleanBarrier::CleanBarrier(CleanRuntime &rt, std::uint32_t parties)
    : rt_(rt), parties_(parties),
      vc_(rt.config().checker.epoch, rt.config().maxThreads),
      releaseVc_(rt.config().checker.epoch, rt.config().maxThreads)
{
    CLEAN_ASSERT(parties_ > 0);
    rt_.registerSyncClock(&vc_);
    rt_.registerSyncClock(&releaseVc_);
    rt_.registerBarrier(this);
}

CleanBarrier::~CleanBarrier()
{
    rt_.unregisterBarrier(this);
    rt_.unregisterSyncClock(&vc_);
    rt_.unregisterSyncClock(&releaseVc_);
}

void
CleanBarrier::arrive(ThreadContext &ctx)
{
    auto &kendo = rt_.kendo();
    const ThreadId tid = ctx.tid();
    std::atomic<bool> flag{false};
    bool last = false;

    ctx.acquireTurn();
    {
        std::lock_guard<std::mutex> guard(im_);
        vc_.joinFrom(ctx.state().vc);
        rt_.tickClock(ctx.state());
        ++arrived_;
        // Retired parties (kill supervision) count as permanently
        // arrived: the survivors must not wait for a dead thread.
        if (arrived_ + retired_ >= parties_) {
            last = true;
            releaseWaitersLocked(ctx);
            // The releaser itself synchronizes with all parties.
            ctx.state().vc.joinFrom(releaseVc_);
        }
        kendo.increment(tid);
        // The arrival published this thread's clock on the barrier; the
        // matching acquire is recorded when the release clock is
        // absorbed. A waiter counts and records before it blocks: once
        // blocked, only the releaser writes its slot.
        ctx.obsSyncRelease();
        if (!last) {
            waiters_.push_back({tid, &flag});
            kendo.block(tid);
        }
    }
    if (last) {
        ctx.obsSyncAcquire();
        return;
    }

    rt_.setPhase(ctx.record(), ThreadRecord::Phase::Blocked);
    SpinWait spin(rt_.config().watchdogMs);
    while (!flag.load(std::memory_order_acquire)) {
        const bool abortNow = CLEAN_UNLIKELY(rt_.aborted());
        const bool timedOut = !abortNow && CLEAN_UNLIKELY(spin.expired());
        if (CLEAN_UNLIKELY(abortNow || timedOut)) {
            {
                std::lock_guard<std::mutex> guard(im_);
                auto it = std::find_if(waiters_.begin(), waiters_.end(),
                                       [&](const Waiter &w) {
                                           return w.flag == &flag;
                                       });
                if (it != waiters_.end()) {
                    waiters_.erase(it);
                    --arrived_;
                } else if (!flag.load(std::memory_order_acquire)) {
                    continue; // released but flag not yet set: retry
                } else {
                    break; // released after all; proceed normally
                }
            }
            rt_.resumeFromBlocked(ctx.record());
            if (abortNow)
                throw ExecutionAborted();
            rt_.raiseDeadlock("CleanBarrier::arrive", tid,
                              spin.elapsedMs());
        }
        spin.pause();
    }
    rt_.resumeFromBlocked(ctx.record());

    {
        std::lock_guard<std::mutex> guard(im_);
        ctx.state().vc.joinFrom(releaseVc_);
    }
    ctx.obsSyncAcquire();
}

void
CleanBarrier::releaseWaitersLocked(ThreadContext &ctx)
{
    auto &kendo = rt_.kendo();
    arrived_ = 0;
    releaseVc_.assign(vc_);
    const det::DetCount resume = kendo.count(ctx.tid()) + 1;
    for (const Waiter &w : waiters_) {
        kendo.unblock(w.tid, resume);
        w.flag->store(true, std::memory_order_release);
    }
    waiters_.clear();
}

void
CleanBarrier::retireParty(ThreadContext &ctx)
{
    std::lock_guard<std::mutex> guard(im_);
    // The dying thread's happens-before knowledge still flows through
    // the barrier (its pre-kill SFRs were released normally).
    vc_.joinFrom(ctx.state().vc);
    ++retired_;
    if (arrived_ > 0 && arrived_ + retired_ >= parties_)
        releaseWaitersLocked(ctx);
}

// Defined here rather than runtime.cc so CleanBarrier is complete.
void
CleanRuntime::retireFromBarriers(ThreadContext &ctx)
{
    std::vector<CleanBarrier *> barriers;
    {
        std::lock_guard<std::mutex> guard(barrierMutex_);
        barriers = barriers_;
    }
    for (CleanBarrier *barrier : barriers)
        barrier->retireParty(ctx);
}

} // namespace clean
