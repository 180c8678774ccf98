/**
 * @file
 * Kendo-style deterministic synchronization (§2.4, §3.3).
 *
 * Every thread owns a *deterministic counter* that advances on
 * deterministic events only (shim-observed accesses — the analogue of the
 * paper's instrumented basic blocks — and synchronization operations). A
 * thread may perform a synchronization operation only when its
 * (counter, threadId) pair is the strict minimum over all runnable
 * threads; otherwise it waits for the others to catch up. Because
 * counters depend only on each thread's deterministic progress, the
 * resulting total order of synchronization operations — and hence, for
 * executions CLEAN allows to complete, the whole execution — is the same
 * in every run.
 *
 * Threads blocked in a condition wait, a barrier, or a join are excluded
 * from the minimum (they cannot perform synchronization), and are resumed
 * with their counter raised above the waker's, which keeps the logical
 * order deterministic.
 *
 * Staleness of a counter is benign: a waiter that reads a stale
 * (smaller) counter for a peer only waits longer, because counters only
 * grow and observed counters never exceed true ones.
 *
 * Staleness of a *status* is not. tryTurn reads the slots one at a time,
 * so it can read slot i as Blocked (or Inactive), after which the turn
 * holder W re-admits i (unblock, or activate on spawn) at a count below
 * the scanner's, then advances past the scanner (or finishes) before the
 * scan reaches W's slot. The scan then sees no smaller runnable peer,
 * and the scanner and i hold the turn together. activate and unblock
 * close this window by bumping a re-admission counter after they publish
 * Active; tryTurn reads it before and after the scan and refuses the turn
 * if it moved. Counter stores are release and tryTurn's loads acquire,
 * so a scan that saw W advanced or finished also sees W's bump.
 */

#ifndef CLEAN_DET_KENDO_H
#define CLEAN_DET_KENDO_H

#include <atomic>
#include <cstdint>
#include <string>

#include "support/common.h"

namespace clean::det
{

/** Deterministic logical time of one thread. */
using DetCount = std::uint64_t;

/** Deterministic-synchronization engine. */
class Kendo
{
  public:
    /**
     * @param enabled  when false every operation is a no-op and program
     *                 synchronization falls back to plain nondeterministic
     *                 locking ("race detection only" configurations).
     * @param maxSlots capacity of the slot table.
     */
    Kendo(bool enabled, ThreadId maxSlots);
    ~Kendo();

    Kendo(const Kendo &) = delete;
    Kendo &operator=(const Kendo &) = delete;

    bool enabled() const { return enabled_; }
    ThreadId maxSlots() const { return maxSlots_; }

    /**
     * Arms the watchdog of this engine's own blocking loops
     * (waitForTurn / waitWhileBlocked): a wait longer than @p ms throws
     * DeadlockError naming the suspected stuck slot. 0 (the default)
     * waits forever, preserving the historical behaviour.
     */
    void setWatchdogMs(std::uint64_t ms) { watchdogMs_ = ms; }
    std::uint64_t watchdogMs() const { return watchdogMs_; }

    /** Human-readable status of @p slot ("inactive"/"active"/"blocked"). */
    const char *statusName(ThreadId slot) const;

    /**
     * The runnable slot with the strict minimum (count, tid) — the
     * thread whose turn it currently is, and therefore the slot that is
     * blocking everyone else if it never advances. Returns maxSlots()
     * when no slot is Active.
     */
    ThreadId minActiveSlot() const;

    /** One-line per-slot dump "slot 0: det=12 active | ..." used in
     *  deadlock diagnostics. */
    std::string snapshot() const;

    /** Marks @p slot runnable starting at deterministic time @p start. */
    void activate(ThreadId slot, DetCount start);

    /** Marks @p slot finished; it no longer gates anyone. */
    void finish(ThreadId slot);

    /** Advances @p slot's counter by @p n deterministic events. */
    CLEAN_ALWAYS_INLINE void
    increment(ThreadId slot, DetCount n = 1)
    {
        if (!enabled_)
            return;
        slots_[slot].count.store(
            slots_[slot].count.load(std::memory_order_relaxed) + n,
            std::memory_order_release);
    }

    /** Current deterministic counter of @p slot. */
    DetCount
    count(ThreadId slot) const
    {
        return slots_[slot].count.load(std::memory_order_relaxed);
    }

    /**
     * Blocks until (count, slot) is the strict minimum over runnable
     * slots. No-op when disabled.
     */
    void waitForTurn(ThreadId slot);

    /**
     * One non-blocking evaluation of the turn predicate. Returns true
     * (and vacuously when disabled) iff (count, slot) is currently the
     * strict minimum over runnable slots. Callers loop over tryTurn so
     * they can interleave rollover parking and abort polling.
     */
    bool tryTurn(ThreadId slot);

    /** Raises @p slot's counter to at least @p value (self-resume after
     *  an already-satisfied blocking condition). */
    void
    raiseTo(ThreadId slot, DetCount value)
    {
        if (!enabled_)
            return;
        Slot &s = slots_[slot];
        if (value > s.count.load(std::memory_order_relaxed))
            s.count.store(value, std::memory_order_release);
    }

    /**
     * Excludes @p slot from the minimum (entering a blocking wait).
     *
     * From this call until the matching unblock, only the waker writes
     * the slot: increment and raiseTo are an unlocked load plus store,
     * so an owner that advanced its own counter (or stamped an event
     * with it) after block would race with the waker's unblock and leave
     * a timing-dependent count. A blocking operation therefore does all
     * of its own counting and recording first and calls block last,
     * under the lock the waker takes to find it.
     */
    void block(ThreadId slot);

    /**
     * Re-admits @p slot with counter max(current, resumeAt). Called by
     * the waking thread while @p slot is still blocked; the blocked
     * owner touches the slot again only after it has observed the wake.
     */
    void unblock(ThreadId slot, DetCount resumeAt);

    /** Spin-waits (yielding) until this blocked slot is unblocked. */
    void waitWhileBlocked(ThreadId slot);

    /** True iff @p slot is currently runnable. */
    bool isActive(ThreadId slot) const;

    /** Total waitForTurn spin iterations (det-sync overhead telemetry). */
    std::uint64_t totalSpins() const
    {
        return spins_.load(std::memory_order_relaxed);
    }

  private:
    enum class Status : int { Inactive, Active, Blocked };

    struct alignas(64) Slot
    {
        std::atomic<DetCount> count{0};
        std::atomic<Status> status{Status::Inactive};
    };

    [[noreturn]] void throwDeadlock(ThreadId slot, const char *where,
                                    std::uint64_t waitedMs) const;

    bool enabled_;
    ThreadId maxSlots_;
    Slot *slots_;
    /** Bumped after every activate/unblock; see the file comment. */
    alignas(64) std::atomic<std::uint64_t> readmissions_{0};
    std::uint64_t watchdogMs_ = 0;
    std::atomic<std::uint64_t> spins_{0};
};

} // namespace clean::det

#endif // CLEAN_DET_KENDO_H
