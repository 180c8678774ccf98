#include "det/kendo.h"

#include <thread>

#include "support/backoff.h"
#include "support/deadlock_error.h"
#include "support/logging.h"

namespace clean::det
{

Kendo::Kendo(bool enabled, ThreadId maxSlots)
    : enabled_(enabled), maxSlots_(maxSlots)
{
    CLEAN_ASSERT(maxSlots > 0);
    slots_ = new Slot[maxSlots];
}

Kendo::~Kendo()
{
    delete[] slots_;
}

void
Kendo::activate(ThreadId slot, DetCount start)
{
    CLEAN_ASSERT(slot < maxSlots_);
    Slot &s = slots_[slot];
    DetCount current = s.count.load(std::memory_order_relaxed);
    if (start > current)
        s.count.store(start, std::memory_order_relaxed);
    s.status.store(Status::Active, std::memory_order_release);
    readmissions_.fetch_add(1, std::memory_order_release);
}

void
Kendo::finish(ThreadId slot)
{
    slots_[slot].status.store(Status::Inactive, std::memory_order_release);
}

bool
Kendo::tryTurn(ThreadId slot)
{
    if (!enabled_)
        return true;
    const DetCount mine = slots_[slot].count.load(std::memory_order_relaxed);
    const std::uint64_t readmitted =
        readmissions_.load(std::memory_order_acquire);
    for (ThreadId j = 0; j < maxSlots_; ++j) {
        if (j == slot)
            continue;
        const Slot &other = slots_[j];
        if (other.status.load(std::memory_order_acquire) != Status::Active)
            continue;
        const DetCount theirs = other.count.load(std::memory_order_acquire);
        // Strict (count, tid) order; ties go to the smaller tid.
        if (theirs < mine || (theirs == mine && j < slot))
            return false;
    }
    // A slot skipped above may have been re-admitted below us mid-scan.
    return readmissions_.load(std::memory_order_acquire) == readmitted;
}

void
Kendo::waitForTurn(ThreadId slot)
{
    if (!enabled_)
        return;
    // This host may have fewer cores than simulated threads; the backoff
    // yields (then sleeps) so the thread we are waiting on can actually
    // run instead of us burning its core.
    SpinWait spin(watchdogMs_);
    while (!tryTurn(slot)) {
        if (CLEAN_UNLIKELY(spin.expired()))
            throwDeadlock(slot, "waitForTurn", spin.elapsedMs());
        spin.pause();
    }
    spins_.fetch_add(spin.iterations(), std::memory_order_relaxed);
}

void
Kendo::block(ThreadId slot)
{
    if (!enabled_)
        return;
    slots_[slot].status.store(Status::Blocked, std::memory_order_release);
}

void
Kendo::unblock(ThreadId slot, DetCount resumeAt)
{
    if (!enabled_)
        return;
    Slot &s = slots_[slot];
    CLEAN_ASSERT(s.status.load() == Status::Blocked,
                 "unblock of non-blocked slot %u", slot);
    const DetCount current = s.count.load(std::memory_order_relaxed);
    if (resumeAt > current)
        s.count.store(resumeAt, std::memory_order_relaxed);
    s.status.store(Status::Active, std::memory_order_release);
    readmissions_.fetch_add(1, std::memory_order_release);
}

void
Kendo::waitWhileBlocked(ThreadId slot)
{
    if (!enabled_)
        return;
    const Slot &s = slots_[slot];
    SpinWait spin(watchdogMs_);
    while (s.status.load(std::memory_order_acquire) == Status::Blocked) {
        if (CLEAN_UNLIKELY(spin.expired()))
            throwDeadlock(slot, "waitWhileBlocked", spin.elapsedMs());
        spin.pause();
    }
}

bool
Kendo::isActive(ThreadId slot) const
{
    return slots_[slot].status.load(std::memory_order_acquire) ==
           Status::Active;
}

const char *
Kendo::statusName(ThreadId slot) const
{
    switch (slots_[slot].status.load(std::memory_order_acquire)) {
      case Status::Inactive: return "inactive";
      case Status::Active: return "active";
      case Status::Blocked: return "blocked";
    }
    return "?";
}

ThreadId
Kendo::minActiveSlot() const
{
    ThreadId best = maxSlots_;
    DetCount bestCount = 0;
    for (ThreadId j = 0; j < maxSlots_; ++j) {
        if (slots_[j].status.load(std::memory_order_acquire) !=
            Status::Active) {
            continue;
        }
        const DetCount c = slots_[j].count.load(std::memory_order_relaxed);
        if (best == maxSlots_ || c < bestCount) {
            best = j;
            bestCount = c;
        }
    }
    return best;
}

std::string
Kendo::snapshot() const
{
    std::string out;
    for (ThreadId j = 0; j < maxSlots_; ++j) {
        if (slots_[j].status.load(std::memory_order_acquire) ==
            Status::Inactive) {
            continue;
        }
        if (!out.empty())
            out += " | ";
        out += "slot " + std::to_string(j) + ": det=" +
               std::to_string(
                   slots_[j].count.load(std::memory_order_relaxed)) +
               " " + statusName(j);
    }
    return out.empty() ? std::string("no runnable slots") : out;
}

void
Kendo::throwDeadlock(ThreadId slot, const char *where,
                     std::uint64_t waitedMs) const
{
    const ThreadId stuck = minActiveSlot();
    throw DeadlockError(
        "watchdog: slot " + std::to_string(slot) + " waited " +
            std::to_string(waitedMs) + " ms in Kendo::" + where +
            "; suspected stuck slot " +
            (stuck < maxSlots_ ? std::to_string(stuck)
                               : std::string("<none>")) +
            " [" + snapshot() + "]",
        slot, stuck < maxSlots_ ? stuck : slot, waitedMs);
}

} // namespace clean::det
