/**
 * @file
 * Per-thread detector state: vector clock, cached own epoch, counters.
 */

#ifndef CLEAN_CORE_THREAD_STATE_H
#define CLEAN_CORE_THREAD_STATE_H

#include <cstdint>
#include <memory>
#include <new>
#ifndef NDEBUG
#include <atomic>
#endif
#include <thread>

#include "core/epoch.h"
#include "core/sampling.h"
#include "core/vector_clock.h"
#include "obs/metrics.h"
#include "support/common.h"
#include "support/logging.h"
#include "support/stats.h"

namespace clean
{

/**
 * Counters a thread bumps on its own accesses; merged after a run. They
 * feed Figures 7 (shared-access frequency) and 8 (access-width and
 * same-epoch statistics backing the vectorization optimization).
 */
struct CheckerStats
{
    // Field order is hot-path-tuned, not thematic: the checker entry
    // paths bump several counters per access, and the compiler fuses
    // *adjacent* bumped pairs into one 16-byte vector RMW. Measured on
    // the owned-line hit path, that fused load-add-store is slower than
    // two independent scalar `add $1, mem` chains (~0.7-1ns/access)
    // whether the 16-byte access is aligned or not, because it
    // serializes two otherwise-parallel store-forwarding chains. So the
    // layout interleaves counters that a single checker path bumps
    // back-to-back (accessedBytes / sharedReads / sharedWrites /
    // wideAccesses / wideSameEpoch / ownCacheHitRun) with counters that
    // path does not touch, leaving no fusable pair.
    std::uint64_t accessedBytes = 0;
    /** Write checks that had to publish a new epoch. */
    std::uint64_t epochUpdates = 0;
    std::uint64_t sharedReads = 0;
    /** CAS updates that performed 4 epochs at once (128-bit CAS, §4.4). */
    std::uint64_t wideCasUpdates = 0;
    /**
     * Read checks shed by the --overhead-budget sampling gate (§15). A
     * shed read still bumps sharedReads and accessedBytes (site
     * ordinals and Fig. 7 byte totals must match the unbudgeted run
     * exactly), so this counter sits between two fields that path does
     * not touch — the layout rule above (the shed path bumps
     * accessedBytes / sharedReads / shedReads back-to-back).
     */
    std::uint64_t shedReads = 0;
    std::uint64_t sharedWrites = 0;
    std::uint64_t replayedReads = 0;
    /** Accesses at least 4 bytes wide (paper: >= 91.9% on average). */
    std::uint64_t wideAccesses = 0;
    std::uint64_t replayedWrites = 0;
    /** Wide accesses whose bytes all carried one epoch (paper: >= 99.7%). */
    std::uint64_t wideSameEpoch = 0;
    std::uint64_t replayedBytes = 0;
    /** Open ownership-cache hit run (see the ownCache block below). */
    std::uint64_t ownCacheHitRun = 0;
    /**
     * Accesses re-executed by SFR recovery (rollback + replay). The
     * checker bumps the base counters during a replay exactly as during
     * the original execution; recoverAccess then moves those deltas
     * into the replayed* counters, so sharedReads/sharedWrites keep
     * counting each program access once (Fig. 7 stays faithful) and the
     * recovery re-execution cost is visible separately. (The replayed*
     * fields sit interleaved above/below purely for the layout rule.)
     */
    std::uint64_t replayedEpochUpdates = 0;
    /**
     * Ownership-cache telemetry (§5.2 software analogue; see
     * OwnershipCache below). Hits are not counted directly on the hot
     * path: each hit extends the open run `ownCacheHitRun`, which the
     * next miss or flush closes into the log2 histogram
     * `ownCacheHitRuns` — total hits = histogram sum + the open run.
     * `ownCacheFlushes` counts only flushes that actually discarded
     * entries (a flush of an empty cache is free and uninteresting).
     */
    std::uint64_t ownCacheMisses = 0;
    std::uint64_t ownCacheFlushes = 0;
    obs::Histogram ownCacheHitRuns;
    /**
     * Batched-checking telemetry (§14). The append path bumps only
     * `batchRuns` (and only when an access opens a new run — extending
     * the open run touches no counter here); the drain path owns the
     * rest, so none of these sit adjacent to a per-access hot counter
     * (the layout rule above).
     */
    std::uint64_t batchRuns = 0;
    /** Drains of a non-empty buffer (boundary or overflow). */
    std::uint64_t batchDrains = 0;
    /** Drains forced by buffer capacity, a subset of batchDrains. */
    std::uint64_t batchOverflowDrains = 0;
    /** Data bytes whose deferred checks a drain retired. */
    std::uint64_t batchDrainedBytes = 0;
    /** log2 histogram of coalesced run lengths (bytes) at drain. */
    obs::Histogram batchRunBytes;

    std::uint64_t
    ownCacheHits() const
    {
        return ownCacheHitRuns.sum() + ownCacheHitRun;
    }

    /** Closes the open hit run into the histogram (miss/flush/export). */
    void
    closeOwnCacheRun()
    {
        if (ownCacheHitRun != 0) {
            ownCacheHitRuns.add(ownCacheHitRun);
            ownCacheHitRun = 0;
        }
    }

    void
    merge(const CheckerStats &other)
    {
        sharedReads += other.sharedReads;
        sharedWrites += other.sharedWrites;
        shedReads += other.shedReads;
        accessedBytes += other.accessedBytes;
        wideAccesses += other.wideAccesses;
        wideSameEpoch += other.wideSameEpoch;
        epochUpdates += other.epochUpdates;
        wideCasUpdates += other.wideCasUpdates;
        replayedReads += other.replayedReads;
        replayedWrites += other.replayedWrites;
        replayedBytes += other.replayedBytes;
        replayedEpochUpdates += other.replayedEpochUpdates;
        ownCacheMisses += other.ownCacheMisses;
        ownCacheFlushes += other.ownCacheFlushes;
        batchRuns += other.batchRuns;
        batchDrains += other.batchDrains;
        batchOverflowDrains += other.batchOverflowDrains;
        batchDrainedBytes += other.batchDrainedBytes;
        batchRunBytes.merge(other.batchRunBytes);
        ownCacheHitRuns.merge(other.ownCacheHitRuns);
        // A still-open hit run in the source merges as a closed run so
        // the histogram accounts for every hit exactly once.
        if (other.ownCacheHitRun != 0)
            ownCacheHitRuns.add(other.ownCacheHitRun);
    }

    std::uint64_t accesses() const { return sharedReads + sharedWrites; }

    /** Dumps into a StatSet under the given prefix. */
    void
    exportTo(StatSet &stats, const std::string &prefix) const
    {
        stats.counter(prefix + ".sharedReads") += sharedReads;
        stats.counter(prefix + ".sharedWrites") += sharedWrites;
        stats.counter(prefix + ".shedReads") += shedReads;
        stats.counter(prefix + ".accessedBytes") += accessedBytes;
        stats.counter(prefix + ".wideAccesses") += wideAccesses;
        stats.counter(prefix + ".wideSameEpoch") += wideSameEpoch;
        stats.counter(prefix + ".epochUpdates") += epochUpdates;
        stats.counter(prefix + ".wideCasUpdates") += wideCasUpdates;
        stats.counter(prefix + ".replayedReads") += replayedReads;
        stats.counter(prefix + ".replayedWrites") += replayedWrites;
        stats.counter(prefix + ".replayedBytes") += replayedBytes;
        stats.counter(prefix + ".replayedEpochUpdates") +=
            replayedEpochUpdates;
        stats.counter(prefix + ".ownCacheHits") += ownCacheHits();
        stats.counter(prefix + ".ownCacheMisses") += ownCacheMisses;
        stats.counter(prefix + ".ownCacheFlushes") += ownCacheFlushes;
        stats.counter(prefix + ".batchRuns") += batchRuns;
        stats.counter(prefix + ".batchDrains") += batchDrains;
        stats.counter(prefix + ".batchOverflowDrains") +=
            batchOverflowDrains;
        stats.counter(prefix + ".batchDrainedBytes") += batchDrainedBytes;
    }
};

/**
 * Per-thread direct-mapped cache of shadow bytes known to hold the
 * thread's own current epoch — the software analogue of the §5.2
 * per-core ownership cache. An access whose bytes are all covered by a
 * valid entry retires with zero shadow traffic: no slots() lookup, no
 * SIMD scan, no vector-clock access, and for writes no republish.
 *
 * Soundness (the §5.2 isolation argument, restated for software):
 * a valid entry for byte b was created when this thread *verified or
 * published* ownEpoch over b's shadow slot, and `ownEpoch` has not
 * changed since (any change goes through refreshOwnEpoch, which
 * flushes). For the slot to stop holding ownEpoch, another thread W
 * must publish its epoch over it — but every publish path
 * (publishBytes / writeRunCas) runs W's own Figure 2 check against the
 * value it replaces *before* the CAS. Since we have performed no
 * release since claiming (a release ticks our clock →
 * refreshOwnEpoch → flush), W cannot be ordered after our epoch, so
 * W's check fires: the WAW/RAW race is detected *at the writer* before
 * our entry can go stale. Skipping our own check on a hit therefore
 * never hides a race — it only elides re-verification of bytes whose
 * epoch provably still equals ownEpoch.
 *
 * Entries track sub-line ownership with a 64-bit byte mask, so a hot
 * 8-byte word claims (and hits on) exactly its own bytes — no
 * whole-line scans, and bytes never written by this thread are never
 * treated as owned. Invalidation is O(1): bumping `gen_` makes every
 * entry's recorded generation stale at once.
 */
class OwnershipCache
{
  public:
    static constexpr std::size_t kEntries = 512;
    static constexpr unsigned kLineShift = 6;
    static constexpr std::size_t kLineBytes = std::size_t{1} << kLineShift;

    /**
     * True iff every byte of [addr, addr + size) is cached as owned.
     * Spans crossing a 64B line boundary (and size 0) always miss;
     * callers fall back to the shadow path, whose claims still cover
     * both lines for future (line-contained) accesses.
     */
    CLEAN_ALWAYS_INLINE bool
    covered(Addr addr, std::size_t size) const
    {
        const std::size_t off =
            static_cast<std::size_t>(addr) & (kLineBytes - 1);
        // One guard for both "crosses a line" and "size == 0" (the
        // subtraction wraps size 0 far past kLineBytes).
        if (CLEAN_UNLIKELY(off + size - 1 >= kLineBytes))
            return false;
        const Entry &e = entries_[indexOf(addr)];
        // need: bit per byte of the access; size is in [1, 64] here, so
        // the right-shift count stays in [0, 63] (no UB for full lines).
        const std::uint64_t need =
            (~std::uint64_t{0} >> (kLineBytes - size)) << off;
        // Line match, generation match, and mask coverage folded into
        // one zero test — a single branch on the hot path.
        return ((e.line ^ (addr >> kLineShift)) | (e.gen ^ gen_) |
                (need & ~e.mask)) == 0;
    }

    /**
     * Records [addr, addr + size) as owned. The caller must have just
     * verified (same-epoch scan) or published (successful CAS run) the
     * owning thread's current epoch over exactly these shadow bytes.
     */
    void
    claim(Addr addr, std::size_t size)
    {
        while (size > 0) {
            const std::size_t off =
                static_cast<std::size_t>(addr) & (kLineBytes - 1);
            const std::size_t chunk = std::min(size, kLineBytes - off);
            Entry &e = entries_[indexOf(addr)];
            const Addr line = addr >> kLineShift;
            if (e.line != line || e.gen != gen_) {
                e.line = line;
                e.gen = gen_;
                e.mask = 0;
            }
            e.mask |= maskOf(off, chunk);
            addr += chunk;
            size -= chunk;
        }
        dirty_ = true;
    }

    /**
     * O(1) whole-cache invalidation: every entry's recorded generation
     * becomes stale at once. Closes the open hit run and counts the
     * flush (only if entries existed to discard). Must run at every
     * SFR boundary that changes or invalidates ownEpoch —
     * refreshOwnEpoch calls it — and whenever published epochs are
     * retracted behind the cache's back (recovery rollback, rollover
     * reset; the latter goes through refreshOwnEpoch too).
     */
    void
    flush(CheckerStats &stats)
    {
        gen_++;
        stats.closeOwnCacheRun();
        if (dirty_) {
            stats.ownCacheFlushes++;
            dirty_ = false;
        }
    }

    /** True iff any entry has been claimed since the last flush. */
    bool dirty() const { return dirty_; }

  private:
    struct Entry
    {
        /** addr >> kLineShift of the cached line. */
        Addr line = 0;
        /** Generation the entry was (last) claimed in. */
        std::uint64_t gen = 0;
        /** Bit b set => byte b of the line holds ownEpoch. */
        std::uint64_t mask = 0;
    };

    CLEAN_ALWAYS_INLINE static std::size_t
    indexOf(Addr addr)
    {
        return (static_cast<std::size_t>(addr) >> kLineShift) &
               (kEntries - 1);
    }

    CLEAN_ALWAYS_INLINE static std::uint64_t
    maskOf(std::size_t off, std::size_t size)
    {
        // size in [1, 64]; the select avoids the UB of a 64-bit shift
        // by 64 for full-line masks.
        const std::uint64_t bits =
            size >= kLineBytes ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << size) - 1;
        return bits << off;
    }

    Entry entries_[kEntries];
    /** Starts at 1 so zero-initialized entries can never match. */
    std::uint64_t gen_ = 1;
    bool dirty_ = false;
};

/**
 * Per-thread buffer of read-access runs whose Figure 2 checks are
 * deferred to the next SFR boundary (§14 batched checking). Appends
 * coalesce accesses that are contiguous in address *and* uninterrupted
 * in site order into one run, so the drain can retire a whole streamed
 * span with one prefetched shadow walk and a single wide
 * all-epochs-equal scan.
 *
 * Only *read* checks may be buffered: a write's check-then-publish must
 * stay ordered before its data store (§4.3) or a concurrent reader
 * could consume racy data with no epoch evidence ever published.
 * Deferring reads is the §5.2 relaxation: the conflicting writer's
 * epoch stays in the shadow until our drain, which runs before the
 * SFR's effects can escape (before the release/acquire/retirement
 * completes), so the race still fires inside the SFR that read the
 * racy value.
 *
 * Storage is lazily allocated by the checker on first append (plain
 * ThreadState users that never enable batching pay nothing). The whole
 * struct is cache-line aligned so the per-access head fields
 * (open/count/cursor) of adjacent ThreadStates can never false-share.
 */
struct alignas(kCacheLineBytes) BatchBuffer
{
    struct Run
    {
        Addr addr = 0;
        /** Global access index of the run's first access (for exact
         *  per-access race siting: site = firstSite + offset/sizeEach;
         *  the access count is bytes / sizeEach, divided only at
         *  drain/race time, never on the append hot path). */
        std::uint64_t firstSite = 0;
        /** SFR ordinal the run's accesses executed in. */
        std::uint64_t sfrOrdinal = 0;
        /** Total coalesced length in bytes. */
        std::uint32_t bytes = 0;
        /** Uniform per-access width (the coalescing key). */
        std::uint32_t sizeEach = 0;
    };
    static_assert(sizeof(Run) == 32, "Run is sized for cheap indexing");

    /** Frees the zeroed, cache-line-aligned run table that
     *  RaceChecker::pushRun allocates. */
    struct RunTableDelete
    {
        void
        operator()(Run *table) const noexcept
        {
            ::operator delete(table, std::align_val_t{kCacheLineBytes});
        }
    };

    std::unique_ptr<Run[], RunTableDelete> runs;
    /** The run new appends may extend, or null when none is open. A
     *  write (which bumps the access ordinal without appending) and
     *  every drain close it, so a run's accesses are always consecutive
     *  ordinals — the invariant behind firstSite + offset/sizeEach
     *  race siting — without the append path consulting the stats. */
    Run *open = nullptr;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
    /** Drain-resume position: runs[0, cursor) are fully checked, and
     *  within runs[cursor] the first cursorOff bytes are checked. A
     *  drain that throws under a non-aborting policy resumes past the
     *  racy access instead of rechecking it. */
    std::uint32_t cursor = 0;
    std::uint32_t cursorOff = 0;
    /** Data bytes buffered in *closed* runs (settled when a run stops
     *  being `open`). The open run's budget is precomputed instead:
     *  extending it to `openLimit` bytes means closedBytes + bytes
     *  reached the configured batch-bytes cap — the append hot path
     *  keeps one running counter (the run's own length) and one
     *  compare, no global accumulator update. */
    std::uint64_t closedBytes = 0;
    /** Open-run length (bytes) at which an overflow drain fires. */
    std::uint32_t openLimit = 0;

    bool empty() const { return count == 0; }

    /** Retires the open run from coalescing (a write interleaved, or a
     *  drain): settle its bytes into the closed total. */
    void
    closeOpenRun()
    {
        if (open != nullptr) {
            closedBytes += open->bytes;
            open = nullptr;
        }
    }

    void
    clear()
    {
        open = nullptr;
        count = 0;
        cursor = 0;
        cursorOff = 0;
        closedBytes = 0;
        openLimit = 0;
    }
};
static_assert(alignof(BatchBuffer) == kCacheLineBytes,
              "batch heads must not false-share across threads");

/**
 * Detector-visible state of one running thread.
 *
 * The `ownEpoch` member caches vc.element(tid) — the "main element" of
 * the thread's vector clock (§2.3). The runtime refreshes it whenever the
 * thread's own clock ticks; the hardware model mirrors it as the per-core
 * 32-bit register of §5.1.
 */
struct ThreadState
{
    ThreadState(const EpochConfig &config, ThreadId tid, ThreadId slots)
        : tid(tid), vc(config, slots), ownEpoch(config.pack(tid, 0))
    {
    }

    /**
     * Re-derives the cached main element, and flushes the ownership
     * cache iff the element actually changed: its entries assert "this
     * shadow byte holds ownEpoch", which a new value invalidates
     * wholesale. Every clock-changing site (spawn, tickClock on
     * release) funnels through here, so that flush cannot be forgotten
     * at a new sync op. Acquire-side joins also land here but leave the
     * element untouched, and the cache *must* survive them (§5.2: the
     * hardware cache lives until the core's epoch changes) — acquiring
     * only adds order to our clock; another thread can become ordered
     * after our epoch, and thus overwrite a claimed slot unchecked,
     * only via a release of ours, which ticks. Within a rollover era
     * the element is monotone, so value equality implies it never
     * changed. Two events retract published epochs while leaving the
     * element equal and therefore flush explicitly: recovery rollback
     * (ThreadContext::rollbackWrites) and the rollover shadow reset
     * (CleanRuntime::performReset).
     */
    void
    refreshOwnEpoch()
    {
        const EpochValue element = vc.element(tid);
        if (element != ownEpoch) {
            ownEpoch = element;
            ownCache.flush(stats);
        }
    }

    /**
     * Debug-build check that the unsynchronized `stats` counters are
     * only ever bumped from one OS thread: StatSet/CheckerStats are
     * documented as per-thread-merged-after-the-run, and this pins the
     * contract at every checker entry. The owner is latched on the
     * first bump (states are constructed by the spawning thread but
     * first used by the child). Compiles to nothing with NDEBUG.
     */
#ifndef NDEBUG
    void
    assertStatsOwner()
    {
        const std::thread::id self = std::this_thread::get_id();
        std::thread::id owner =
            statsOwner_.load(std::memory_order_relaxed);
        if (owner == std::thread::id{} &&
            statsOwner_.compare_exchange_strong(owner, self,
                                                std::memory_order_relaxed))
            return;
        CLEAN_ASSERT(owner == self,
                     "CheckerStats bumped from two threads (tid %u)",
                     tid);
    }
#else
    void assertStatsOwner() {}
#endif

    ThreadId tid;
    VectorClock vc;
    EpochValue ownEpoch;
    CheckerStats stats;
    /** §5.2 software ownership cache; only the checker's hot path and
     *  the flush sites above touch it. */
    OwnershipCache ownCache;
    /** Index of the thread's current synchronization-free region,
     *  bumped at every sync op (acquireTurn); threaded into
     *  RaceException so reports can name the SFR a race fired in. */
    std::uint64_t sfrOrdinal = 0;
    /** Deferred read-check runs (§14); drained at SFR boundaries and
     *  on overflow by RaceChecker::drainBatch. */
    BatchBuffer batch;
    /** --overhead-budget sampling gate (§15); inert until the runtime
     *  (or a test harness) calls sample.configure() and the checker is
     *  built with sampling on (RaceChecker's constructor). */
    SampleGate sample;

#ifndef NDEBUG
  private:
    std::atomic<std::thread::id> statsOwner_{};
#endif
};

} // namespace clean

#endif // CLEAN_CORE_THREAD_STATE_H
