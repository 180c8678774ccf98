/**
 * @file
 * The CLEAN software race check (Figure 2 + §4.3/§4.4).
 *
 * Per checked byte, exactly one 32-bit epoch records the last write. The
 * check is:
 *
 *     race  <=>  CLOCK(epoch) > thread.vc[TID(epoch)]
 *
 * which, with tid bits replicated into vector-clock elements (§4.1),
 * collapses to a single raw integer comparison `epoch > vc.element(tid)`.
 *
 * Atomicity without locks (§4.3):
 *  - a WRITE is checked *before* the store and publishes its epoch with a
 *    compare-and-swap against the previously loaded value; a CAS failure
 *    means another write raced in between — a WAW race, and an exception
 *    is raised;
 *  - a READ is checked immediately *after* the load, so a write racing
 *    with the read is observed as RAW (its epoch is already visible),
 *    never misclassified as WAR. On x86-TSO no fences are required for
 *    this ordering (only later loads pass earlier stores); we use relaxed
 *    atomics accordingly.
 *
 * Multi-byte accesses (§4.4): in the common case all bytes of an access
 * carry the same epoch (paper: >= 99.7% of wide accesses), so one check
 * covers the access, and updates use 64/128-bit wide CAS to publish 2 or
 * 4 epochs per instruction.
 *
 * The checker is a template over the shadow backend (LinearShadow — the
 * paper's design — or SparseShadow); explicit instantiations live in
 * race_check.cc.
 */

#ifndef CLEAN_CORE_RACE_CHECK_H
#define CLEAN_CORE_RACE_CHECK_H

#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>

#include "core/epoch.h"
#include "core/race_exception.h"
#include "core/thread_state.h"
#include "support/common.h"
#include "support/logging.h"

// SIMD backend for the all-epochs-equal scan (§4.4), selected at
// configure time: the arch macros come from the compiler's target flags
// and -DCLEAN_SIMD_CHECK=OFF (-> CLEAN_DISABLE_SIMD_CHECK) forces the
// portable scalar loop on any architecture.
#if !defined(CLEAN_DISABLE_SIMD_CHECK) && defined(__SSE2__)
#define CLEAN_SIMD_CHECK_SSE2 1
#include <emmintrin.h>
#elif !defined(CLEAN_DISABLE_SIMD_CHECK) && defined(__ARM_NEON)
#define CLEAN_SIMD_CHECK_NEON 1
#include <arm_neon.h>
#endif

namespace clean
{

class LinearShadow;
class SparseShadow;

/** How concurrent checks on the same data are kept correct. */
enum class AtomicityMode
{
    /** Paper's design: lock-free CAS epoch updates + check ordering. */
    Cas,
    /** Ablation: classic sharded per-line locking around each check. */
    Locked,
};

/** Tunables for a RaceChecker. */
struct CheckerConfig
{
    EpochConfig epoch{};
    /** Enable the §4.4 multi-byte fast path (Figure 8 toggles this). */
    bool vectorized = true;
    /**
     * Enable the software fast path for the Fig. 2 check — the runtime
     * analogue of the §5.2 per-core hardware fast path: an access whose
     * covered epochs all equal the thread's own current epoch is retired
     * with a pure (SIMD-assisted) load+compare scan — no epoch masking,
     * no vector-clock lookup, and for writes no CAS republish (see
     * beforeWrite for the soundness argument). Only meaningful together
     * with `vectorized` (it *is* the vectorized same-epoch check,
     * hoisted); off reproduces the plain Figure 2 sequence for A/B
     * comparison.
     */
    bool fastPath = true;
    /**
     * Enable the per-thread ownership cache (§5.2 software analogue,
     * see OwnershipCache in thread_state.h): after a write run
     * publishes — or a fast-path scan verifies — the thread's own epoch
     * over some bytes, those bytes are recorded, and subsequent
     * accesses that hit retire with zero shadow traffic. Strictly a
     * second stage above `fastPath` (it caches that path's positive
     * outcome), so it inherits all of its gates and is inert when
     * `fastPath` is off; off reproduces PR 2 behaviour bit-for-bit.
     */
    bool ownCache = true;
    /**
     * Defer *read* checks into the per-thread BatchBuffer and retire
     * them in coalesced runs at SFR boundaries / on overflow
     * (drainBatch; §14 batched checking). Sound by the §5.2 argument:
     * the conflicting writer's epoch is still in the shadow when the
     * drain runs, and the drain completes before the reader's SFR
     * effects can escape. Write checks are never deferred — their
     * check-then-CAS-publish must precede the data store (§4.3), which
     * is also what keeps buffered read evidence alive: an unordered
     * writer publishing over a buffered byte is detected at the writer.
     * Requires the vectorized byte-granular CAS configuration (same
     * gates as the fast path); ignored otherwise. Off in a bare
     * CheckerConfig but on in RuntimeConfig's default (`--no-batch`
     * turns it off). CleanRuntime also turns it off under
     * `--on-race=recover` (recovery re-executes from the faulting
     * access, which requires race-at-access precision) and whenever
     * fault injection is armed (injected skips/kills are defined
     * against inline checks).
     */
    bool batch = false;
    /**
     * Buffered-data budget in bytes (`--batch-bytes`): once the pending
     * runs cover this many data bytes (or the run table fills), the
     * append path drains in place instead of waiting for the next SFR
     * boundary.
     */
    std::size_t batchBytes = std::size_t{1} << 16;
    /**
     * Tunables of the --overhead-budget sampling gate (seed, window,
     * burst, region, strikes); recorded in the trace header. CleanRuntime
     * configures every thread's gate with these, deriving `base` (the
     * shared-heap base) and `initialLevel` (from the budget or
     * RuntimeConfig::sampleForceLevel) itself.
     */
    SampleParams sample{};
    AtomicityMode atomicity = AtomicityMode::Cas;
    /**
     * log2 of the checking granule in bytes. 0 = per byte, the paper's
     * sound default for C/C++ (§3.2). 2 = per 4-byte word: the
     * "type-safe language" specialization the paper mentions but does
     * not explore — 4x less metadata and fewer checks, but accesses to
     * *distinct bytes* of one granule are indistinguishable, so it can
     * report races byte-granular CLEAN would not (false positives for
     * C/C++, sound for languages whose smallest shared unit is a word).
     */
    unsigned granuleLog2 = 0;
};

namespace detail
{

/**
 * True iff all @p n epoch slots hold exactly @p value.
 *
 * SSE2/NEON compare 4 epochs per instruction (8 per unrolled iteration
 * on SSE2); the scalar tail/fallback matches the pre-SIMD loop. Epoch
 * slots are written with relaxed 32-bit atomics; the vector loads read
 * each 4-byte-aligned lane in one piece, which on x86/ARM is exactly as
 * atomic per epoch as the scalar relaxed loads they replace — and like
 * them carries no ordering between lanes, which the §4.3 argument never
 * needs (any torn *set* of epochs simply fails the all-equal test and
 * falls back to per-byte checks).
 */
CLEAN_ALWAYS_INLINE bool
allSlotsEqual(const EpochValue *slots, std::size_t n, EpochValue value)
{
    std::size_t i = 0;
#if CLEAN_SIMD_CHECK_SSE2
    const __m128i needle = _mm_set1_epi32(static_cast<int>(value));
    for (; i + 8 <= n; i += 8) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(slots + i));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(slots + i + 4));
        const __m128i eq = _mm_and_si128(_mm_cmpeq_epi32(a, needle),
                                         _mm_cmpeq_epi32(b, needle));
        if (_mm_movemask_epi8(eq) != 0xffff)
            return false;
    }
    for (; i + 4 <= n; i += 4) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(slots + i));
        if (_mm_movemask_epi8(_mm_cmpeq_epi32(a, needle)) != 0xffff)
            return false;
    }
#elif CLEAN_SIMD_CHECK_NEON
    const uint32x4_t needle = vdupq_n_u32(value);
    for (; i + 4 <= n; i += 4) {
        const uint32x4_t eq = vceqq_u32(vld1q_u32(slots + i), needle);
        if (vminvq_u32(eq) != ~0u)
            return false;
    }
#endif
    for (; i < n; ++i) {
        if (__atomic_load_n(slots + i, __ATOMIC_RELAXED) != value)
            return false;
    }
    return true;
}

/** Shard lock table for AtomicityMode::Locked (one per 64B line hash). */
class ShardLocks
{
  public:
    static constexpr std::size_t kShards = 1024;

    std::mutex &
    forAddr(Addr addr)
    {
        return locks_[(addr >> 6) & (kShards - 1)];
    }

  private:
    std::mutex locks_[kShards];
};

} // namespace detail

/**
 * WAW/RAW race checker over a shadow backend.
 *
 * Thread-safe: any number of threads may call beforeWrite/afterRead
 * concurrently (that is the whole point).
 */
template <class ShadowT>
class RaceChecker
{
  public:
    /**
     * @p sampling enables the --overhead-budget sampling tier (§15,
     * sampling.h): a per-thread deterministic gate sheds *read* checks
     * per (region, window) before any check machinery runs. CleanRuntime
     * turns it on when detection is on and RuntimeConfig::overheadBudget
     * is in (0, 100). Whoever creates a ThreadState must configure its
     * gate (SampleGate::configure).
     */
    RaceChecker(const CheckerConfig &config, ShadowT &shadow,
                bool sampling = false)
        : config_(config), shadow_(shadow),
          epochMask_(~EpochConfig::expandedBit()),
          // The fast path is the vectorized same-epoch check hoisted to
          // the entry, so it follows the §4.4 toggle; per-byte granules
          // and the Locked ablation (which must serialize every write)
          // take the plain path.
          fastPath_(config.fastPath && config.vectorized &&
                    config.granuleLog2 == 0 &&
                    config.atomicity == AtomicityMode::Cas),
          // The ownership cache memoizes the fast path's same-epoch
          // verdict, so it requires the fast path (and thereby Cas
          // atomicity + byte granules + vectorized scans).
          ownCache_(config.ownCache && fastPath_),
          // Batched read checking shares the fast path's gates (wide
          // scans only make sense vectorized, per-byte granules, and
          // the §4.3 CAS write ordering is what keeps buffered
          // evidence alive) but not the fastPath flag itself — the
          // drain has its own segment scan.
          batch_(config.batch && config.vectorized &&
                 config.granuleLog2 == 0 &&
                 config.atomicity == AtomicityMode::Cas),
          // The sampling gate has no configuration gates of its own:
          // it decides before any check machinery runs, so it composes
          // with every path below (inline, batched, granular, locked).
          sampling_(sampling)
    {
        CLEAN_ASSERT(config.epoch.valid());
    }

    const CheckerConfig &config() const { return config_; }

    /**
     * Check a write of @p size bytes at @p addr and publish the writing
     * thread's epoch. MUST run before the data store (§4.3).
     * @throws RaceException on a WAW race.
     */
    void
    beforeWrite(ThreadState &ts, Addr addr, std::size_t size)
    {
        ts.assertStatsOwner();
        // Batched mode: a write advances the access ordinal without
        // appending, so the open read run would no longer be
        // consecutive-site — close it (appendRead's coalescing
        // invariant). The checks themselves stay inline: deferring a
        // write's check-and-publish past its store would break §4.3.
        if (batch_)
            ts.batch.closeOpenRun();
        ts.stats.sharedWrites++;
        ts.stats.accessedBytes += size;
        // Ownership-cache hit: every byte of the access is cached as
        // still holding ownEpoch, so the same-epoch fast path below
        // would succeed — skip it wholesale: no shadow lookup, no scan,
        // no publish (the plain path also skips the republish when all
        // epochs already equal ownEpoch, so eliding it changes
        // nothing). Soundness of trusting the cache is argued at
        // OwnershipCache in thread_state.h: a concurrent unordered
        // writer is detected by its *own* pre-CAS check, and every
        // event that could invalidate an entry flushes the cache.
        // (The wideAccesses bump is folded into each branch so the hit
        // path pays a single size>=4 test.)
        if (CLEAN_LIKELY(ownCache_)) {
            if (CLEAN_LIKELY(ts.ownCache.covered(addr, size))) {
                ts.stats.ownCacheHitRun++;
                if (size >= 4) {
                    ts.stats.wideAccesses++;
                    ts.stats.wideSameEpoch++;
                }
                return;
            }
            ts.stats.closeOwnCacheRun();
            ts.stats.ownCacheMisses++;
        }
        if (size >= 4)
            ts.stats.wideAccesses++;
        if (CLEAN_UNLIKELY(config_.granuleLog2 != 0)) {
            writeGranular(ts, addr, size);
            return;
        }
        while (size > 0) {
            const std::size_t run =
                std::min(size, shadow_.contiguousSlots(addr));
            EpochValue *slots = shadow_.slots(addr);
            // Skip-republish fast path: when every epoch covered by the
            // run already equals this thread's own current epoch, the
            // access retires on a pure load+compare — no CAS, no RMW,
            // no exclusive cache-line transition. Soundness:
            //   (a) no missed race on our side — ownEpoch caches
            //       vc.element(tid), so for each slot the Figure 2
            //       check `epoch > vc.element(TID(epoch))` reads
            //       `ownEpoch > ownEpoch`, which is false; and
            //   (b) the publish is a no-op — the CAS would store the
            //       value already present, leaving the shadow
            //       byte-identical.
            // Concurrent writers lose nothing: the plain path also
            // refrains from CASing when seen == newEpoch
            // (publishBytes/writeRunCas), so a racing writer W is
            // detected exactly as before — either W's own check
            // observes our unordered epoch and throws, or W publishes
            // after our scan and the next check of this location
            // observes W's epoch.
            // The scalar first-slot guard keeps misses cheap: on a
            // location last written in another epoch the first slot
            // differs almost always, so a miss costs one relaxed load
            // (of a line writeRun needs anyway), not a vector scan
            // whose result is thrown away.
            if (CLEAN_LIKELY(fastPath_) &&
                __atomic_load_n(slots, __ATOMIC_RELAXED) == ts.ownEpoch &&
                detail::allSlotsEqual(slots, run, ts.ownEpoch)) {
                if (run >= 4)
                    ts.stats.wideSameEpoch++;
            } else {
                writeRun(ts, addr, slots, run);
            }
            // Either branch leaves every slot of the run holding
            // ownEpoch (the scan verified it; a writeRun that returned
            // published it — on a race it throws before reaching here),
            // which is exactly the ownership-cache claim condition.
            if (ownCache_)
                ts.ownCache.claim(addr, run);
            addr += run;
            size -= run;
        }
    }

    /**
     * Check a read of @p size bytes at @p addr. MUST run immediately
     * after the data load (§4.3). Reads never update metadata.
     * @throws RaceException on a RAW race.
     */
    void
    afterRead(ThreadState &ts, Addr addr, std::size_t size)
    {
        ts.assertStatsOwner();
        // Sampling tier (--overhead-budget, §15): admission is decided
        // before any check machinery runs. A shed read performs no
        // check at all but still advances the access ordinal and byte
        // totals — site indices in budgeted and unbudgeted runs must
        // be identical, which is what makes the budgeted report a
        // verifiable subset. With batching on, the open run closes:
        // coalesced runs must cover exactly the *admitted* reads, or
        // the drain would silently re-check what the gate shed.
        if (CLEAN_UNLIKELY(sampling_) &&
            !ts.sample.admit(addr, ts.stats.sharedReads)) {
            ts.stats.accessedBytes += size;
            ts.stats.sharedReads++;
            ts.stats.shedReads++;
            if (batch_)
                ts.batch.closeOpenRun();
            return;
        }
        // Batched mode: append the access to the per-thread run buffer
        // and return — no shadow traffic at all on the hot path. The
        // deferred Figure 2 checks run at the next drain (SFR boundary
        // or overflow), against the same vector clock (it cannot change
        // before the boundary) and over epochs an unordered overwrite
        // of which would itself have raised at the writer.
        if (batch_) {
            appendRead(ts, addr, size);
            return;
        }
        ts.stats.sharedReads++;
        ts.stats.accessedBytes += size;
        // Ownership-cache hit — the read-back-own-writes case: the
        // bytes are known to hold ownEpoch, the Figure 2 check would
        // reduce to `ownEpoch > ownEpoch` (false), and reads never
        // update metadata, so nothing at all remains to do.
        if (CLEAN_LIKELY(ownCache_)) {
            if (CLEAN_LIKELY(ts.ownCache.covered(addr, size))) {
                ts.stats.ownCacheHitRun++;
                if (size >= 4) {
                    ts.stats.wideAccesses++;
                    ts.stats.wideSameEpoch++;
                }
                return;
            }
            ts.stats.closeOwnCacheRun();
            ts.stats.ownCacheMisses++;
        }
        if (size >= 4)
            ts.stats.wideAccesses++;
        if (CLEAN_UNLIKELY(config_.granuleLog2 != 0)) {
            readGranular(ts, addr, size);
            return;
        }
        while (size > 0) {
            const std::size_t run =
                std::min(size, shadow_.contiguousSlots(addr));
            EpochValue *slots = shadow_.slots(addr);
            // Same-epoch read fast path: every covered epoch equals our
            // own current epoch, i.e. we are reading back our latest
            // writes. The Figure 2 check `epoch > vc.element(TID(epoch))`
            // reduces to `ownEpoch > ownEpoch` for each slot — false —
            // and reads never update metadata, so nothing else is
            // skipped. Same scalar first-slot guard as beforeWrite:
            // misses must stay cheap.
            if (CLEAN_LIKELY(fastPath_) &&
                __atomic_load_n(slots, __ATOMIC_RELAXED) == ts.ownEpoch &&
                detail::allSlotsEqual(slots, run, ts.ownEpoch)) {
                if (run >= 4)
                    ts.stats.wideSameEpoch++;
                // The scan just proved these slots hold ownEpoch —
                // claimable. (readRun proves only ordering, not
                // equality with ownEpoch, so no claim on that branch.)
                if (ownCache_)
                    ts.ownCache.claim(addr, run);
            } else {
                readRun(ts, addr, slots, run);
            }
            addr += run;
            size -= run;
        }
    }

    /** True iff read checks are being deferred (config gates applied). */
    bool batchEnabled() const { return batch_; }

    /**
     * Retires every deferred read check in @p ts's batch buffer: one
     * prefetched shadow walk per coalesced run, segmented into maximal
     * uniform-epoch stretches by a wide (AVX2 where available, else the
     * CLEAN_SIMD_CHECK 16B scan) compare — one Figure 2 check per
     * stretch. MUST run before the thread's SFR boundary completes
     * (before the release ticks / the acquire adds order / the shadow
     * resets) — every drain site is inventoried in DESIGN.md §14.
     *
     * On a race, throws RaceException carrying the *buffered* access's
     * site index and the run's SFR ordinal, with the buffer cursor
     * advanced past the racy access: a caller that records the race
     * and continues (Report/Count policies) simply calls drainBatch
     * again to finish the remaining checks.
     */
    void drainBatch(ThreadState &ts);

  private:
    /**
     * Batched-mode read path: bump the per-access stats (so site
     * indices stay exact) and append to the run buffer, extending the
     * open run when the access is address-contiguous, same-width and
     * uninterrupted in site order — the coalescing that lets the drain
     * check a whole streamed span in one walk. Overflow (run table
     * full or batchBytes of data pending) drains in place, *after*
     * appending, so the triggering access's own check is part of the
     * drain.
     */
    CLEAN_ALWAYS_INLINE void
    appendRead(ThreadState &ts, Addr addr, std::size_t size)
    {
        ts.stats.sharedReads++;
        BatchBuffer &b = ts.batch;
        BatchBuffer::Run *last = b.open;
        // Extend the open run when the access is address-contiguous and
        // same-width. Consecutive-site-order needs no check here: only
        // reads and writes advance the access ordinal, reads under
        // batching always land here, and beforeWrite closes the open
        // run — so an extendable run is uninterrupted by construction.
        // Per-access byte/width stats are settled at run retirement
        // (drainBatch); only the ordinal counter must advance per
        // access, for exact race siting.
        if (CLEAN_LIKELY(last != nullptr && last->addr + last->bytes == addr &&
                         last->sizeEach == size)) {
            last->bytes += static_cast<std::uint32_t>(size);
            if (CLEAN_UNLIKELY(last->bytes >= b.openLimit))
                overflowDrain(ts);
            return;
        }
        pushRun(ts, addr, size);
    }

    /** Opens a new run (allocating the table on first use, draining
     *  when it is full). Out of line: the extend path above is the
     *  streaming common case. */
    CLEAN_NOINLINE void
    pushRun(ThreadState &ts, Addr addr, std::size_t size)
    {
        BatchBuffer &b = ts.batch;
        if (CLEAN_UNLIKELY(b.runs == nullptr)) {
            const std::size_t cap = std::max<std::size_t>(
                64, config_.batchBytes / sizeof(BatchBuffer::Run));
            const std::size_t bytes = cap * sizeof(BatchBuffer::Run);
            void *table =
                ::operator new(bytes, std::align_val_t{kCacheLineBytes});
            std::memset(table, 0, bytes);
            b.runs.reset(static_cast<BatchBuffer::Run *>(table));
            b.capacity = static_cast<std::uint32_t>(cap);
        } else if (CLEAN_UNLIKELY(b.count == b.capacity)) {
            // Non-coalescable access pattern filled the table; a race
            // thrown here unwinds before the current access is buffered
            // (its check re-runs only if the caller retries) — the
            // documented Report-mode corner in §14.
            overflowDrain(ts);
        }
        b.closeOpenRun();
        BatchBuffer::Run &r = b.runs[b.count++];
        r.addr = addr;
        r.firstSite = ts.stats.accesses();
        r.sfrOrdinal = ts.sfrOrdinal;
        r.bytes = static_cast<std::uint32_t>(size);
        r.sizeEach = static_cast<std::uint32_t>(size);
        ts.stats.batchRuns++;
        if (CLEAN_UNLIKELY(b.closedBytes + size >= config_.batchBytes)) {
            overflowDrain(ts);
            return;
        }
        // Precompute the open run's overflow point so the extend path
        // compares the run's own length against one cached limit
        // instead of maintaining a buffer-wide byte total per access.
        b.open = &r;
        b.openLimit =
            static_cast<std::uint32_t>(config_.batchBytes - b.closedBytes);
    }

    /** Capacity-forced drain (counts separately from boundary drains). */
    void
    overflowDrain(ThreadState &ts)
    {
        ts.stats.batchOverflowDrains++;
        drainBatch(ts);
    }

    /** Walks one buffered run from the resume offset; throws on race
     *  with the cursor advanced past the racy access. */
    void drainRun(ThreadState &ts, const BatchBuffer::Run &r);

    /** Number of granules covered by [addr, addr + size). */
    CLEAN_ALWAYS_INLINE std::size_t
    granules(Addr addr, std::size_t size) const
    {
        if (size == 0)
            return 0;
        const Addr first = addr >> config_.granuleLog2;
        const Addr last = (addr + size - 1) >> config_.granuleLog2;
        return static_cast<std::size_t>(last - first + 1);
    }

    CLEAN_ALWAYS_INLINE static EpochValue
    loadEpoch(const EpochValue *slot)
    {
        return __atomic_load_n(slot, __ATOMIC_RELAXED);
    }

    /** Outlined cold half of checkEpoch: building the exception (site
     *  index, SFR ordinal, address arithmetic) must not be inlined into
     *  the hot check loops — it only runs when the program is already
     *  doomed, and keeping it out preserves the fast-path code size. */
    [[noreturn]] CLEAN_NOINLINE void
    throwRace(ThreadState &ts, Addr unit, EpochValue epoch,
              RaceKind kind) const
    {
        throw RaceException(kind, unit << config_.granuleLog2, ts.tid,
                            config_.epoch.tidOf(epoch),
                            config_.epoch.clockOf(epoch),
                            ts.stats.accesses(), ts.sfrOrdinal);
    }

    /** Drain-time variant of throwRace: the racy access's site index
     *  and SFR ordinal come from the buffered run, not from the
     *  thread's current counters (other accesses may have retired
     *  between the buffered read and this drain). */
    [[noreturn]] CLEAN_NOINLINE void
    throwRaceAt(ThreadState &ts, Addr addr, EpochValue epoch, RaceKind kind,
                std::uint64_t site, std::uint64_t sfr) const
    {
        throw RaceException(kind, addr, ts.tid, config_.epoch.tidOf(epoch),
                            config_.epoch.clockOf(epoch), site, sfr);
    }

    /** The Figure 2 line-3 check. @p unit is a granule index; the
     *  exception reports the granule's base byte address. */
    CLEAN_ALWAYS_INLINE void
    checkEpoch(ThreadState &ts, Addr unit, EpochValue rawEpoch,
               RaceKind kind) const
    {
        const EpochValue epoch = rawEpoch & epochMask_;
        const ThreadId writer = config_.epoch.tidOf(epoch);
        if (CLEAN_UNLIKELY(epoch > ts.vc.element(writer)))
            throwRace(ts, unit, epoch, kind);
    }

    /** True iff all @p n slots hold the same value as slots[0]. */
    CLEAN_ALWAYS_INLINE static bool
    allEqual(const EpochValue *slots, std::size_t n)
    {
        return detail::allSlotsEqual(slots, n, loadEpoch(slots));
    }

    void readRun(ThreadState &ts, Addr addr, EpochValue *slots,
                 std::size_t n);
    void writeRun(ThreadState &ts, Addr addr, EpochValue *slots,
                  std::size_t n);

    /** Coarse-granule paths: one epoch per granule, stored at the slot
     *  of the granule's base byte (stride granule-size in the shadow);
     *  one check/update per granule, no wide vectorization. */
    void readGranular(ThreadState &ts, Addr addr, std::size_t size);
    void writeGranular(ThreadState &ts, Addr addr, std::size_t size);
    void writeRunCas(ThreadState &ts, Addr addr, EpochValue *slots,
                     std::size_t n);
    void writeRunLocked(ThreadState &ts, Addr addr, EpochValue *slots,
                        std::size_t n);

    /** Publishes newEpoch over n slots previously observed all == seen,
     *  using the widest CAS available. @throws RaceException on WAW. */
    void publishWide(ThreadState &ts, Addr addr, EpochValue *slots,
                     std::size_t n, EpochValue seen, EpochValue newEpoch);

    /** Per-byte CAS publish fallback. @throws RaceException on WAW. */
    void publishBytes(ThreadState &ts, Addr addr, EpochValue *slots,
                      std::size_t n, EpochValue newEpoch);

    CheckerConfig config_;
    ShadowT &shadow_;
    EpochValue epochMask_;
    /** Precomputed "fast path applies" flag (see constructor). */
    bool fastPath_;
    /** Precomputed "ownership cache applies" flag (see constructor). */
    bool ownCache_;
    /** Precomputed "read checks are deferred" flag (see constructor). */
    bool batch_;
    /** Precomputed "sampling gate applies" flag (see constructor). */
    bool sampling_;
    detail::ShardLocks shardLocks_;
};

extern template class RaceChecker<LinearShadow>;
extern template class RaceChecker<SparseShadow>;

} // namespace clean

#endif // CLEAN_CORE_RACE_CHECK_H
