/**
 * @file
 * Portable chunked epoch store with a lock-free chunk index.
 *
 * Maps arbitrary 64-bit data addresses to epoch slots through an
 * open-addressed table of fixed-size chunks (64 KiB of data per chunk).
 * Slots for adjacent bytes are contiguous within a chunk, so the
 * vectorized multi-byte check still applies to accesses that do not
 * straddle a chunk boundary.
 *
 * The index is a flat array of (key, chunk*) atomic pairs probed
 * linearly from a Fibonacci-hashed start. Lookups of materialized
 * chunks are wait-free: a bounded probe sequence of acquire loads with
 * no stores and no retries. Inserts are lock-free: one thread's CAS
 * claims the key; concurrently inserting threads either claim a
 * different slot or (same key) wait for the winner's single
 * allocate-and-publish — the only bounded wait in the structure.
 * Compare the 16 mutex+map shards this replaces, where a parallel
 * first-touch sweep serialized 1/16th of all threads per shard and
 * every miss paid a lock round-trip (DESIGN.md §16).
 *
 * This backend exists (a) to support checking data outside the
 * SharedHeap and (b) as the comparison point for the
 * bench_ablation_shadow / bench_scale experiments: the paper's
 * fixed-arithmetic layout (LinearShadow) wins precisely because it
 * avoids this lookup.
 */

#ifndef CLEAN_CORE_SPARSE_SHADOW_H
#define CLEAN_CORE_SPARSE_SHADOW_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "support/common.h"

namespace clean
{

/** Hash-of-chunks epoch store for arbitrary addresses. */
class SparseShadow
{
  public:
    /** Data bytes covered by one chunk (must be a power of two). */
    static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

    /** Default index capacity: 2^16 slots = 4 GiB of distinct data
     *  covered before the index fills (each slot names one 64 KiB
     *  chunk). The table is fixed-capacity by design: growing a
     *  lock-free index while writers race to insert the same key in
     *  two generations of the table risks double-materializing a chunk
     *  and silently splitting its epoch history. */
    static constexpr unsigned kDefaultCapacityLog2 = 16;

    explicit SparseShadow(unsigned capacityLog2 = kDefaultCapacityLog2);
    ~SparseShadow();

    SparseShadow(const SparseShadow &) = delete;
    SparseShadow &operator=(const SparseShadow &) = delete;

    /** Epoch slot of the data byte at @p addr; creates the chunk lazily. */
    CLEAN_ALWAYS_INLINE EpochValue *
    slots(Addr addr)
    {
        const Addr key = addr >> kChunkShift;
        if (CLEAN_LIKELY(key == cachedKey_ &&
                         cachedGen_ ==
                             generation_.load(std::memory_order_relaxed)))
            return cachedChunk_ + (addr & kChunkMask);
        return slotsSlow(addr, key);
    }

    /** Contiguity holds to the end of the 64 KiB chunk. */
    CLEAN_ALWAYS_INLINE std::size_t
    contiguousSlots(Addr addr) const
    {
        return kChunkBytes - static_cast<std::size_t>(addr & kChunkMask);
    }

    /**
     * Rollover reset: swaps in an empty index instead of zeroing chunks
     * in place (the sparse analogue of LinearShadow's O(1) madvise
     * reset) — the next access lazily reallocates a zeroed chunk, so no
     * thread spends O(shadow) memset time inside the stop-the-world
     * reset window. The retired table and its chunks are NOT freed
     * here: they move to a deferred-reclamation list so a reader racing
     * this call (which the production rollover protocol forbids, but
     * the structure tolerates) can still dereference a just-retired
     * chunk safely. Bumping the instance generation afterwards
     * invalidates every thread-local chunk-cache entry: once the bump
     * is visible (immediately, for any thread that synchronizes with
     * the resetter — the rollover park/unpark does) a stale cache entry
     * can only miss.
     */
    void reset();

    /**
     * Frees every table retired by reset(). Callers must guarantee
     * quiescence: no thread may be inside slots()/slotsSlow() nor run
     * again without synchronizing with this call (the rollover window,
     * with every other thread parked, qualifies; so does a
     * single-threaded test). This is the "epoch-style" half of the
     * reclamation scheme: retirement is immediate and lock-free,
     * reclamation waits for a full quiescent point.
     */
    void reclaim();

    /** Number of chunks materialized so far (current index only). */
    std::size_t chunkCount() const;

    /** Index slots (inserting more distinct chunks than this panics). */
    std::size_t
    capacity() const
    {
        return table_.load(std::memory_order_acquire)->mask + 1;
    }

  private:
    static constexpr unsigned kChunkShift = 16;
    static constexpr Addr kChunkMask = kChunkBytes - 1;

    /** One index entry. key holds (chunk index + 1) so 0 can mean
     *  empty — data address 0 has chunk index 0. chunk is published
     *  with a release store strictly after the claiming CAS, so any
     *  thread that observes the key also observes a fully zeroed chunk
     *  (or spins briefly for the publish). */
    struct Slot
    {
        std::atomic<std::uint64_t> key{0};
        std::atomic<EpochValue *> chunk{nullptr};
    };

    struct Table
    {
        explicit Table(unsigned capacityLog2);
        ~Table();

        Table(const Table &) = delete;
        Table &operator=(const Table &) = delete;

        const std::size_t mask;   ///< capacity - 1
        const unsigned shift;     ///< 64 - capacityLog2 (hash -> start)
        std::unique_ptr<Slot[]> slots;
        Table *nextRetired = nullptr;
    };

    EpochValue *slotsSlow(Addr addr, Addr key);
    EpochValue *findOrCreate(Table &table, Addr key);

    const unsigned capacityLog2_;

    /** Current index. Swapped wholesale by reset(); readers take an
     *  acquire snapshot and work entirely within that snapshot. */
    std::atomic<Table *> table_;

    /** Treiber stack of tables retired by reset(), freed by reclaim(). */
    std::atomic<Table *> retired_{nullptr};

    // Per-thread single-entry chunk cache keyed by (instance generation,
    // chunk index). Chunks are immortal until the owning instance is
    // reset or destroyed, and both events retire the generation, so a
    // hit can never yield a stale pointer to any thread that has
    // synchronized with the retirement (reset runs inside the rollover
    // stop-the-world window, whose park/unpark is that
    // synchronization). The key must be a generation id, not the
    // instance address: a new instance allocated where a destroyed one
    // lived would otherwise satisfy an `owner == this` check and hand
    // out a freed chunk (use-after-free). Generations start at 1 so the
    // empty cache (gen 0) never hits.
    //
    // The fast-path generation load is relaxed on purpose: if it races
    // reset() and wins, the cached chunk belongs to a retired-but-not-
    // reclaimed table, which is still dereferenceable (reclaim()
    // requires quiescence). Strict freshness starts at the first
    // synchronization with the resetter, exactly when the protocol
    // needs it. slotsSlow() loads the generation (acquire) BEFORE the
    // table: reset() publishes the new table BEFORE the new generation,
    // so a reader that caches the new generation provably caches a
    // chunk from the new (or a newer) table, never a retired one.
    std::atomic<std::uint64_t> generation_;
    static std::atomic<std::uint64_t> nextGeneration_;
    // Defined inline so every translation unit reads the cache
    // directly: out-of-line thread_local members are reached through
    // the compiler's TLS wrapper, which UBSan flags as a null load.
    static inline thread_local std::uint64_t cachedGen_ = 0;
    static inline thread_local Addr cachedKey_ = ~Addr{0};
    static inline thread_local EpochValue *cachedChunk_ = nullptr;
};

} // namespace clean

#endif // CLEAN_CORE_SPARSE_SHADOW_H
