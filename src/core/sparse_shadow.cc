#include "core/sparse_shadow.h"

#include <cstring>
#include <new>

#include "support/backoff.h"
#include "support/logging.h"

namespace clean
{

std::atomic<std::uint64_t> SparseShadow::nextGeneration_{1};

namespace
{

constexpr std::size_t kChunkAllocBytes =
    SparseShadow::kChunkBytes * sizeof(EpochValue);

/** Zeroed, cache-line-aligned chunk; freed by ~Table. */
EpochValue *
allocChunk()
{
    void *chunk =
        ::operator new(kChunkAllocBytes, std::align_val_t{kCacheLineBytes});
    std::memset(chunk, 0, kChunkAllocBytes);
    return static_cast<EpochValue *>(chunk);
}

} // namespace

SparseShadow::Table::Table(unsigned capacityLog2)
    : mask((std::size_t{1} << capacityLog2) - 1),
      shift(64 - capacityLog2),
      slots(std::make_unique<Slot[]>(mask + 1))
{
}

SparseShadow::Table::~Table()
{
    for (std::size_t i = 0; i <= mask; ++i) {
        EpochValue *chunk = slots[i].chunk.load(std::memory_order_acquire);
        if (chunk)
            ::operator delete(chunk, std::align_val_t{kCacheLineBytes});
    }
}

SparseShadow::SparseShadow(unsigned capacityLog2)
    : capacityLog2_(capacityLog2),
      table_(new Table(capacityLog2)),
      generation_(nextGeneration_.fetch_add(1))
{
    CLEAN_ASSERT(capacityLog2 >= 1 && capacityLog2 <= 32,
                 "capacityLog2=%u", capacityLog2);
}

SparseShadow::~SparseShadow()
{
    reclaim();
    delete table_.load(std::memory_order_acquire);
}

EpochValue *
SparseShadow::slotsSlow(Addr addr, Addr key)
{
    // Generation before table, both acquire: reset() publishes the new
    // table before the new generation, so caching (gen, chunk) in this
    // order guarantees a current-generation cache entry never points
    // into a retired table (see the cache comment in the header).
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    Table *table = table_.load(std::memory_order_acquire);
    EpochValue *chunk = findOrCreate(*table, key);
    cachedGen_ = gen;
    cachedKey_ = key;
    cachedChunk_ = chunk;
    return chunk + (addr & kChunkMask);
}

EpochValue *
SparseShadow::findOrCreate(Table &table, Addr key)
{
    // Keys are stored biased by one so 0 can mean "empty" (address 0
    // lives in chunk index 0).
    const std::uint64_t stored = static_cast<std::uint64_t>(key) + 1;
    // Fibonacci-hash the chunk index so adjacent chunks (the common
    // sequential first-touch pattern) start their probes far apart.
    std::size_t idx = static_cast<std::size_t>(
        (stored * 0x9e3779b97f4a7c15ull) >> table.shift);
    for (std::size_t probes = 0; probes <= table.mask; ++probes) {
        Slot &slot = table.slots[idx];
        std::uint64_t seen = slot.key.load(std::memory_order_acquire);
        if (seen == 0 &&
            slot.key.compare_exchange_strong(seen, stored,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
            // Claimed: we own the (single) allocate-and-publish.
            EpochValue *chunk = allocChunk();
            slot.chunk.store(chunk, std::memory_order_release);
            return chunk;
        }
        if (seen == stored) {
            // Materialized (or being materialized) by someone else.
            // The publish follows the claim by one bounded allocation,
            // so this wait is short; it is the only place a lookup can
            // wait at all.
            EpochValue *chunk =
                slot.chunk.load(std::memory_order_acquire);
            if (CLEAN_LIKELY(chunk != nullptr))
                return chunk;
            SpinWait wait;
            while (!(chunk = slot.chunk.load(std::memory_order_acquire)))
                wait.pause();
            return chunk;
        }
        idx = (idx + 1) & table.mask;
    }
    panic("SparseShadow chunk index full: %zu distinct 64 KiB chunks; "
          "construct with a larger capacityLog2",
          table.mask + 1);
}

void
SparseShadow::reset()
{
    // Swap in an empty index first, then retire the generation. Order
    // matters for the thread-local cache invariant (header comment):
    // a reader that observes the new generation must be working
    // against the new table. The old table is pushed on the retired
    // list, not freed — see reclaim().
    Table *fresh = new Table(capacityLog2_);
    Table *old = table_.exchange(fresh, std::memory_order_acq_rel);
    old->nextRetired = retired_.load(std::memory_order_relaxed);
    while (!retired_.compare_exchange_weak(old->nextRetired, old,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
    }
    generation_.store(nextGeneration_.fetch_add(1),
                      std::memory_order_release);
}

void
SparseShadow::reclaim()
{
    Table *head = retired_.exchange(nullptr, std::memory_order_acq_rel);
    while (head) {
        Table *next = head->nextRetired;
        delete head;
        head = next;
    }
}

std::size_t
SparseShadow::chunkCount() const
{
    const Table *table = table_.load(std::memory_order_acquire);
    std::size_t total = 0;
    for (std::size_t i = 0; i <= table->mask; ++i) {
        if (table->slots[i].chunk.load(std::memory_order_acquire))
            ++total;
    }
    return total;
}

} // namespace clean
