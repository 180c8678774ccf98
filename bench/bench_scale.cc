/**
 * @file
 * Many-core contention sweep (this PR): where does the checker's
 * metadata path stop scaling?
 *
 * Three layers, each swept 1→64 threads:
 *
 *   * `BM_Index*` — the sparse-shadow chunk index alone. The
 *     `LockFree` lanes exercise the shipped open-addressed atomic
 *     table (DESIGN.md §16); the `MutexShard` lanes re-implement the
 *     predecessor design (16 mutex+map shards, same 1-entry
 *     thread-local cache) as an in-bench ablation. Kernels: `Stream`
 *     (sequential bytes, cache-friendly), `Stride` (one chunk per
 *     access over thread-private keys — every access is an index
 *     lookup), `Conflict` (all threads rotate over the *same* 16
 *     chunks — the shard-contention worst case the lock-free table
 *     exists to kill).
 *   * `BM_CheckerStreamBatch` — the full batched read-check path over
 *     one shared SparseShadow: per-thread streaming reads, overflow
 *     drains included. items/s is aggregate checked accesses per
 *     second across threads.
 *   * `BM_SimCheckedAccessRate` — the §6.3.1 timing model with the
 *     CLEAN hardware unit, cores = trace threads, swept to 64 (the
 *     machine previously only ever ran the paper's 8-core point).
 *     Manual time is simulated time, so this lane reports the
 *     *model's* aggregate checked-access rate, independent of how
 *     many physical CPUs the host has — the honest scaling column on
 *     a small CI box.
 *
 * Emits BENCH_scale.json via --benchmark_out; the 4-thread smoke of
 * the gated lanes is compared by check_perf.py --gate scale (per-access
 * ns, never wall time).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/race_check.h"
#include "core/sparse_shadow.h"
#include "core/thread_state.h"
#include "sim/machine.h"
#include "workloads/runner.h"

namespace clean
{
namespace
{

constexpr Addr kBase = 0x200000000;
constexpr std::size_t kChunkBytes = SparseShadow::kChunkBytes;

// ---------------------------------------------------------------------
// The predecessor index: 16 mutex+map shards. Kept bench-local — the
// ablation must stay measurable after the shipped design moved on.
// ---------------------------------------------------------------------

class MutexShardShadow
{
  public:
    EpochValue *
    slots(Addr addr)
    {
        const Addr key = addr / kChunkBytes;
        if (cachedOwner_ == this && cachedKey_ == key)
            return cachedChunk_ + (addr & (kChunkBytes - 1));
        Shard &shard = shards_[key & (kShards - 1)];
        EpochValue *chunk = nullptr;
        {
            std::lock_guard<std::mutex> guard(shard.mu);
            auto &slot = shard.map[key];
            if (!slot)
                slot = std::make_unique<EpochValue[]>(kChunkBytes);
            chunk = slot.get();
        }
        cachedOwner_ = this;
        cachedKey_ = key;
        cachedChunk_ = chunk;
        return chunk + (addr & (kChunkBytes - 1));
    }

  private:
    static constexpr unsigned kShards = 16;
    struct Shard
    {
        std::mutex mu;
        std::unordered_map<Addr, std::unique_ptr<EpochValue[]>> map;
    };
    Shard shards_[kShards];
    static thread_local const MutexShardShadow *cachedOwner_;
    static thread_local Addr cachedKey_;
    static thread_local EpochValue *cachedChunk_;
};

thread_local const MutexShardShadow *MutexShardShadow::cachedOwner_ =
    nullptr;
thread_local Addr MutexShardShadow::cachedKey_ = 0;
thread_local EpochValue *MutexShardShadow::cachedChunk_ = nullptr;

// ---------------------------------------------------------------------
// Index kernels. Thread 0 owns the shared instance (google-benchmark
// runs thread 0's pre-loop code before any thread enters the loop).
// ---------------------------------------------------------------------

/** Sequential bytes inside thread-private chunks: the thread-local
 *  cache absorbs almost everything; this bounds the index's overhead
 *  on well-behaved streaming kernels. */
template <class Index>
void
indexStream(benchmark::State &state)
{
    static std::unique_ptr<Index> shadow;
    if (state.thread_index() == 0)
        shadow = std::make_unique<Index>();
    const Addr base =
        kBase + Addr{static_cast<unsigned>(state.thread_index())} * 8 *
                    kChunkBytes;
    Addr a = base;
    for (auto _ : state) {
        benchmark::DoNotOptimize(shadow->slots(a));
        a += 8;
        if (a >= base + 4 * kChunkBytes)
            a = base;
    }
    state.SetItemsProcessed(state.iterations());
    if (state.thread_index() == 0)
        shadow.reset();
}

/** One chunk per access over thread-private keys: defeats the
 *  thread-local cache, so every access is a full index lookup, but
 *  with zero key sharing across threads. */
template <class Index>
void
indexStride(benchmark::State &state)
{
    static std::unique_ptr<Index> shadow;
    if (state.thread_index() == 0)
        shadow = std::make_unique<Index>();
    constexpr unsigned kChunks = 32;
    const Addr base =
        kBase + Addr{static_cast<unsigned>(state.thread_index())} *
                    kChunks * kChunkBytes;
    unsigned i = 0;
    for (auto _ : state) {
        const Addr a = base + Addr{i % kChunks} * kChunkBytes;
        benchmark::DoNotOptimize(shadow->slots(a));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
    if (state.thread_index() == 0)
        shadow.reset();
}

/** All threads rotate over the same 16 chunks: on the mutex design
 *  every lookup serialises on a shard lock some other thread holds;
 *  the lock-free table's lookups stay wait-free. This is the kernel
 *  the acceptance criterion gates on at >=16 threads. */
template <class Index>
void
indexConflict(benchmark::State &state)
{
    static std::unique_ptr<Index> shadow;
    if (state.thread_index() == 0) {
        shadow = std::make_unique<Index>();
        // Pre-materialise from thread 0, so the timed loop measures
        // lookups, not first-touch allocation.
        for (unsigned c = 0; c < 16; ++c)
            benchmark::DoNotOptimize(
                shadow->slots(kBase + Addr{c} * kChunkBytes));
    }
    unsigned i = 0;
    for (auto _ : state) {
        const Addr a = kBase + Addr{i % 16} * kChunkBytes +
                       Addr{static_cast<unsigned>(state.thread_index())} *
                           64;
        benchmark::DoNotOptimize(shadow->slots(a));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
    if (state.thread_index() == 0)
        shadow.reset();
}

void
BM_IndexStreamMutexShard(benchmark::State &state)
{
    indexStream<MutexShardShadow>(state);
}
void
BM_IndexStreamLockFree(benchmark::State &state)
{
    indexStream<SparseShadow>(state);
}
void
BM_IndexStrideMutexShard(benchmark::State &state)
{
    indexStride<MutexShardShadow>(state);
}
void
BM_IndexStrideLockFree(benchmark::State &state)
{
    indexStride<SparseShadow>(state);
}
void
BM_IndexConflictMutexShard(benchmark::State &state)
{
    indexConflict<MutexShardShadow>(state);
}
void
BM_IndexConflictLockFree(benchmark::State &state)
{
    indexConflict<SparseShadow>(state);
}

#define CLEAN_SCALE_THREADS ThreadRange(1, 64)->UseRealTime()

BENCHMARK(BM_IndexStreamMutexShard)->CLEAN_SCALE_THREADS;
BENCHMARK(BM_IndexStreamLockFree)->CLEAN_SCALE_THREADS;
BENCHMARK(BM_IndexStrideMutexShard)->CLEAN_SCALE_THREADS;
BENCHMARK(BM_IndexStrideLockFree)->CLEAN_SCALE_THREADS;
BENCHMARK(BM_IndexConflictMutexShard)->CLEAN_SCALE_THREADS;
BENCHMARK(BM_IndexConflictLockFree)->CLEAN_SCALE_THREADS;

// ---------------------------------------------------------------------
// Full batched checker over one shared SparseShadow.
// ---------------------------------------------------------------------

/** Per-thread streaming reads through the batched read-check path,
 *  thread-private 256 KiB regions, overflow drains in the timed loop.
 *  Aggregate items/s across threads is the scaling headline. */
void
BM_CheckerStreamBatch(benchmark::State &state)
{
    static std::unique_ptr<SparseShadow> shadow;
    static std::unique_ptr<RaceChecker<SparseShadow>> checker;
    if (state.thread_index() == 0) {
        CheckerConfig config;
        config.batch = true;
        shadow = std::make_unique<SparseShadow>();
        checker = std::make_unique<RaceChecker<SparseShadow>>(config,
                                                              *shadow);
    }
    const ThreadId tid = static_cast<ThreadId>(state.thread_index());
    const ThreadId slots = static_cast<ThreadId>(state.threads());
    ThreadState self(kDefaultEpochConfig, tid, slots);
    self.vc.setClock(tid, 1);
    self.refreshOwnEpoch();
    constexpr std::size_t kRegion = 256 << 10;
    const Addr base = kBase + Addr{tid} * (Addr{1} << 21);
    // Threads only synchronise at the state loop's entry barrier, so
    // nothing may touch the shared checker before it: the one-time
    // ownership pass (puts every deferred check on the all-equal scan
    // path) runs lazily on the first iteration. Overflow drains fire
    // naturally every batchBytes, so drain cost stays in the timed
    // region; the tail of the last window is deliberately left
    // undrained — a post-loop drain would race thread 0's teardown.
    bool owned = false;
    Addr a = base;
    for (auto _ : state) {
        if (CLEAN_UNLIKELY(!owned)) {
            for (Addr w = base; w < base + kRegion; w += 256)
                checker->beforeWrite(self, w, 256);
            owned = true;
        }
        checker->afterRead(self, a, 8);
        a += 8;
        if (a >= base + kRegion)
            a = base;
    }
    state.SetItemsProcessed(state.iterations());
    if (state.thread_index() == 0) {
        checker.reset();
        shadow.reset();
    }
}
BENCHMARK(BM_CheckerStreamBatch)->CLEAN_SCALE_THREADS;

// ---------------------------------------------------------------------
// Timing-model lane: cores = trace threads, swept to 64.
// ---------------------------------------------------------------------

/** Replays an N-thread blackscholes trace (embarrassingly parallel,
 *  the best-case scaling shape) on the §6.3.1 machine with the CLEAN
 *  unit on, one core per thread. Manual time = simulated time at 2
 *  GHz; items/s is the model's aggregate checked-access rate. */
void
BM_SimCheckedAccessRate(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    wl::RunSpec spec;
    spec.workload = "blackscholes";
    spec.backend = wl::BackendKind::Trace;
    spec.params.threads = threads;
    spec.params.scale = wl::Scale::Test;
    spec.params.seed = 0x5ca1e;
    spec.runtime.maxThreads = 128;
    spec.runtime.heap.sharedBytes = std::size_t{512} << 20;
    spec.runtime.heap.privateBytes = std::size_t{128} << 20;
    const wl::RunResult traced = wl::runWorkload(spec);
    sim::MachineConfig machine; // cores = 0: one per trace thread
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        const sim::MachineStats stats =
            sim::simulate(traced.trace, machine);
        accesses = stats.memoryAccesses;
        state.SetIterationTime(static_cast<double>(stats.totalCycles) /
                               2e9);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * accesses));
    state.counters["sim_cores"] =
        static_cast<double>(threads);
}
// Fixed iteration count: the simulation is deterministic (identical
// cycle counts every run), and min-time pacing on *manual* time would
// explode the wall cost exactly where simulated time shrinks — the
// high-core points this lane exists for.
BENCHMARK(BM_SimCheckedAccessRate)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->UseManualTime()
    ->Iterations(4);

} // namespace
} // namespace clean

BENCHMARK_MAIN();
