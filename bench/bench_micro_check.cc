/**
 * @file
 * Microbenchmarks of the race-check hot path (google-benchmark).
 *
 * Latency of the §3.2/§4.3/§4.4 building blocks: read checks, write
 * checks with and without epoch publication, vectorized vs per-byte
 * multi-byte checks, Linear vs Sparse shadow addressing, and CAS vs
 * locked atomicity — the per-access costs behind Figure 6's 5.8x.
 */

#include <benchmark/benchmark.h>

#include "core/linear_shadow.h"
#include "core/race_check.h"
#include "core/sampling.h"
#include "core/sparse_shadow.h"
#include "core/thread_state.h"

namespace clean
{
namespace
{

constexpr Addr kBase = 0x100000000;
constexpr std::size_t kSpan = 1 << 22;

struct Fixture
{
    explicit Fixture(CheckerConfig config = {}, bool sampling = false)
        : shadow(kBase, kSpan), checker(config, shadow, sampling),
          self(config.epoch, 0, 8), other(config.epoch, 1, 8)
    {
        self.vc.setClock(0, 1);
        self.refreshOwnEpoch();
        other.vc.setClock(1, 1);
        other.refreshOwnEpoch();
    }

    LinearShadow shadow;
    RaceChecker<LinearShadow> checker;
    ThreadState self, other;
};

void
BM_ReadCheckSameEpoch8B(benchmark::State &state)
{
    Fixture f;
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.afterRead(f.self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckSameEpoch8B);

/** PR 2 same-epoch fast path with the ownership cache ablated — the
 *  reference the owned-line hit path is measured against. */
void
BM_ReadCheckSameEpoch8B_NoOwnCache(benchmark::State &state)
{
    CheckerConfig config;
    config.ownCache = false;
    Fixture f(config);
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.afterRead(f.self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckSameEpoch8B_NoOwnCache);

void
BM_ReadCheckSameEpoch8B_NoVec(benchmark::State &state)
{
    CheckerConfig config;
    config.vectorized = false;
    Fixture f(config);
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.afterRead(f.self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckSameEpoch8B_NoVec);

void
BM_ReadCheckSameEpoch8B_NoFastPath(benchmark::State &state)
{
    CheckerConfig config;
    config.fastPath = false;
    Fixture f(config);
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.afterRead(f.self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckSameEpoch8B_NoFastPath);

void
BM_WriteCheckSameEpoch8B(benchmark::State &state)
{
    Fixture f;
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.beforeWrite(f.self, kBase, 8); // same epoch: no CAS
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteCheckSameEpoch8B);

void
BM_WriteCheckSameEpoch8B_NoOwnCache(benchmark::State &state)
{
    CheckerConfig config;
    config.ownCache = false;
    Fixture f(config);
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.beforeWrite(f.self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteCheckSameEpoch8B_NoOwnCache);

/**
 * Ownership-cache miss path: alternate between two lines 32 KiB apart,
 * which collide in the 512-entry direct-mapped cache, so every access
 * misses (and re-claims, evicting the other line). Measures the cache's
 * added cost on top of the PR 2 fast path when it never hits.
 */
void
BM_ReadCheckOwnedMiss8B(benchmark::State &state)
{
    Fixture f;
    constexpr Addr kConflict = OwnershipCache::kEntries *
                               OwnershipCache::kLineBytes;
    f.checker.beforeWrite(f.self, kBase, 64);
    f.checker.beforeWrite(f.self, kBase + kConflict, 64);
    Addr a = kBase;
    for (auto _ : state) {
        f.checker.afterRead(f.self, a, 8);
        a ^= kConflict;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckOwnedMiss8B);

/**
 * Flush storm: every iteration flushes the whole cache (the O(1)
 * generation bump refreshOwnEpoch performs at an SFR boundary) and then
 * re-claims the line via the fast-path write. Bounds the per-boundary
 * cost of the cache for sync-heavy programs.
 */
void
BM_WriteCheckFlushStorm8B(benchmark::State &state)
{
    Fixture f;
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state) {
        f.self.ownCache.flush(f.self.stats);
        f.checker.beforeWrite(f.self, kBase, 8);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteCheckFlushStorm8B);

void
BM_WriteCheckSameEpoch8B_NoFastPath(benchmark::State &state)
{
    CheckerConfig config;
    config.fastPath = false;
    Fixture f(config);
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.beforeWrite(f.self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteCheckSameEpoch8B_NoFastPath);

/** The wide same-epoch case the SIMD scan targets (a full cache line). */
void
BM_WriteCheckSameEpoch64B(benchmark::State &state)
{
    Fixture f;
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.beforeWrite(f.self, kBase, 64);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteCheckSameEpoch64B);

void
BM_WriteCheckSameEpoch64B_NoFastPath(benchmark::State &state)
{
    CheckerConfig config;
    config.fastPath = false;
    Fixture f(config);
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.beforeWrite(f.self, kBase, 64);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteCheckSameEpoch64B_NoFastPath);

void
BM_WritePublish8B(benchmark::State &state)
{
    // Alternate epochs so every write publishes (wide CAS each time).
    Fixture f;
    for (auto _ : state) {
        f.checker.beforeWrite(f.self, kBase, 8);
        f.self.vc.tick(0);
        f.self.refreshOwnEpoch();
        if (f.self.vc.clockOf(0) > 4000000) {
            state.PauseTiming();
            f.self.vc.setClock(0, 1);
            f.self.refreshOwnEpoch();
            f.shadow.reset();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WritePublish8B);

void
BM_WriteCheckWidthSweep(benchmark::State &state)
{
    Fixture f;
    const std::size_t width = static_cast<std::size_t>(state.range(0));
    f.checker.beforeWrite(f.self, kBase, 256);
    for (auto _ : state)
        f.checker.beforeWrite(f.self, kBase, width);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * width));
}
BENCHMARK(BM_WriteCheckWidthSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->
    Arg(16)->Arg(32)->Arg(64);

void
BM_LockedAtomicityWrite8B(benchmark::State &state)
{
    CheckerConfig config;
    config.atomicity = AtomicityMode::Locked;
    Fixture f(config);
    f.checker.beforeWrite(f.self, kBase, 64);
    for (auto _ : state)
        f.checker.beforeWrite(f.self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockedAtomicityWrite8B);

void
BM_SparseShadowRead8B(benchmark::State &state)
{
    SparseShadow shadow;
    CheckerConfig config;
    RaceChecker<SparseShadow> checker(config, shadow);
    ThreadState self(config.epoch, 0, 8);
    self.vc.setClock(0, 1);
    self.refreshOwnEpoch();
    checker.beforeWrite(self, kBase, 64);
    for (auto _ : state)
        checker.afterRead(self, kBase, 8);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparseShadowRead8B);

void
BM_ReadCheckStriding(benchmark::State &state)
{
    // Cache-hostile: walk a large region so the shadow misses too.
    Fixture f;
    for (Addr a = kBase; a < kBase + kSpan; a += 64)
        f.checker.beforeWrite(f.self, a, 8);
    Addr a = kBase;
    for (auto _ : state) {
        f.checker.afterRead(f.self, a, 8);
        a += 4096;
        if (a >= kBase + kSpan)
            a = kBase;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckStriding);

/** The same cache-hostile stride with batched read checking (the
 *  runtime default): every access opens a fresh run, so this is the
 *  batching ablation's worst case in this file — bench_batch has the
 *  streaming lanes where batching wins. */
void
BM_ReadCheckStriding_Batch(benchmark::State &state)
{
    CheckerConfig config;
    config.batch = true;
    Fixture f(config);
    for (Addr a = kBase; a < kBase + kSpan; a += 64)
        f.checker.beforeWrite(f.self, a, 8);
    Addr a = kBase;
    for (auto _ : state) {
        f.checker.afterRead(f.self, a, 8);
        a += 4096;
        if (a >= kBase + kSpan)
            a = kBase;
    }
    f.checker.drainBatch(f.self);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckStriding_Batch);

/** Streaming reads with batched checking, the shape bench_batch
 *  measures in detail — kept here too so one binary shows the
 *  stride/stream contrast under identical build flags. */
void
BM_ReadCheckStreaming_Batch(benchmark::State &state)
{
    CheckerConfig config;
    config.batch = true;
    Fixture f(config);
    constexpr std::size_t kRegion = 256 << 10;
    for (Addr a = kBase; a < kBase + kRegion; a += 64)
        f.checker.beforeWrite(f.self, a, 64);
    Addr a = kBase;
    for (auto _ : state) {
        f.checker.afterRead(f.self, a, 8);
        a += 8;
        if (a >= kBase + kRegion)
            a = kBase;
    }
    f.checker.drainBatch(f.self);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadCheckStreaming_Batch);

// ---------------------------------------------------------------------
// Sampling-tier SLO lanes (--overhead-budget, DESIGN.md §15).
//
// Each lane interleaves one shared 8-byte read with a fixed slug of
// private work (the shim only instruments shared accesses; real kernels
// do tens of ns of uninstrumented work per shared read). Overhead is
// measured the way the governor defines it: against the *floor* lane,
// which runs the identical loop with the gate live but every read shed
// (the calibration-SFR denominator), so the ratio isolates exactly the
// controllable cost the budget contract governs.
//
// The Budget10 lanes pin the admission level a 10% governor converges
// to on each shape — level 8 (≈10% admitted) on the cache-resident
// stream, level 16 (≈1% admitted) on the conflict-heavy stride, where
// each admitted check walks cold shadow and costs proportionally more.
// check_perf.py's slo gate asserts Budget10 ≤ 1.12 × Floor per shape
// on top of the usual regression check.
// ---------------------------------------------------------------------

/** Private-work slug: ~16 dependent ops per shared read. */
struct AppSlug
{
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;

    void
    step()
    {
        for (int i = 0; i < 4; ++i) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
        }
        benchmark::DoNotOptimize(state);
    }
};

SampleParams
sloParams(std::uint32_t level)
{
    SampleParams params;
    // One giant window: every region decides once, then the memo table
    // hits forever — the steady-state Bernoulli regime, with no
    // consecutive-window backoff or quarantine churn perturbing the
    // measured admission rate.
    params.windowLog2 = 30;
    params.burstWindows = 0;
    params.initialLevel = level;
    params.base = kBase;
    return params;
}

/** Cache-resident streaming reads over 256 KiB, batched checking. */
template <bool kDetector>
void
sloStreamLoop(benchmark::State &state, std::uint32_t level)
{
    CheckerConfig config;
    config.batch = true;
    Fixture f(config, kDetector);
    if (kDetector)
        f.self.sample.configure(sloParams(level));
    constexpr std::size_t kRegion = 256 << 10;
    for (Addr a = kBase; a < kBase + kRegion; a += 64)
        f.checker.beforeWrite(f.self, a, 64);
    AppSlug app;
    Addr a = kBase;
    for (auto _ : state) {
        app.step();
        if (kDetector)
            f.checker.afterRead(f.self, a, 8);
        a += 8;
        if (a >= kBase + kRegion)
            a = kBase;
    }
    if (kDetector)
        f.checker.drainBatch(f.self);
    state.SetItemsProcessed(state.iterations());
}

void
BM_SloStreamRead8B_NoDetector(benchmark::State &state)
{
    sloStreamLoop<false>(state, 0);
}
BENCHMARK(BM_SloStreamRead8B_NoDetector);

void
BM_SloStreamRead8B_Floor(benchmark::State &state)
{
    sloStreamLoop<true>(state, SampleGate::kMaxLevel);
}
BENCHMARK(BM_SloStreamRead8B_Floor);

void
BM_SloStreamRead8B_Budget10(benchmark::State &state)
{
    sloStreamLoop<true>(state, 8); // 0.75^8 ≈ 10% of regions admitted
}
BENCHMARK(BM_SloStreamRead8B_Budget10);

void
BM_SloStreamRead8B_Full(benchmark::State &state)
{
    sloStreamLoop<true>(state, 0);
}
BENCHMARK(BM_SloStreamRead8B_Full);

/** Conflict-heavy reads: 4 KiB stride over 4 MiB, so the shadow walk
 *  misses cache and every batched access opens a fresh run. */
template <bool kDetector>
void
sloStrideLoop(benchmark::State &state, std::uint32_t level)
{
    CheckerConfig config;
    config.batch = true;
    Fixture f(config, kDetector);
    if (kDetector)
        f.self.sample.configure(sloParams(level));
    for (Addr a = kBase; a < kBase + kSpan; a += 64)
        f.checker.beforeWrite(f.self, a, 8);
    AppSlug app;
    Addr a = kBase;
    for (auto _ : state) {
        app.step();
        if (kDetector)
            f.checker.afterRead(f.self, a, 8);
        a += 4096;
        if (a >= kBase + kSpan)
            a = kBase;
    }
    if (kDetector)
        f.checker.drainBatch(f.self);
    state.SetItemsProcessed(state.iterations());
}

void
BM_SloStrideRead8B_NoDetector(benchmark::State &state)
{
    sloStrideLoop<false>(state, 0);
}
BENCHMARK(BM_SloStrideRead8B_NoDetector);

void
BM_SloStrideRead8B_Floor(benchmark::State &state)
{
    sloStrideLoop<true>(state, SampleGate::kMaxLevel);
}
BENCHMARK(BM_SloStrideRead8B_Floor);

void
BM_SloStrideRead8B_Budget10(benchmark::State &state)
{
    sloStrideLoop<true>(state, 16); // ≈1%: cold-shadow checks cost more
}
BENCHMARK(BM_SloStrideRead8B_Budget10);

void
BM_SloStrideRead8B_Full(benchmark::State &state)
{
    sloStrideLoop<true>(state, 0);
}
BENCHMARK(BM_SloStrideRead8B_Full);

} // namespace
} // namespace clean

BENCHMARK_MAIN();
