/**
 * @file
 * RaceChecker tests: the heart of CLEAN (§3.2, §4.3, §4.4).
 *
 * Covers: WAW/RAW detection, WAR non-detection (by design),
 * happens-before suppression, vectorized/byte-path equivalence,
 * CAS-based atomicity under real concurrency, and the Locked ablation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <thread>
#include <vector>

#include "core/linear_shadow.h"
#include "core/race_check.h"
#include "core/sparse_shadow.h"
#include "core/thread_state.h"
#include "support/prng.h"

namespace clean
{
namespace
{

constexpr Addr kBase = 0x40000000;
constexpr std::size_t kSpan = 1 << 20;
constexpr ThreadId kSlots = 8;

/** Test harness: a checker over a LinearShadow plus N thread states. */
class RaceCheckTest : public ::testing::Test
{
  protected:
    RaceCheckTest() : shadow_(kBase, kSpan) { reset(); }

    void
    reset(CheckerConfig config = {})
    {
        shadow_.reset();
        checker_ =
            std::make_unique<RaceChecker<LinearShadow>>(config, shadow_);
        threads_.clear();
        for (ThreadId t = 0; t < kSlots; ++t) {
            threads_.emplace_back(config.epoch, t, kSlots);
            threads_[t].vc.setClock(t, 1);
            threads_[t].refreshOwnEpoch();
        }
    }

    /** Models a release->acquire edge from a to b. */
    void
    syncEdge(ThreadId from, ThreadId to)
    {
        threads_[to].vc.joinFrom(threads_[from].vc);
        threads_[from].vc.tick(from);
        threads_[from].refreshOwnEpoch();
        threads_[to].refreshOwnEpoch();
    }

    void
    write(ThreadId t, Addr addr, std::size_t n)
    {
        checker_->beforeWrite(threads_[t], addr, n);
    }

    void
    read(ThreadId t, Addr addr, std::size_t n)
    {
        checker_->afterRead(threads_[t], addr, n);
    }

    LinearShadow shadow_;
    std::unique_ptr<RaceChecker<LinearShadow>> checker_;
    std::deque<ThreadState> threads_;
};

TEST_F(RaceCheckTest, FirstWriteIsRaceFree)
{
    EXPECT_NO_THROW(write(0, kBase, 4));
}

TEST_F(RaceCheckTest, ReadOfUntouchedDataIsRaceFree)
{
    EXPECT_NO_THROW(read(3, kBase + 100, 8));
}

TEST_F(RaceCheckTest, SameThreadWriteWriteIsRaceFree)
{
    write(0, kBase, 4);
    EXPECT_NO_THROW(write(0, kBase, 4));
}

TEST_F(RaceCheckTest, SameThreadReadAfterWriteIsRaceFree)
{
    write(0, kBase, 4);
    EXPECT_NO_THROW(read(0, kBase, 4));
}

TEST_F(RaceCheckTest, UnorderedWriteWriteIsWaw)
{
    write(0, kBase, 4);
    try {
        write(1, kBase, 4);
        FAIL() << "expected WAW";
    } catch (const RaceException &e) {
        EXPECT_EQ(e.kind(), RaceKind::Waw);
        EXPECT_EQ(e.accessor(), 1u);
        EXPECT_EQ(e.previousWriter(), 0u);
    }
}

TEST_F(RaceCheckTest, UnorderedReadAfterWriteIsRaw)
{
    write(0, kBase + 8, 4);
    try {
        read(1, kBase + 8, 4);
        FAIL() << "expected RAW";
    } catch (const RaceException &e) {
        EXPECT_EQ(e.kind(), RaceKind::Raw);
    }
}

TEST_F(RaceCheckTest, WarIsNotDetectedByDesign)
{
    // Thread 1 reads, then thread 0 writes with no ordering: a WAR race
    // a full detector reports, and CLEAN deliberately does not (§3.2).
    read(1, kBase, 4);
    EXPECT_NO_THROW(write(0, kBase, 4));
}

TEST_F(RaceCheckTest, SyncOrderedWriteWriteIsRaceFree)
{
    write(0, kBase, 4);
    syncEdge(0, 1);
    EXPECT_NO_THROW(write(1, kBase, 4));
}

TEST_F(RaceCheckTest, SyncOrderedReadIsRaceFree)
{
    write(0, kBase, 4);
    syncEdge(0, 1);
    EXPECT_NO_THROW(read(1, kBase, 4));
}

TEST_F(RaceCheckTest, TransitiveHappensBeforeIsRespected)
{
    write(0, kBase, 4);
    syncEdge(0, 1);
    syncEdge(1, 2);
    EXPECT_NO_THROW(write(2, kBase, 4));
    EXPECT_NO_THROW(read(2, kBase, 4));
}

TEST_F(RaceCheckTest, StaleViewStillRaces)
{
    write(0, kBase, 4);
    syncEdge(0, 1);
    write(1, kBase, 4); // ok, ordered
    // Thread 2 never synchronized: racing with thread 1's write.
    EXPECT_THROW(read(2, kBase, 4), RaceException);
}

TEST_F(RaceCheckTest, RaceReportsOffendingAddress)
{
    write(0, kBase + 40, 1);
    try {
        write(1, kBase + 40, 1);
        FAIL();
    } catch (const RaceException &e) {
        EXPECT_EQ(e.addr(), kBase + 40);
    }
}

TEST_F(RaceCheckTest, PartialOverlapRaces)
{
    write(0, kBase + 4, 8);
    // Overlaps the last 4 bytes only.
    EXPECT_THROW(write(1, kBase + 8, 8), RaceException);
}

TEST_F(RaceCheckTest, DisjointWritesDoNotRace)
{
    write(0, kBase, 8);
    EXPECT_NO_THROW(write(1, kBase + 8, 8));
}

TEST_F(RaceCheckTest, SingleByteGranularityIsExact)
{
    write(0, kBase + 3, 1);
    EXPECT_NO_THROW(write(1, kBase + 2, 1)); // adjacent byte: no race
    EXPECT_THROW(write(1, kBase + 3, 1), RaceException);
}

TEST_F(RaceCheckTest, EpochNotUpdatedOnRead)
{
    write(0, kBase, 4);
    syncEdge(0, 1);
    read(1, kBase, 4);
    // If the read had published thread 1's epoch, this same-epoch write
    // by thread 0 (not synchronized with 1's "read") would now race.
    syncEdge(0, 2);
    EXPECT_NO_THROW(read(2, kBase, 4));
}

TEST_F(RaceCheckTest, WriteAfterRolloverStyleResetIsFresh)
{
    write(0, kBase, 4);
    shadow_.reset();
    threads_[1].vc.clearClocks();
    threads_[1].vc.setClock(1, 1);
    threads_[1].refreshOwnEpoch();
    EXPECT_NO_THROW(write(1, kBase, 4));
}

TEST_F(RaceCheckTest, StatsCountAccessesAndWidths)
{
    write(0, kBase, 8);
    read(0, kBase, 8);
    read(0, kBase + 100, 2);
    const CheckerStats &stats = threads_[0].stats;
    EXPECT_EQ(stats.sharedWrites, 1u);
    EXPECT_EQ(stats.sharedReads, 2u);
    EXPECT_EQ(stats.accessedBytes, 18u);
    EXPECT_EQ(stats.wideAccesses, 2u);
}

TEST_F(RaceCheckTest, SameEpochWideFastPathCounts)
{
    write(0, kBase, 8);
    read(0, kBase, 8); // all 8 epochs equal -> wideSameEpoch
    EXPECT_GE(threads_[0].stats.wideSameEpoch, 1u);
}

TEST_F(RaceCheckTest, WideCasUpdatesUsed)
{
    write(0, kBase, 16); // 4-aligned, 16 bytes: 128-bit CAS path
    EXPECT_GE(threads_[0].stats.wideCasUpdates, 1u);
}

TEST_F(RaceCheckTest, UnalignedWritesStillCorrect)
{
    write(0, kBase + 1, 7);
    syncEdge(0, 1);
    EXPECT_NO_THROW(write(1, kBase + 1, 7));
    EXPECT_THROW(write(2, kBase + 3, 2), RaceException);
}

TEST_F(RaceCheckTest, MixedEpochWideAccessFallsBackToBytes)
{
    write(0, kBase, 2);
    syncEdge(0, 1);
    write(1, kBase + 2, 2); // epochs now differ within the 4-byte word
    syncEdge(1, 2);
    EXPECT_NO_THROW(read(2, kBase, 4));
    // And an unordered thread still races on either half.
    EXPECT_THROW(read(3, kBase, 4), RaceException);
}

TEST_F(RaceCheckTest, VectorizedOffMatchesOn)
{
    // Same scenario with vectorization disabled must detect the same
    // races.
    CheckerConfig config;
    config.vectorized = false;
    reset(config);
    write(0, kBase, 8);
    EXPECT_THROW(write(1, kBase, 8), RaceException);
    reset(config);
    write(0, kBase, 8);
    syncEdge(0, 1);
    EXPECT_NO_THROW(write(1, kBase, 8));
}

TEST_F(RaceCheckTest, LockedAtomicityModeDetectsSameRaces)
{
    CheckerConfig config;
    config.atomicity = AtomicityMode::Locked;
    reset(config);
    write(0, kBase, 8);
    EXPECT_THROW(write(1, kBase, 8), RaceException);
    reset(config);
    write(0, kBase, 8);
    syncEdge(0, 1);
    EXPECT_NO_THROW(write(1, kBase, 8));
    EXPECT_NO_THROW(read(1, kBase, 8));
}

TEST_F(RaceCheckTest, ThrowingWriteDoesNotCorruptMetadataForOthers)
{
    write(0, kBase, 4);
    EXPECT_THROW(write(1, kBase, 4), RaceException);
    // Thread 0 can continue on its own data (abort handling is the
    // runtime's job; the checker itself stays consistent).
    EXPECT_NO_THROW(write(0, kBase, 4));
}

/**
 * Property: vectorized and byte-by-byte checkers agree on arbitrary
 * random access patterns with happens-before edges sprinkled in.
 */
class VectorizedEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(VectorizedEquivalence, SameOutcomeOnRandomPrograms)
{
    const unsigned seed = GetParam();
    for (int vectorized = 0; vectorized < 2; ++vectorized) {
        // Two identical runs, only the vectorization flag differs; the
        // first exception (if any) must occur at the same step.
        static int firstFailStep[2];
        LinearShadow shadow(kBase, 1 << 16);
        CheckerConfig config;
        config.vectorized = vectorized == 1;
        RaceChecker<LinearShadow> checker(config, shadow);
        std::deque<ThreadState> threads;
        for (ThreadId t = 0; t < 4; ++t) {
            threads.emplace_back(config.epoch, t, 4);
            threads[t].vc.setClock(t, 1);
            threads[t].refreshOwnEpoch();
        }
        Prng rng(seed);
        int failAt = -1;
        for (int step = 0; step < 400; ++step) {
            const ThreadId t = rng.nextBelow(4);
            const Addr addr = kBase + rng.nextBelow(64);
            const std::size_t size = 1 + rng.nextBelow(16);
            const int op = static_cast<int>(rng.nextBelow(10));
            try {
                if (op < 4) {
                    checker.beforeWrite(threads[t], addr, size);
                } else if (op < 8) {
                    checker.afterRead(threads[t], addr, size);
                } else {
                    const ThreadId u = rng.nextBelow(4);
                    if (u != t) {
                        threads[u].vc.joinFrom(threads[t].vc);
                        threads[t].vc.tick(t);
                        threads[t].refreshOwnEpoch();
                    }
                }
            } catch (const RaceException &) {
                failAt = step;
                break;
            }
        }
        firstFailStep[vectorized] = failAt;
        if (vectorized == 1) {
            EXPECT_EQ(firstFailStep[0], firstFailStep[1])
                << "vectorization changed detection (seed " << seed
                << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedEquivalence,
                         ::testing::Range(0u, 24u));

/** Concurrency: two threads hammer one word; exactly the §4.3 outcome —
 *  either a WAW exception in at least one thread, never a silent torn
 *  metadata state. */
TEST(RaceCheckConcurrency, ConcurrentConflictingWritesRaiseWaw)
{
    for (int round = 0; round < 20; ++round) {
        LinearShadow shadow(kBase, 4096);
        CheckerConfig config;
        RaceChecker<LinearShadow> checker(config, shadow);
        ThreadState a(config.epoch, 0, 2), b(config.epoch, 1, 2);
        a.vc.setClock(0, 1);
        b.vc.setClock(1, 1);
        a.refreshOwnEpoch();
        b.refreshOwnEpoch();

        std::atomic<int> exceptions{0};
        auto body = [&](ThreadState *ts) {
            try {
                for (int i = 0; i < 50; ++i)
                    checker.beforeWrite(*ts, kBase + (i % 8), 4);
            } catch (const RaceException &e) {
                EXPECT_EQ(e.kind(), RaceKind::Waw);
                exceptions.fetch_add(1);
            }
        };
        std::thread t1(body, &a), t2(body, &b);
        t1.join();
        t2.join();
        // Both threads write the same unsynchronized bytes: at least
        // one must observe the WAW.
        EXPECT_GE(exceptions.load(), 1);
    }
}

/** Concurrent readers of one writer's published data never misfire. */
TEST(RaceCheckConcurrency, OrderedReadersNeverFalsePositive)
{
    LinearShadow shadow(kBase, 4096);
    CheckerConfig config;
    RaceChecker<LinearShadow> checker(config, shadow);
    ThreadState writer(config.epoch, 0, 4);
    writer.vc.setClock(0, 1);
    writer.refreshOwnEpoch();
    checker.beforeWrite(writer, kBase, 64);

    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (ThreadId t = 1; t < 4; ++t) {
        readers.emplace_back([&, t] {
            ThreadState ts(config.epoch, t, 4);
            ts.vc.setClock(t, 1);
            ts.vc.joinFrom(writer.vc); // acquired the writer's clock
            ts.refreshOwnEpoch();
            try {
                for (int i = 0; i < 1000; ++i)
                    checker.afterRead(ts, kBase + (i % 64), 1);
            } catch (const RaceException &) {
                failures.fetch_add(1);
            }
        });
    }
    for (auto &r : readers)
        r.join();
    EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------
// Word-granularity mode (§3.2's type-safe specialization)
// ---------------------------------------------------------------------

TEST_F(RaceCheckTest, WordGranularityDetectsWordRaces)
{
    CheckerConfig config;
    config.granuleLog2 = 2;
    reset(config);
    write(0, kBase, 4);
    EXPECT_THROW(write(1, kBase, 4), RaceException);
}

TEST_F(RaceCheckTest, WordGranularitySyncOrderedIsClean)
{
    CheckerConfig config;
    config.granuleLog2 = 2;
    reset(config);
    write(0, kBase, 8);
    syncEdge(0, 1);
    EXPECT_NO_THROW(write(1, kBase, 8));
    EXPECT_NO_THROW(read(1, kBase, 8));
}

TEST_F(RaceCheckTest, WordGranularityConflatesSubWordBytes)
{
    // The documented imprecision: distinct bytes of one 4-byte word are
    // indistinguishable, so this (byte-disjoint, race-free for C/C++)
    // schedule is reported — the reason the paper checks per byte.
    CheckerConfig config;
    config.granuleLog2 = 2;
    reset(config);
    write(0, kBase + 0, 1);
    EXPECT_THROW(write(1, kBase + 2, 1), RaceException);
    // Byte granularity accepts the same schedule.
    reset();
    write(0, kBase + 0, 1);
    EXPECT_NO_THROW(write(1, kBase + 2, 1));
}

TEST_F(RaceCheckTest, WordGranularityDistinctWordsStayIndependent)
{
    CheckerConfig config;
    config.granuleLog2 = 2;
    reset(config);
    write(0, kBase, 4);
    EXPECT_NO_THROW(write(1, kBase + 4, 4));
}

TEST_F(RaceCheckTest, WordGranularityUsesQuarterTheChecks)
{
    CheckerConfig config;
    config.granuleLog2 = 2;
    reset(config);
    // A 16-byte write touches 4 granules; one epoch per granule is
    // published (at each granule's base-byte slot), and only 4 updates
    // happen instead of 16.
    write(0, kBase, 16);
    EXPECT_EQ(threads_[0].stats.epochUpdates, 4u);
    EXPECT_EQ(*shadow_.slots(kBase), threads_[0].ownEpoch);
    EXPECT_EQ(*shadow_.slots(kBase + 12), threads_[0].ownEpoch);
    // Non-base-byte slots stay untouched.
    EXPECT_EQ(*shadow_.slots(kBase + 1), 0u);
}

TEST_F(RaceCheckTest, WordGranularityUnalignedAccessCoversBothWords)
{
    CheckerConfig config;
    config.granuleLog2 = 2;
    reset(config);
    write(0, kBase + 2, 4); // straddles two words
    EXPECT_THROW(read(1, kBase + 0, 1), RaceException);
    reset(config);
    write(0, kBase + 2, 4);
    EXPECT_THROW(read(1, kBase + 7, 1), RaceException);
}

/** SparseShadow behaves identically for the core scenarios. */
TEST(RaceCheckSparse, DetectsWawAndRawAllowsWar)
{
    SparseShadow shadow;
    CheckerConfig config;
    RaceChecker<SparseShadow> checker(config, shadow);
    std::deque<ThreadState> threads;
    for (ThreadId t = 0; t < 2; ++t) {
        threads.emplace_back(config.epoch, t, 2);
        threads[t].vc.setClock(t, 1);
        threads[t].refreshOwnEpoch();
    }
    checker.afterRead(threads[1], 0x5000, 4); // later WAR: allowed
    checker.beforeWrite(threads[0], 0x5000, 4);
    EXPECT_THROW(checker.beforeWrite(threads[1], 0x5000, 4),
                 RaceException);
}

TEST(RaceCheckSparse, ChunkBoundarySpanningAccess)
{
    SparseShadow shadow;
    CheckerConfig config;
    RaceChecker<SparseShadow> checker(config, shadow);
    ThreadState a(config.epoch, 0, 2), b(config.epoch, 1, 2);
    a.vc.setClock(0, 1);
    b.vc.setClock(1, 1);
    a.refreshOwnEpoch();
    b.refreshOwnEpoch();
    const Addr boundary = SparseShadow::kChunkBytes - 4;
    checker.beforeWrite(a, boundary, 8); // spans two chunks
    EXPECT_THROW(checker.afterRead(b, boundary + 6, 1), RaceException);
}

} // namespace
} // namespace clean
