/**
 * @file
 * Clock-rollover tests (§4.5): with deliberately tiny clock widths,
 * resets must occur at deterministic points, preserve the detection
 * guarantees within phases, and keep results deterministic.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/clean.h"

namespace clean
{
namespace
{

RuntimeConfig
tinyClockConfig(unsigned clockBits = 8)
{
    RuntimeConfig config;
    config.checker.epoch = EpochConfig{clockBits, 8};
    config.maxThreads = 16;
    config.heap.sharedBytes = std::size_t{64} << 20;
    config.heap.privateBytes = std::size_t{16} << 20;
    return config;
}

/** Lock-heavy kernel: every critical section ticks the holder's clock,
 *  so an 8-bit clock forces many rollovers. */
int
runLockHeavy(CleanRuntime &rt, int iterations)
{
    auto *x = rt.heap().allocSharedArray<int>(1);
    CleanMutex m(rt);
    std::vector<ThreadHandle> handles;
    for (int t = 0; t < 4; ++t) {
        handles.push_back(
            rt.spawn(rt.mainContext(), [&, iterations](ThreadContext &ctx) {
                for (int i = 0; i < iterations; ++i) {
                    m.lock(ctx);
                    ctx.write(&x[0], ctx.read(&x[0]) + 1);
                    m.unlock(ctx);
                }
            }));
    }
    for (auto &h : handles)
        rt.join(rt.mainContext(), h);
    return rt.mainContext().read(&x[0]);
}

TEST(Rollover, TinyClocksTriggerResets)
{
    CleanRuntime rt(tinyClockConfig());
    const int result = runLockHeavy(rt, 300);
    EXPECT_FALSE(rt.raceOccurred());
    EXPECT_EQ(result, 1200);
    EXPECT_GT(rt.rolloverResets(), 0u);
}

TEST(Rollover, WideClocksAvoidResets)
{
    CleanRuntime rt(tinyClockConfig(23));
    const int result = runLockHeavy(rt, 300);
    EXPECT_FALSE(rt.raceOccurred());
    EXPECT_EQ(result, 1200);
    EXPECT_EQ(rt.rolloverResets(), 0u);
}

TEST(Rollover, NoFalseRacesAcrossManyResets)
{
    CleanRuntime rt(tinyClockConfig(6));
    const int result = runLockHeavy(rt, 400);
    EXPECT_FALSE(rt.raceOccurred());
    EXPECT_EQ(result, 1600);
    EXPECT_GT(rt.rolloverResets(), 2u);
}

TEST(Rollover, RacesStillDetectedAfterReset)
{
    CleanRuntime rt(tinyClockConfig());
    auto *x = rt.heap().allocSharedArray<int>(2);
    CleanMutex m(rt);
    // Phase 1: force at least one reset with lock traffic.
    auto warm = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 400; ++i) {
            m.lock(ctx);
            ctx.write(&x[0], i);
            m.unlock(ctx);
        }
    });
    rt.join(rt.mainContext(), warm);
    ASSERT_GT(rt.rolloverResets(), 0u);
    // Phase 2: an honest WAW race must still throw post-reset.
    auto racer1 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 100000; ++i)
            ctx.write(&x[1], i);
    });
    auto racer2 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
        for (int i = 0; i < 100000; ++i)
            ctx.write(&x[1], -i);
    });
    rt.join(rt.mainContext(), racer1);
    rt.join(rt.mainContext(), racer2);
    EXPECT_TRUE(rt.raceOccurred());
}

TEST(Rollover, BarrierWaitersSurviveResets)
{
    CleanRuntime rt(tinyClockConfig());
    const unsigned n = 4;
    auto *x = rt.heap().allocSharedArray<int>(n);
    CleanBarrier barrier(rt, n);
    CleanMutex m(rt);
    auto *acc = rt.heap().allocSharedArray<int>(1);
    std::vector<ThreadHandle> handles;
    for (unsigned t = 0; t < n; ++t) {
        handles.push_back(
            rt.spawn(rt.mainContext(), [&, t](ThreadContext &ctx) {
                for (int g = 0; g < 80; ++g) {
                    ctx.write(&x[t], g);
                    // Uneven lock traffic drives the clocks apart and
                    // across the rollover threshold while others may be
                    // parked in the barrier.
                    for (unsigned k = 0; k <= t; ++k) {
                        m.lock(ctx);
                        ctx.write(&acc[0], ctx.read(&acc[0]) + 1);
                        m.unlock(ctx);
                    }
                    barrier.arrive(ctx);
                }
            }));
    }
    for (auto &h : handles)
        rt.join(rt.mainContext(), h);
    EXPECT_FALSE(rt.raceOccurred());
    EXPECT_GT(rt.rolloverResets(), 0u);
}

TEST(Rollover, ResultsDeterministicDespiteResets)
{
    auto runOnce = [] {
        CleanRuntime rt(tinyClockConfig(7));
        auto *order = rt.heap().allocSharedArray<int>(2048);
        auto *cursor = rt.heap().allocSharedArray<int>(1);
        CleanMutex m(rt);
        std::vector<ThreadHandle> handles;
        for (int t = 0; t < 4; ++t) {
            handles.push_back(
                rt.spawn(rt.mainContext(), [&, t](ThreadContext &ctx) {
                    for (int i = 0; i < 120; ++i) {
                        m.lock(ctx);
                        const int at = ctx.read(&cursor[0]);
                        ctx.write(&order[at], t);
                        ctx.write(&cursor[0], at + 1);
                        m.unlock(ctx);
                        ctx.detTick(static_cast<std::uint64_t>(t) * 3 +
                                    1);
                    }
                }));
        }
        for (auto &h : handles)
            rt.join(rt.mainContext(), h);
        EXPECT_FALSE(rt.raceOccurred());
        EXPECT_GT(rt.rolloverResets(), 0u);
        std::vector<int> result;
        for (int i = 0; i < 480; ++i)
            result.push_back(rt.mainContext().read(&order[i]));
        return result;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Rollover, ControllerStandaloneProtocol)
{
    struct Host : RolloverHost
    {
        bool allOthersQuiescent(ThreadId) override { return true; }
        void performReset() override { ++resets; }
        int resets = 0;
    };
    Host host;
    RolloverController controller(host);
    EXPECT_FALSE(controller.pending());
    controller.parkAndMaybeReset(0); // no-op when not pending
    EXPECT_EQ(host.resets, 0);
    controller.request();
    EXPECT_TRUE(controller.pending());
    controller.parkAndMaybeReset(0);
    EXPECT_FALSE(controller.pending());
    EXPECT_EQ(host.resets, 1);
    EXPECT_EQ(controller.resets(), 1u);
}

} // namespace
} // namespace clean
