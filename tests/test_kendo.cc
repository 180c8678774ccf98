/**
 * @file
 * Kendo deterministic-synchronization tests (§2.4, §3.3).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "det/kendo.h"

namespace clean::det
{
namespace
{

TEST(Kendo, DisabledIsAlwaysYourTurn)
{
    Kendo kendo(false, 4);
    EXPECT_TRUE(kendo.tryTurn(0));
    EXPECT_TRUE(kendo.tryTurn(3));
    kendo.increment(0, 100); // no-op
    EXPECT_EQ(kendo.count(0), 0u);
}

TEST(Kendo, SingleActiveSlotAlwaysHasTurn)
{
    Kendo kendo(true, 4);
    kendo.activate(0, 0);
    EXPECT_TRUE(kendo.tryTurn(0));
    kendo.increment(0, 5);
    EXPECT_TRUE(kendo.tryTurn(0));
}

TEST(Kendo, MinimumCounterHoldsTurn)
{
    Kendo kendo(true, 4);
    kendo.activate(0, 10);
    kendo.activate(1, 5);
    EXPECT_FALSE(kendo.tryTurn(0));
    EXPECT_TRUE(kendo.tryTurn(1));
}

TEST(Kendo, TiesBreakBySmallerId)
{
    Kendo kendo(true, 4);
    kendo.activate(1, 7);
    kendo.activate(2, 7);
    EXPECT_TRUE(kendo.tryTurn(1));
    EXPECT_FALSE(kendo.tryTurn(2));
}

TEST(Kendo, IncrementPassesTurn)
{
    Kendo kendo(true, 2);
    kendo.activate(0, 0);
    kendo.activate(1, 1);
    EXPECT_TRUE(kendo.tryTurn(0));
    kendo.increment(0, 2);
    EXPECT_FALSE(kendo.tryTurn(0));
    EXPECT_TRUE(kendo.tryTurn(1));
}

TEST(Kendo, BlockedSlotsAreExcluded)
{
    Kendo kendo(true, 3);
    kendo.activate(0, 1);
    kendo.activate(1, 100);
    kendo.block(0);
    EXPECT_TRUE(kendo.tryTurn(1));
    kendo.unblock(0, 50);
    EXPECT_FALSE(kendo.tryTurn(1));
    EXPECT_EQ(kendo.count(0), 50u);
}

TEST(Kendo, FinishedSlotsAreExcluded)
{
    Kendo kendo(true, 2);
    kendo.activate(0, 1);
    kendo.activate(1, 10);
    kendo.finish(0);
    EXPECT_TRUE(kendo.tryTurn(1));
}

TEST(Kendo, UnblockNeverLowersCounter)
{
    Kendo kendo(true, 2);
    kendo.activate(0, 30);
    kendo.block(0);
    kendo.unblock(0, 10);
    EXPECT_EQ(kendo.count(0), 30u);
}

TEST(Kendo, RaiseToOnlyRaises)
{
    Kendo kendo(true, 2);
    kendo.activate(0, 5);
    kendo.raiseTo(0, 9);
    EXPECT_EQ(kendo.count(0), 9u);
    kendo.raiseTo(0, 3);
    EXPECT_EQ(kendo.count(0), 9u);
}

TEST(Kendo, ActivateResumesAtLeastAtStoredCount)
{
    Kendo kendo(true, 2);
    kendo.activate(0, 5);
    kendo.finish(0);
    // Reused slot with a smaller start must keep monotonic time.
    kendo.activate(0, 2);
    EXPECT_EQ(kendo.count(0), 5u);
}

TEST(Kendo, WaitForTurnBlocksUntilPeerAdvances)
{
    Kendo kendo(true, 2);
    kendo.activate(0, 0);
    kendo.activate(1, 1);
    std::atomic<bool> got{false};
    std::thread waiter([&] {
        kendo.waitForTurn(1);
        got.store(true);
    });
    // Slot 1 cannot have the turn while slot 0 sits at 0.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(got.load());
    kendo.increment(0, 5);
    waiter.join();
    EXPECT_TRUE(got.load());
}

TEST(Kendo, MutualExclusionOfTurns)
{
    // Counter-based critical section: only the turn holder increments,
    // so the shared value must never tear.
    Kendo kendo(true, 4);
    for (ThreadId t = 0; t < 4; ++t)
        kendo.activate(t, t);
    std::atomic<int> inside{0};
    std::atomic<int> violations{0};
    std::vector<std::thread> threads;
    for (ThreadId t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i) {
                kendo.waitForTurn(t);
                if (inside.fetch_add(1) != 0)
                    violations.fetch_add(1);
                inside.fetch_sub(1);
                kendo.increment(t, 4);
            }
            kendo.finish(t);
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(violations.load(), 0);
}

TEST(Kendo, NoTurnIsGrantedAcrossReadmission)
{
    // The re-admission window of tryTurn (see kendo.h): the scanner S
    // reads the sleeper Z (slot 0) as Blocked, the waker W (last slot)
    // then re-admits Z below S and jumps far ahead, and S reads W only
    // after the jump. S and Z must never hold the turn together. The
    // wide slot table lengthens each scan, and the large W/S strides
    // keep S above Z's resume point most of the time W wakes Z.
    constexpr ThreadId kSlots = 256, kZ = 0, kS = 1, kW = kSlots - 1;
    for (int trial = 0; trial < 10; ++trial) {
        Kendo kendo(true, kSlots);
        for (ThreadId t : {kZ, kS, kW})
            kendo.activate(t, 0);
        std::atomic<int> inside{0};
        std::atomic<int> violations{0};
        std::atomic<bool> zBlocked{false};
        std::atomic<bool> zDone{false};
        // Busy turn waits (no sleeping backoff) keep S scanning.
        auto turn = [&](ThreadId t) {
            while (!kendo.tryTurn(t))
                std::this_thread::yield();
        };
        auto criticalSection = [&] {
            if (inside.fetch_add(1) != 0)
                violations.fetch_add(1);
            for (int i = 0; i < 3000; ++i)
                asm volatile("" ::: "memory");
            inside.fetch_sub(1);
        };
        std::thread sleeper([&] {
            for (int i = 0; i < 2000; ++i) {
                turn(kZ);
                criticalSection();
                kendo.increment(kZ, 1);
                kendo.block(kZ);
                zBlocked.store(true);
                while (!kendo.isActive(kZ))
                    std::this_thread::yield();
            }
            turn(kZ);
            zDone.store(true);
            kendo.finish(kZ);
        });
        std::thread scanner([&] {
            while (!zDone.load()) {
                turn(kS);
                criticalSection();
                kendo.increment(kS, 300);
            }
            kendo.finish(kS);
        });
        std::thread waker([&] {
            while (!zDone.load()) {
                turn(kW);
                criticalSection();
                if (zBlocked.exchange(false))
                    kendo.unblock(kZ, kendo.count(kW) + 1);
                kendo.increment(kW, 1000);
            }
            kendo.finish(kW);
        });
        sleeper.join();
        scanner.join();
        waker.join();
        EXPECT_EQ(violations.load(), 0) << "trial " << trial;
    }
}

TEST(Kendo, TurnOrderIsDeterministic)
{
    // Replay the same logical schedule twice; the order in which slots
    // win turns must be identical.
    auto runOnce = [] {
        Kendo kendo(true, 3);
        for (ThreadId t = 0; t < 3; ++t)
            kendo.activate(t, t);
        std::vector<ThreadId> order;
        std::mutex orderMutex;
        std::vector<std::thread> threads;
        for (ThreadId t = 0; t < 3; ++t) {
            threads.emplace_back([&, t] {
                // Deterministic per-slot increments between turns.
                for (int i = 0; i < 50; ++i) {
                    kendo.waitForTurn(t);
                    {
                        std::lock_guard<std::mutex> guard(orderMutex);
                        order.push_back(t);
                    }
                    kendo.increment(t, 1 + (t * 7 + i) % 5);
                }
                kendo.finish(t);
            });
        }
        for (auto &thread : threads)
            thread.join();
        return order;
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_EQ(a, b);
}

TEST(Kendo, SpinTelemetryAccumulates)
{
    Kendo kendo(true, 2);
    kendo.activate(0, 0);
    kendo.activate(1, 10);
    std::thread t([&] { kendo.waitForTurn(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    kendo.increment(0, 100);
    t.join();
    EXPECT_GT(kendo.totalSpins(), 0u);
}

} // namespace
} // namespace clean::det
