/**
 * @file
 * SampleGate unit tests (ISSUE 8 tentpole): decision determinism, the
 * admission-probability ladder, cold-region bursts, hot-region backoff
 * and strike-quarantine, calibration SFRs, and telemetry accounting.
 * End-to-end budget behavior (round trips, lockstep soundness) lives in
 * test_replay.cc and test_detector_cross.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/sampling.h"

namespace clean
{
namespace
{

SampleParams
testParams()
{
    SampleParams p;
    p.windowLog2 = 6; // 64-read windows: tests advance quickly
    p.burstWindows = 1;
    p.regionLog2 = 8;
    p.maxStrikes = 2;
    p.seed = 0x5eedbead;
    p.base = 0x1000;
    return p;
}

/** Reads that land in window @p w under testParams(). */
std::uint64_t
readsAt(std::uint64_t w)
{
    return w << 6;
}

TEST(SampleGate, IdenticalConfigurationsDecideIdentically)
{
    SampleParams params = testParams();
    params.initialLevel = 6;
    SampleGate a, b;
    a.configure(params);
    b.configure(params);
    // Mixed regions and windows; both gates must agree on every single
    // decision — this is the property record/replay leans on.
    for (std::uint64_t i = 0; i < 4096; ++i) {
        const Addr addr = 0x1000 + (i * 131) % 65536;
        const std::uint64_t reads = i * 17;
        EXPECT_EQ(a.admit(addr, reads), b.admit(addr, reads))
            << "i=" << i;
    }
}

TEST(SampleGate, LevelZeroAdmitsEverything)
{
    SampleGate gate;
    gate.configure(testParams());
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_TRUE(gate.admit(0x1000 + i * 64, i * 7));
}

TEST(SampleGate, CalibrationSfrShedsEverythingWithoutStateChurn)
{
    SampleGate gate;
    gate.configure(testParams());
    gate.setCalibSfr(true);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(gate.admit(0x1000 + i * 300, i));
    EXPECT_EQ(gate.telemetry().calibSfrs, 1u);
    // Calibration sheds on the fast path: no decision windows burned.
    EXPECT_EQ(gate.telemetry().windows, 0u);
    gate.setCalibSfr(false);
    EXPECT_TRUE(gate.admit(0x1000, 0));
}

TEST(SampleGate, AdmitProbabilityLadderIsMonotoneWithUnitFloor)
{
    std::uint32_t prev = SampleGate::admitPForLevel(0);
    EXPECT_EQ(prev, 65536u);
    for (std::uint32_t level = 1; level <= SampleGate::kMaxLevel;
         ++level) {
        const std::uint32_t p = SampleGate::admitPForLevel(level);
        EXPECT_LT(p, prev) << "level " << level;
        EXPECT_GE(p, 1u);
        prev = p;
    }
    // Past the deepest level the ladder is clamped, not extended.
    EXPECT_EQ(SampleGate::admitPForLevel(SampleGate::kMaxLevel + 7),
              SampleGate::admitPForLevel(SampleGate::kMaxLevel));
}

TEST(SampleGate, AdmittedFractionDecreasesWithLevel)
{
    // Count admissions over many distinct (region, window) pairs —
    // fresh gate per level so per-region state does not leak across
    // measurements. Bursts are disabled via burstWindows=0.
    const auto admittedAt = [](std::uint32_t level) {
        SampleParams params = testParams();
        params.burstWindows = 0;
        params.initialLevel = level;
        SampleGate gate;
        gate.configure(params);
        std::uint64_t admitted = 0;
        for (std::uint64_t i = 0; i < 20000; ++i) {
            // A new region every probe; windows far apart so no
            // consecutive-window backoff perturbs the measurement.
            if (gate.admit(0x1000 + i * 256, readsAt(3 * i)))
                admitted++;
        }
        return admitted;
    };
    const std::uint64_t l0 = admittedAt(0);
    const std::uint64_t l4 = admittedAt(4);
    const std::uint64_t l12 = admittedAt(12);
    EXPECT_EQ(l0, 20000u);
    EXPECT_LT(l4, l0);
    EXPECT_LT(l12, l4);
    // ~0.75^12 ≈ 3%: deep levels shed hard but never to zero across a
    // large probe set.
    EXPECT_GT(l4, 0u);
    EXPECT_GT(l12, 0u);
}

TEST(SampleGate, LevelForBudgetIsTheFailSafeColdStart)
{
    // The cold-start level is the shallowest one whose admission
    // fraction fits the budget: admission at the level is within
    // budget, one level shallower would exceed it.
    for (std::uint32_t budget : {1u, 5u, 10u, 25u, 50u, 99u}) {
        const std::uint32_t level = SampleGate::levelForBudget(budget);
        EXPECT_LE(
            static_cast<std::uint64_t>(SampleGate::admitPForLevel(level)) *
                100,
            static_cast<std::uint64_t>(budget) * 65536)
            << "budget " << budget;
        if (level > 0) {
            EXPECT_GT(static_cast<std::uint64_t>(
                          SampleGate::admitPForLevel(level - 1)) *
                          100,
                      static_cast<std::uint64_t>(budget) * 65536)
                << "budget " << budget;
        }
    }
    // Monotone: a tighter budget never starts shallower.
    for (std::uint32_t b = 1; b < 100; ++b)
        EXPECT_GE(SampleGate::levelForBudget(b),
                  SampleGate::levelForBudget(b + 1))
            << "budget " << b;
    EXPECT_EQ(SampleGate::levelForBudget(100), 0u);
}

TEST(SampleGate, ColdRegionBurstAdmitsBelowSuppressLevel)
{
    SampleParams params = testParams();
    params.burstWindows = 3;
    params.initialLevel = SampleGate::kBurstSuppressLevel - 1;
    SampleGate gate;
    gate.configure(params);
    // Each of 64 fresh regions: its first 3 decision windows admit in
    // full at any level below the suppression cutoff.
    for (std::uint64_t r = 0; r < 64; ++r) {
        const Addr addr = 0x1000 + r * 256;
        for (std::uint64_t w = 0; w < 3; ++w)
            EXPECT_TRUE(gate.admit(addr, readsAt(100 * r + w)))
                << "region " << r << " window " << w;
    }
    EXPECT_EQ(gate.telemetry().bursts, 64u * 3u);
}

TEST(SampleGate, DeepShedRegimeSuppressesBurstsButKeepsThem)
{
    SampleParams params = testParams();
    params.burstWindows = 2;
    params.initialLevel = SampleGate::kMaxLevel;
    SampleGate gate;
    gate.configure(params);
    // At the deepest level the cold-region frontier gets hashed
    // admission (~0.1%), not full-rate bursts: across 256 fresh
    // regions virtually everything sheds and no burst is spent.
    std::uint64_t admitted = 0;
    for (std::uint64_t r = 0; r < 256; ++r)
        admitted += gate.admit(0x1000 + r * 256, readsAt(r)) ? 1 : 0;
    EXPECT_EQ(gate.telemetry().bursts, 0u);
    EXPECT_LT(admitted, 8u);
    // The unspent burst survives suppression: once the level recovers,
    // a suppressed region still gets its full cold burst.
    gate.adoptLevel(SampleGate::kBurstSuppressLevel - 1);
    EXPECT_TRUE(gate.admit(0x1000, readsAt(300)));
    EXPECT_TRUE(gate.admit(0x1000, readsAt(400)));
    EXPECT_EQ(gate.telemetry().bursts, 2u);
}

TEST(SampleGate, HotRegionStrikesOutIntoQuarantine)
{
    SampleParams params = testParams(); // burst 1, maxStrikes 2
    params.initialLevel = 4;
    SampleGate gate;
    gate.configure(params);
    const Addr addr = 0x1000;
    // One region re-deciding in consecutive windows while the level is
    // active: burst (w0), backoff ramp (w1..w8), then strikes. After
    // maxStrikes strikes the region is quarantined: always shed.
    std::uint64_t w = 0;
    while (gate.telemetry().quarantines == 0 && w < 64) {
        gate.admit(addr, readsAt(w));
        ++w;
    }
    EXPECT_EQ(gate.telemetry().quarantines, 1u);
    EXPECT_EQ(gate.telemetry().strikes, params.maxStrikes);
    ASSERT_TRUE(gate.hasPendingQuarantines());
    const auto pending = gate.takePendingQuarantines();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].region, 0u); // (addr - base) >> regionLog2
    EXPECT_EQ(pending[0].strikes, params.maxStrikes);
    EXPECT_FALSE(gate.hasPendingQuarantines());
    ASSERT_EQ(gate.quarantinedRegions().size(), 1u);
    // Quarantined for good, even in windows far apart.
    EXPECT_FALSE(gate.admit(addr, readsAt(w + 50)));
    EXPECT_FALSE(gate.admit(addr, readsAt(w + 500)));
}

TEST(SampleGate, NonConsecutiveWindowsDoNotStrike)
{
    SampleParams params = testParams();
    params.initialLevel = 4;
    SampleGate gate;
    gate.configure(params);
    // Same region, but every decision two windows apart: the region
    // keeps cooling down, so no strikes and no quarantine ever accrue.
    for (std::uint64_t w = 0; w < 200; w += 2)
        gate.admit(0x1000, readsAt(w));
    EXPECT_EQ(gate.telemetry().strikes, 0u);
    EXPECT_EQ(gate.telemetry().quarantines, 0u);
}

TEST(SampleGate, QuarantineCapacityIsBounded)
{
    SampleParams params = testParams();
    params.burstWindows = 0;
    params.maxStrikes = 1;
    params.initialLevel = 4;
    SampleGate gate;
    gate.configure(params);
    // Strike out far more regions than the local quarantine can hold.
    // Regions are spaced kEntries apart so each maps to the same table
    // entry only with itself (no eviction resets).
    for (std::uint64_t r = 0; r < SampleGate::kMaxQuarantined + 40;
         ++r) {
        const Addr addr = 0x1000 + r * 256 * SampleGate::kEntries;
        for (std::uint64_t w = 0; w < 16 &&
                                  gate.quarantinedRegions().size() <
                                      SampleGate::kMaxQuarantined + 1;
             ++w)
            gate.admit(addr, readsAt(w));
    }
    EXPECT_LE(gate.quarantinedRegions().size(),
              SampleGate::kMaxQuarantined);
    // Sorted: the deterministic listing order reports rely on.
    const auto &regions = gate.quarantinedRegions();
    for (std::size_t i = 1; i < regions.size(); ++i)
        EXPECT_LT(regions[i - 1], regions[i]);
}

TEST(SampleGate, AdoptLevelClampsAndCounts)
{
    SampleGate gate;
    gate.configure(testParams());
    gate.adoptLevel(5);
    EXPECT_EQ(gate.level(), 5u);
    gate.adoptLevel(SampleGate::kMaxLevel + 100);
    EXPECT_EQ(gate.level(), SampleGate::kMaxLevel);
    EXPECT_EQ(gate.telemetry().levelAdoptions, 2u);
}

TEST(SampleGate, TelemetryMergeSums)
{
    SampleParams params = testParams();
    params.initialLevel = 3;
    SampleGate a, b;
    a.configure(params);
    b.configure(params);
    for (std::uint64_t i = 0; i < 256; ++i) {
        a.admit(0x1000 + i * 256, readsAt(i));
        b.admit(0x1000 + i * 512, readsAt(2 * i));
    }
    SampleTelemetry total;
    total.merge(a.telemetry());
    total.merge(b.telemetry());
    EXPECT_EQ(total.windows,
              a.telemetry().windows + b.telemetry().windows);
    EXPECT_EQ(total.bursts, a.telemetry().bursts + b.telemetry().bursts);
}

} // namespace
} // namespace clean
