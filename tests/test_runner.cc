/**
 * @file
 * Runner tests: backend selection, measurement plumbing, and one
 * end-to-end hardware simulation of a recorded trace.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/machine.h"
#include "workloads/runner.h"

namespace clean::wl
{
namespace
{

RunSpec
spec(BackendKind backend, const std::string &name = "fft",
     bool racy = false)
{
    RunSpec s;
    s.workload = name;
    s.backend = backend;
    s.params.threads = 4;
    s.params.scale = Scale::Test;
    s.params.racy = racy;
    s.runtime.maxThreads = 32;
    s.runtime.heap.sharedBytes = std::size_t{256} << 20;
    s.runtime.heap.privateBytes = std::size_t{64} << 20;
    return s;
}

TEST(Runner, BackendNames)
{
    EXPECT_STREQ(backendKindName(BackendKind::Native), "native");
    EXPECT_STREQ(backendKindName(BackendKind::Clean), "clean");
    EXPECT_STREQ(backendKindName(BackendKind::DetectOnly),
                 "detect-only");
    EXPECT_STREQ(backendKindName(BackendKind::KendoOnly), "kendo-only");
    EXPECT_STREQ(backendKindName(BackendKind::FastTrack), "fasttrack");
    EXPECT_STREQ(backendKindName(BackendKind::TsanLite), "tsan-lite");
    EXPECT_STREQ(backendKindName(BackendKind::Trace), "trace");
}

TEST(Runner, NativeMeasuresTimeAndCounts)
{
    const auto result = runWorkload(spec(BackendKind::Native));
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_GT(result.reads, 0u);
    EXPECT_GT(result.writes, 0u);
    EXPECT_FALSE(result.raceException);
}

TEST(Runner, CleanFillsCheckerStats)
{
    const auto result = runWorkload(spec(BackendKind::Clean));
    EXPECT_GT(result.checker.accesses(), 0u);
    EXPECT_GT(result.checker.wideAccesses, 0u);
    EXPECT_FALSE(result.detCounts.empty());
}

TEST(Runner, KendoOnlyNeverDetects)
{
    // Even a racy workload completes under KendoOnly (no detection).
    const auto result =
        runWorkload(spec(BackendKind::KendoOnly, "raytrace", true));
    EXPECT_FALSE(result.raceException);
}

TEST(Runner, FastTrackCountsRaceKinds)
{
    const auto result =
        runWorkload(spec(BackendKind::FastTrack, "raytrace", true));
    EXPECT_GT(result.detectorReports, 0u);
    EXPECT_EQ(result.detectorReports,
              result.detectorWaw + result.detectorRaw +
                  result.detectorWar);
    // The unlocked counter RMW produces WAW and/or RAW, not only WAR.
    EXPECT_GT(result.detectorWaw + result.detectorRaw, 0u);
}

TEST(Runner, TsanLiteDetectsObviousRaces)
{
    const auto result =
        runWorkload(spec(BackendKind::TsanLite, "raytrace", true));
    EXPECT_GT(result.detectorReports, 0u);
}

TEST(Runner, FastTrackFindsNothingOnRaceFree)
{
    const auto result = runWorkload(spec(BackendKind::FastTrack, "fft"));
    EXPECT_EQ(result.detectorReports, 0u);
}

TEST(Runner, NativeIsFasterThanClean)
{
    // The headline claim at miniature scale: instrumentation costs.
    // Both runs take milliseconds, so one scheduling hiccup could flip
    // a single comparison; compare the best of five interleaved runs.
    double native = 1e300, clean = 1e300;
    for (int i = 0; i < 5; ++i) {
        native = std::min(
            native, runWorkload(spec(BackendKind::Native, "lu_cb")).seconds);
        clean = std::min(
            clean, runWorkload(spec(BackendKind::Clean, "lu_cb")).seconds);
    }
    EXPECT_LT(native, clean);
}

TEST(Runner, TraceFeedsTheSimulator)
{
    auto result = runWorkload(spec(BackendKind::Trace, "fft"));
    ASSERT_GT(result.trace.totalEvents(), 0u);

    sim::MachineConfig off;
    off.raceDetection = false;
    const auto base = sim::simulate(result.trace, off);

    sim::MachineConfig on;
    const auto checked = sim::simulate(result.trace, on);

    EXPECT_GT(base.totalCycles, 0u);
    EXPECT_GE(checked.totalCycles, base.totalCycles);
    EXPECT_GT(checked.hw.sharedAccesses(), 0u);
    EXPECT_EQ(checked.hw.racesDetected, 0u)
        << "race-free trace must not trip the hardware check";
    // The hardware is cheap: well under 2x even at tiny scale.
    EXPECT_LT(static_cast<double>(checked.totalCycles),
              2.5 * static_cast<double>(base.totalCycles));
}

TEST(Runner, SimulatedRacyTraceTripsTheHardware)
{
    auto result =
        runWorkload(spec(BackendKind::Trace, "raytrace", true));
    ASSERT_GT(result.trace.totalEvents(), 0u);
    sim::MachineConfig config;
    const auto stats = sim::simulate(result.trace, config);
    EXPECT_GT(stats.hw.racesDetected, 0u);
}

TEST(Runner, EpochModesAgreeFunctionally)
{
    auto result = runWorkload(spec(BackendKind::Trace, "fft"));
    for (auto mode : {sim::EpochMode::Clean, sim::EpochMode::Byte1,
                      sim::EpochMode::Byte4}) {
        sim::MachineConfig config;
        config.epochMode = mode;
        const auto stats = sim::simulate(result.trace, config);
        EXPECT_EQ(stats.hw.racesDetected, 0u)
            << sim::epochModeName(mode);
        EXPECT_GT(stats.hw.sharedAccesses(), 0u);
    }
}

} // namespace
} // namespace clean::wl
