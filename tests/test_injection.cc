/**
 * @file
 * Fault-injection tests: decision purity and reproducibility of the
 * InjectionPlan, byte-identical failure-report replay of an injected
 * campaign, and the killed-thread regression — a thread that vanishes
 * mid-SFR must surface as a structured DeadlockError naming the stuck
 * slot, never as a livelock.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.h"
#include "inject/injection.h"
#include "workloads/runner.h"

namespace clean
{
namespace
{

using inject::FaultKind;
using inject::InjectionConfig;
using inject::InjectionPlan;

InjectionConfig
allKinds(std::uint64_t seed, double rate)
{
    InjectionConfig config;
    config.enabled = true;
    config.seed = seed;
    config.skipCheckRate = rate;
    config.skipAcquireRate = rate;
    config.delayRate = rate;
    config.rolloverRate = rate;
    config.killRate = rate;
    return config;
}

TEST(InjectionPlan, DecisionsArePureFunctionsOfSeedAndCoordinate)
{
    InjectionPlan a(allKinds(42, 0.25));
    InjectionPlan b(allKinds(42, 0.25));
    for (unsigned kind = 0; kind < 5; ++kind) {
        for (ThreadId tid = 0; tid < 4; ++tid) {
            for (std::uint64_t coord = 0; coord < 256; ++coord) {
                const auto k = static_cast<FaultKind>(kind);
                EXPECT_EQ(a.wouldFire(k, tid, coord),
                          b.wouldFire(k, tid, coord));
            }
        }
    }
}

TEST(InjectionPlan, DifferentSeedsDiverge)
{
    InjectionPlan a(allKinds(1, 0.25));
    InjectionPlan b(allKinds(2, 0.25));
    unsigned differing = 0;
    for (std::uint64_t coord = 0; coord < 512; ++coord) {
        differing += a.wouldFire(FaultKind::SkipCheck, 1, coord) !=
                     b.wouldFire(FaultKind::SkipCheck, 1, coord);
    }
    EXPECT_GT(differing, 0u);
}

TEST(InjectionPlan, RateZeroNeverFiresRateOneAlwaysFires)
{
    InjectionPlan never(allKinds(7, 0.0));
    InjectionPlan always(allKinds(7, 1.0));
    for (std::uint64_t coord = 0; coord < 256; ++coord) {
        EXPECT_FALSE(never.wouldFire(FaultKind::SkipCheck, 1, coord));
        EXPECT_TRUE(always.wouldFire(FaultKind::SkipCheck, 1, coord));
    }
    // A fired rate ~0.25 lands in a plausible band over 4096 trials.
    InjectionPlan quarter(allKinds(7, 0.25));
    unsigned fired = 0;
    for (std::uint64_t coord = 0; coord < 4096; ++coord)
        fired += quarter.wouldFire(FaultKind::Delay, 2, coord);
    EXPECT_GT(fired, 4096u / 8);
    EXPECT_LT(fired, 4096u / 2);
}

TEST(InjectionPlan, KillNeverFiresForTheMainThread)
{
    InjectionPlan plan(allKinds(9, 1.0));
    for (std::uint64_t coord = 0; coord < 256; ++coord)
        EXPECT_FALSE(plan.wouldFire(FaultKind::KillThread, 0, coord));
    EXPECT_TRUE(plan.wouldFire(FaultKind::KillThread, 1, 0));
}

TEST(InjectionPlan, FiredFaultsAreCounted)
{
    InjectionPlan plan(allKinds(11, 1.0));
    EXPECT_TRUE(plan.skipCheck(1, 0));
    EXPECT_TRUE(plan.skipAcquire(1, 1));
    EXPECT_GT(plan.delayMicros(1, 2), 0u);
    EXPECT_TRUE(plan.forceRollover(1, 3));
    EXPECT_FALSE(plan.killThread(0, 4)); // main-thread exemption
    const auto stats = plan.stats();
    EXPECT_EQ(stats.skippedChecks, 1u);
    EXPECT_EQ(stats.skippedAcquires, 1u);
    EXPECT_EQ(stats.delays, 1u);
    EXPECT_EQ(stats.rollovers, 1u);
    EXPECT_EQ(stats.kills, 0u);
    EXPECT_EQ(stats.total(), 4u);
}

wl::RunSpec
injectedSpec(const std::string &workload)
{
    wl::RunSpec spec;
    spec.workload = workload;
    spec.backend = wl::BackendKind::Clean;
    spec.params.threads = 4;
    spec.params.scale = wl::Scale::Test;
    spec.runtime.maxThreads = 32;
    spec.runtime.heap.sharedBytes = std::size_t{256} << 20;
    spec.runtime.heap.privateBytes = std::size_t{64} << 20;
    spec.runtime.inject.enabled = true;
    return spec;
}

TEST(InjectionReplay, SameSeedYieldsByteIdenticalFailureReports)
{
    // SkipAcquire on a race-free lock-based workload: the dropped
    // happens-before edge surfaces as a race at a Kendo-determined
    // program point, and under the Report policy the run completes, so
    // the entire failure report (race list, det counts, checker stats,
    // injection telemetry) must replay byte-for-byte.
    auto spec = injectedSpec("streamcluster");
    spec.runtime.onRace = OnRacePolicy::Report;
    spec.runtime.inject.seed = 2;
    spec.runtime.inject.skipAcquireRate = 0.05;

    std::vector<std::string> reports;
    std::uint64_t races = 0;
    for (int run = 0; run < 5; ++run) {
        const auto result = runWorkload(spec);
        EXPECT_FALSE(result.raceException); // degraded mode continues
        EXPECT_FALSE(result.deadlock);
        EXPECT_GT(result.raceCount, 0u);
        races = result.raceCount;
        reports.push_back(result.failureReport);
    }
    for (int run = 1; run < 5; ++run)
        EXPECT_EQ(reports[0], reports[run]) << "run " << run << " diverged";
    EXPECT_NE(reports[0].find("\"policy\":\"report\""), std::string::npos);
    EXPECT_NE(reports[0].find("\"skippedAcquires\":"), std::string::npos);
    EXPECT_GT(races, 0u);
}

TEST(InjectionReplay, CountPolicyRecordsWithoutReportLines)
{
    auto spec = injectedSpec("streamcluster");
    spec.runtime.onRace = OnRacePolicy::Count;
    spec.runtime.inject.seed = 2;
    spec.runtime.inject.skipAcquireRate = 0.05;
    const auto result = runWorkload(spec);
    EXPECT_FALSE(result.raceException);
    EXPECT_GT(result.raceCount, 0u);
    EXPECT_NE(result.failureReport.find("\"policy\":\"count\""),
              std::string::npos);
}

TEST(InjectionKill, KilledThreadSurfacesAsDeadlockNamingTheStuckSlot)
{
    // A thread killed mid-SFR leaves its Kendo slot frozen; without the
    // watchdog its siblings would spin forever on the vanished thread.
    // The regression: the run must end in a structured DeadlockError
    // that names the suspected stuck slot — and the same seed must
    // classify identically on a re-run.
    auto spec = injectedSpec("fft");
    spec.runtime.watchdogMs = 500;
    spec.runtime.inject.seed = 1;
    spec.runtime.inject.killRate = 0.0005;

    const auto first = runWorkload(spec);
    ASSERT_TRUE(first.deadlock) << first.raceMessage;
    EXPECT_FALSE(first.raceException);
    EXPECT_NE(first.deadlockMessage.find("suspected stuck slot"),
              std::string::npos);
    EXPECT_NE(first.failureReport.find("\"outcome\":\"deadlock\""),
              std::string::npos);
    EXPECT_NE(first.failureReport.find("\"kills\":1"), std::string::npos);

    const auto replay = runWorkload(spec);
    EXPECT_TRUE(replay.deadlock);
    EXPECT_FALSE(replay.raceException);

    // A watchdog-aborted run is no wall-time measurement: the benches
    // must report it as a failure, not as a slowdown.
    EXPECT_EQ(bench::timedSeconds(spec, 1), -1.0);
}

TEST(InjectionDelay, DelaysNeverChangeTheDeterministicOutcome)
{
    // Schedule perturbation at sync points must be invisible to the
    // Kendo-ordered execution: same output hash and det counts as an
    // uninjected run.
    auto base = injectedSpec("fft");
    base.runtime.inject.enabled = false;
    const auto clean = runWorkload(base);

    auto delayed = injectedSpec("fft");
    delayed.runtime.inject.seed = 3;
    delayed.runtime.inject.delayRate = 0.001;
    delayed.runtime.inject.delayMicros = 200;
    const auto perturbed = runWorkload(delayed);

    EXPECT_FALSE(perturbed.raceException);
    EXPECT_FALSE(perturbed.deadlock);
    EXPECT_TRUE(clean.fingerprint() == perturbed.fingerprint());
}

} // namespace
} // namespace clean
