/**
 * @file
 * Cross-module integration & property tests:
 *
 *   - random lock-structured programs under full CLEAN are
 *     exception-free and bitwise deterministic (the §3.1 guarantees on
 *     arbitrary program shapes, not just the curated suite);
 *   - racy random programs either complete deterministically or always
 *     throw — never a mix — for a fixed input;
 *   - the hardware simulator is invariant under trace serialization;
 *   - CLEAN software exceptions and hardware race counting agree on
 *     recorded schedules.
 */

#include <gtest/gtest.h>

#include "core/clean.h"
#include "sim/machine.h"
#include "support/prng.h"
#include "workloads/registry.h"
#include "workloads/runner.h"

namespace clean
{
namespace
{

/** A random but fully deterministic lock-structured parallel program:
 *  each worker performs a seeded sequence of reads, writes, and
 *  critical sections over a small shared array. */
struct RandomProgramResult
{
    bool raceException = false;
    std::uint64_t stateHash = 0;
    std::vector<det::DetCount> detCounts;
};

RandomProgramResult
runRandomProgram(std::uint64_t seed, bool withRace, unsigned threads,
                 int opsPerThread)
{
    RuntimeConfig config;
    config.maxThreads = 16;
    config.heap.sharedBytes = std::size_t{64} << 20;
    config.heap.privateBytes = std::size_t{16} << 20;
    CleanRuntime rt(config);

    constexpr unsigned kWords = 32;
    constexpr unsigned kLocks = 4;
    auto *data = rt.heap().allocSharedArray<std::uint64_t>(kWords);
    std::deque<CleanMutex> locks;
    for (unsigned l = 0; l < kLocks; ++l)
        locks.emplace_back(rt);

    std::vector<ThreadHandle> handles;
    for (unsigned t = 0; t < threads; ++t) {
        handles.push_back(rt.spawn(
            rt.mainContext(), [&, t](ThreadContext &ctx) {
                Prng rng(seed ^ (t * 0x9e3779b97f4a7c15ULL));
                try {
                    for (int op = 0; op < opsPerThread; ++op) {
                        const unsigned word = rng.nextBelow(kWords);
                        const unsigned lock = word % kLocks;
                        const bool guarded =
                            !withRace || rng.nextBelow(100) < 95;
                        if (guarded)
                            locks[lock].lock(ctx);
                        const std::uint64_t v = ctx.read(&data[word]);
                        ctx.write(&data[word], v * 31 + t + 1);
                        if (guarded)
                            locks[lock].unlock(ctx);
                        ctx.detTick(1 + (t + op) % 3);
                    }
                } catch (const RaceException &) {
                    throw;
                }
            }));
    }
    for (auto &h : handles)
        rt.join(rt.mainContext(), h);

    RandomProgramResult result;
    result.raceException = rt.raceOccurred();
    if (!result.raceException) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (unsigned i = 0; i < kWords; ++i)
            h = (h ^ rt.mainContext().read(&data[i])) * 0x100000001b3ULL;
        result.stateHash = h;
        result.detCounts = rt.finalDetCounts();
    }
    return result;
}

class RandomPrograms : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomPrograms, LockStructuredProgramsAreCleanAndDeterministic)
{
    const std::uint64_t seed = GetParam() * 1099511628211ULL + 3;
    const auto a = runRandomProgram(seed, false, 4, 150);
    const auto b = runRandomProgram(seed, false, 4, 150);
    EXPECT_FALSE(a.raceException);
    EXPECT_FALSE(b.raceException);
    EXPECT_EQ(a.stateHash, b.stateHash);
    EXPECT_EQ(a.detCounts, b.detCounts);
}

TEST_P(RandomPrograms, RacyProgramOutcomeIsReproducible)
{
    // With 5% unguarded critical sections the program may race; CLEAN
    // guarantees that for a fixed input the *outcome* is reproducible:
    // either every run throws or every run completes with the same
    // state (the paper's §3.1.2 testing/debugging argument).
    const std::uint64_t seed = GetParam() * 2654435761ULL + 17;
    const auto a = runRandomProgram(seed, true, 4, 120);
    const auto b = runRandomProgram(seed, true, 4, 120);
    EXPECT_EQ(a.raceException, b.raceException);
    if (!a.raceException) {
        EXPECT_EQ(a.stateHash, b.stateHash);
        EXPECT_EQ(a.detCounts, b.detCounts);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0u, 12u));

TEST(SimSerialization, ReplayInvariantUnderSaveLoad)
{
    wl::RunSpec spec;
    spec.workload = "ocean_cp";
    spec.backend = wl::BackendKind::Trace;
    spec.params.threads = 4;
    spec.params.scale = wl::Scale::Test;
    auto result = wl::runWorkload(spec);
    ASSERT_GT(result.trace.totalEvents(), 0u);

    const std::string path = ::testing::TempDir() + "sim_trace.bin";
    ASSERT_TRUE(wl::saveTrace(result.trace, path));
    wl::Trace loaded;
    ASSERT_TRUE(wl::loadTrace(path, loaded));

    sim::MachineConfig config;
    const auto a = sim::simulate(result.trace, config);
    const auto b = sim::simulate(loaded, config);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.memoryAccesses, b.memoryAccesses);
    EXPECT_EQ(a.hw.fastAccesses, b.hw.fastAccesses);
    EXPECT_EQ(a.hw.racesDetected, b.hw.racesDetected);
}

class SoftwareHardwareAgreement
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SoftwareHardwareAgreement, RaceFreeTracesAreCleanInHardware)
{
    // Any schedule the race-free variant produces must also be
    // race-free under the hardware check (they implement the same
    // detection semantics).
    wl::RunSpec spec;
    spec.workload = GetParam();
    spec.backend = wl::BackendKind::Trace;
    spec.params.threads = 4;
    spec.params.scale = wl::Scale::Test;
    auto result = wl::runWorkload(spec);
    sim::MachineConfig config;
    const auto stats = sim::simulate(result.trace, config);
    EXPECT_EQ(stats.hw.racesDetected, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SoftwareHardwareAgreement,
    ::testing::Values("fft", "barnes", "water_sp", "streamcluster",
                      "dedup", "radiosity", "x264", "canneal"),
    [](const auto &info) { return info.param; });

TEST(GranularityIntegration, WordModeAcceptsWordStructuredSuite)
{
    // blackscholes only shares whole doubles: word granularity is sound
    // for it and must not change the verdict.
    wl::RunSpec spec;
    spec.workload = "blackscholes";
    spec.backend = wl::BackendKind::Clean;
    spec.params.threads = 4;
    spec.params.scale = wl::Scale::Test;
    spec.runtime.checker.granuleLog2 = 2;
    const auto result = wl::runWorkload(spec);
    EXPECT_FALSE(result.raceException) << result.raceMessage;
}

TEST(DeterminismIntegration, RadiosityFingerprintIsDeterministic)
{
    wl::RunSpec spec;
    spec.workload = "radiosity"; // schedule-sensitive results
    spec.backend = wl::BackendKind::Clean;
    spec.params.threads = 4;
    spec.params.scale = wl::Scale::Test;
    const auto a = wl::runWorkload(spec);
    const auto b = wl::runWorkload(spec);
    ASSERT_FALSE(a.raceException);
    EXPECT_TRUE(a.fingerprint() == b.fingerprint());
}

} // namespace
} // namespace clean
