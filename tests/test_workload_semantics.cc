/**
 * @file
 * Semantic validation of workload kernels across backends.
 *
 * For kernels whose result is independent of the thread schedule
 * (statically partitioned work, no dynamic task stealing), the output
 * fingerprint must be IDENTICAL under every backend — native threads,
 * the CLEAN runtime (any configuration), and the tracing backend. This
 * pins down that the instrumentation layers are pure observers: they
 * must never change what the program computes.
 */

#include <gtest/gtest.h>

#include "workloads/registry.h"
#include "workloads/runner.h"

namespace clean::wl
{
namespace
{

RunSpec
spec(const std::string &name, BackendKind backend)
{
    RunSpec s;
    s.workload = name;
    s.backend = backend;
    s.params.threads = 4;
    s.params.scale = Scale::Test;
    s.params.seed = 987654321;
    return s;
}

/** Kernels with schedule-independent results: static partitioning,
 *  reductions only through barriers (no dynamic queues, no
 *  lock-order-dependent folds). */
class ScheduleIndependent : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ScheduleIndependent, AllBackendsComputeTheSameResult)
{
    const auto native = runWorkload(spec(GetParam(), BackendKind::Native));
    const auto clean = runWorkload(spec(GetParam(), BackendKind::Clean));
    const auto detect =
        runWorkload(spec(GetParam(), BackendKind::DetectOnly));
    const auto traced = runWorkload(spec(GetParam(), BackendKind::Trace));
    ASSERT_FALSE(clean.raceException) << clean.raceMessage;
    EXPECT_EQ(native.outputHash, clean.outputHash)
        << "CLEAN instrumentation changed the computation";
    EXPECT_EQ(native.outputHash, detect.outputHash);
    EXPECT_EQ(native.outputHash, traced.outputHash)
        << "tracing changed the computation";
}

TEST_P(ScheduleIndependent, NativeRunsAreDeterministicForFixedSeed)
{
    const auto a = runWorkload(spec(GetParam(), BackendKind::Native));
    const auto b = runWorkload(spec(GetParam(), BackendKind::Native));
    EXPECT_EQ(a.outputHash, b.outputHash);
    EXPECT_EQ(a.reads + a.writes, b.reads + b.writes);
}

TEST_P(ScheduleIndependent, SeedChangesTheResult)
{
    auto s1 = spec(GetParam(), BackendKind::Native);
    auto s2 = s1;
    s2.params.seed = s1.params.seed + 1;
    EXPECT_NE(runWorkload(s1).outputHash, runWorkload(s2).outputHash);
}

TEST_P(ScheduleIndependent, ThreadCountDoesNotBreakCleanRuns)
{
    // Re-slicing the iteration space must never introduce races or
    // nondeterminism.
    for (unsigned threads : {2u, 3u, 4u}) {
        auto s = spec(GetParam(), BackendKind::Clean);
        s.params.threads = threads;
        const auto a = runWorkload(s);
        const auto b = runWorkload(s);
        ASSERT_FALSE(a.raceException)
            << GetParam() << " @" << threads << ": " << a.raceMessage;
        EXPECT_TRUE(a.fingerprint() == b.fingerprint())
            << GetParam() << " @" << threads;
    }
}

// facesim and the lock-scatter kernels are deliberately absent: their
// floating-point reductions fold in lock-acquisition order, so their
// results are deterministic under CLEAN but not schedule-independent.
INSTANTIATE_TEST_SUITE_P(Kernels, ScheduleIndependent,
                         ::testing::Values("blackscholes", "swaptions",
                                           "fft", "lu_cb", "ocean_cp"),
                         [](const auto &info) { return info.param; });

TEST(WorkloadSemantics, CleanConfigurationsAgreeOnResults)
{
    // Vectorization, shadow backend, granularity and atomicity are
    // performance knobs: none may change the computed result.
    const auto reference = runWorkload(spec("fft", BackendKind::Clean));
    ASSERT_FALSE(reference.raceException);

    auto noVec = spec("fft", BackendKind::Clean);
    noVec.runtime.checker.vectorized = false;
    auto sparse = spec("fft", BackendKind::Clean);
    sparse.runtime.shadow = ShadowKind::Sparse;
    auto word = spec("fft", BackendKind::Clean);
    word.runtime.checker.granuleLog2 = 2;
    auto locked = spec("fft", BackendKind::Clean);
    locked.runtime.checker.atomicity = AtomicityMode::Locked;

    for (const auto *variant : {&noVec, &sparse, &word, &locked}) {
        const auto result = runWorkload(*variant);
        ASSERT_FALSE(result.raceException) << result.raceMessage;
        EXPECT_EQ(result.outputHash, reference.outputHash);
    }
}

TEST(WorkloadSemantics, RacyVariantChangesBehaviorOnlyWhenRequested)
{
    // racy=false must be byte-identical across repeated runs even for
    // benchmarks that HAVE racy variants.
    for (const char *name : {"raytrace", "barnes", "x264"}) {
        auto s = spec(name, BackendKind::Clean);
        const auto a = runWorkload(s);
        const auto b = runWorkload(s);
        ASSERT_FALSE(a.raceException) << name;
        EXPECT_TRUE(a.fingerprint() == b.fingerprint()) << name;
    }
}

TEST(WorkloadSemantics, AccessVolumeIsSubstantial)
{
    // Guard against silently-degenerate kernels: every benchmark must
    // actually touch shared memory (swaptions, by design the suite's
    // most private kernel, sets the floor).
    for (const auto &name : workloadNames()) {
        const auto result = runWorkload(spec(name, BackendKind::Native));
        EXPECT_GT(result.reads + result.writes, 50u) << name;
    }
}

} // namespace
} // namespace clean::wl
