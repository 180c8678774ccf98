/**
 * @file
 * Clock rollover live (§4.5).
 *
 * Epoch clocks are deliberately narrow (23 bits in the paper's default;
 * 8 bits here so you can watch it happen). When any thread's clock
 * nears its width, the runtime parks every thread at its next
 * synchronization point, wipes all epochs with one madvise and resets
 * the vector clocks, then resumes. This demo shows:
 *
 *   1. resets firing under lock-heavy traffic;
 *   2. the §3.1 guarantees surviving them — no false race exceptions,
 *      races still detected afterwards, results still deterministic.
 */

#include <cstdio>
#include <vector>

#include "core/clean.h"

using namespace clean;

namespace
{

RuntimeConfig
narrowClocks()
{
    RuntimeConfig config;
    config.checker.epoch = EpochConfig{8, 8}; // 8-bit clocks: rollover quickly
    return config;
}

/** Lock-heavy counter kernel; returns (counter value, resets). */
std::pair<int, std::uint64_t>
runCounterKernel(std::uint64_t iterations)
{
    CleanRuntime rt(narrowClocks());
    auto *x = rt.heap().allocSharedArray<int>(1);
    CleanMutex m(rt);
    std::vector<ThreadHandle> handles;
    for (int t = 0; t < 4; ++t) {
        handles.push_back(
            rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
                for (std::uint64_t i = 0; i < iterations; ++i) {
                    m.lock(ctx);
                    ctx.write(&x[0], ctx.read(&x[0]) + 1);
                    m.unlock(ctx);
                }
            }));
    }
    for (auto &h : handles)
        rt.join(rt.mainContext(), h);
    if (rt.raceOccurred())
        std::printf("  UNEXPECTED race: %s\n", rt.firstRace()->what());
    return {rt.mainContext().read(&x[0]), rt.rolloverResets()};
}

} // namespace

int
main()
{
    std::printf("== Deterministic clock rollover (8-bit clocks) ==\n\n");

    std::printf("1. lock-heavy run (4 threads x 500 critical "
                "sections)...\n");
    const auto [value, resets] = runCounterKernel(500);
    std::printf("   counter = %d (expected 2000), metadata resets = "
                "%llu\n\n",
                value, static_cast<unsigned long long>(resets));

    std::printf("2. same input twice -> same result despite resets:\n");
    const auto a = runCounterKernel(300);
    const auto b = runCounterKernel(300);
    std::printf("   run A: counter %d, %llu resets\n", a.first,
                static_cast<unsigned long long>(a.second));
    std::printf("   run B: counter %d, %llu resets  (%s)\n\n", b.first,
                static_cast<unsigned long long>(b.second),
                a == b ? "identical" : "DIFFERENT — bug!");

    std::printf("3. races are still caught after resets:\n");
    {
        CleanRuntime rt(narrowClocks());
        auto *x = rt.heap().allocSharedArray<int>(2);
        CleanMutex m(rt);
        // Warm up past at least one reset...
        auto warm = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
            for (int i = 0; i < 400; ++i) {
                m.lock(ctx);
                ctx.write(&x[0], i);
                m.unlock(ctx);
            }
        });
        rt.join(rt.mainContext(), warm);
        std::printf("   resets so far: %llu\n",
                    static_cast<unsigned long long>(rt.rolloverResets()));
        // ...then race on purpose.
        auto r1 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
            for (int i = 0; i < 100000; ++i)
                ctx.write(&x[1], i);
        });
        auto r2 = rt.spawn(rt.mainContext(), [&](ThreadContext &ctx) {
            for (int i = 0; i < 100000; ++i)
                ctx.write(&x[1], -i);
        });
        rt.join(rt.mainContext(), r1);
        rt.join(rt.mainContext(), r2);
        std::printf("   deliberate WAW detected: %s\n",
                    rt.raceOccurred() ? rt.firstRace()->what()
                                      : "NO (bug!)");
    }
    return 0;
}
