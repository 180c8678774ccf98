/**
 * @file
 * Table 1 — the impact of clock rollover (§4.5).
 *
 * The paper's 23-bit clocks roll over a handful of times per second in
 * its five most synchronization-intensive benchmarks, with <= 2.4%
 * execution-time cost relative to a 28-bit configuration that never
 * rolls over.
 *
 * Bench-scale runs are orders of magnitude shorter than the paper's
 * native inputs, so a proportionally narrower clock (default 12 bits,
 * --clock-bits to change) stands in for the 23-bit production width,
 * keeping the ratio of synchronization volume to clock capacity in the
 * regime the paper evaluates; the full-width (23-bit) run is the
 * rollover-free reference.
 */

#include <algorithm>

#include "bench/common.h"
#include "support/logging.h"

using namespace clean;
using namespace clean::bench;
using namespace clean::wl;

int
main(int argc, char **argv)
{
    const BenchConfig config = parseBench(argc, argv, "small");
    const unsigned clockBits =
        static_cast<unsigned>(config.options.getInt("clock-bits", 12));
    if (clockBits < 4 || clockBits > 30)
        fatal("--clock-bits=%u out of range (4..30)", clockBits);
    // Narrow clocks shrink the tid space: with clockBits=28 only 3 tid
    // bits remain (8 live threads incl. main). Reject combinations that
    // would silently mispack tids instead of letting the runtime assert.
    const EpochConfig narrowEpoch{clockBits,
                                  static_cast<unsigned>(31 - clockBits)};
    if (config.threads + 1 > narrowEpoch.maxThreads()) {
        fatal("--clock-bits=%u leaves %u tid bits (at most %u live "
              "threads including main) but --threads=%u needs %u; "
              "lower --threads or --clock-bits",
              clockBits, 31 - clockBits,
              static_cast<unsigned>(narrowEpoch.maxThreads()),
              config.threads, config.threads + 1);
    }

    std::printf("=== Table 1: clock rollover impact "
                "(threads=%u, scale=%s, narrow=%u bits) ===\n\n",
                config.threads,
                config.options.getString("scale", "small").c_str(),
                clockBits);
    std::printf("%-14s %12s %14s %16s\n", "benchmark", "rollovers",
                "rollovers/s", "time-decrease*");

    for (const auto &name : config.workloads) {
        auto narrowSpec = baseSpec(config, name, BackendKind::Clean);
        narrowSpec.runtime.checker.epoch = narrowEpoch;
        narrowSpec.runtime.maxThreads =
            std::min<ThreadId>(narrowSpec.runtime.maxThreads,
                               narrowEpoch.maxThreads());
        auto wideSpec = baseSpec(config, name, BackendKind::Clean);

        double narrowTime = 1e300, wideTime = 1e300;
        std::uint64_t rollovers = 0;
        bool failed = false;
        for (unsigned r = 0; r < config.repeats; ++r) {
            const auto narrow = runWorkload(narrowSpec);
            const auto wide = runWorkload(wideSpec);
            if (narrow.raceException || wide.raceException) {
                failed = true;
                break;
            }
            narrowTime = std::min(narrowTime, narrow.seconds);
            wideTime = std::min(wideTime, wide.seconds);
            rollovers = narrow.rollovers;
        }
        if (failed) {
            std::printf("%-14s %12s\n", name.c_str(), "FAILED");
            continue;
        }
        if (rollovers == 0) {
            std::printf("%-14s %12llu %14s %16s\n", name.c_str(),
                        0ull, "-", "-");
            continue;
        }
        const double decrease =
            100.0 * (narrowTime - wideTime) / narrowTime;
        std::printf("%-14s %12llu %14.1f %15.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(rollovers),
                    static_cast<double>(rollovers) / narrowTime,
                    decrease);
    }

    std::printf("\n*execution-time decrease of the rollover-free "
                "(23-bit) configuration relative to\n the narrow-clock "
                "one; paper: 0.0%%..2.4%% across barnes, fmm, "
                "radiosity, facesim,\n fluidanimate (5.6-34.8 "
                "rollovers/second).\n");
    return 0;
}
