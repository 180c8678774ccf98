/**
 * @file
 * Figure 8 — the impact of the §4.4 multi-byte (vectorized) check.
 *
 * Runs race detection (no det-sync) with the vectorized multi-byte fast
 * path on and off, and also reports the two measured quantities the
 * optimization rests on:
 *   - the fraction of shared accesses >= 4 bytes wide (paper: >= 91.9%
 *     on average), and
 *   - the fraction of wide accesses whose bytes all carry one epoch
 *     (paper: >= 99.7% in every benchmark).
 */

#include "bench/common.h"

using namespace clean;
using namespace clean::bench;
using namespace clean::wl;

int
main(int argc, char **argv)
{
    const BenchConfig config = parseBench(argc, argv, "small");

    std::printf("=== Figure 8: impact of vectorization "
                "(threads=%u, scale=%s) ===\n\n",
                config.threads,
                config.options.getString("scale", "small").c_str());
    std::printf("%-14s %12s %12s %9s %8s %10s\n", "benchmark",
                "novec[s]", "vec[s]", "speedup", "wide%", "same-ep%");

    std::vector<double> speedups, widePct, samePct;
    for (const auto &name : config.workloads) {
        auto vecSpec = baseSpec(config, name, BackendKind::DetectOnly);
        auto novecSpec = vecSpec;
        novecSpec.runtime.checker.vectorized = false;

        const double novec = timedSeconds(novecSpec, config.repeats);
        const double vec = timedSeconds(vecSpec, config.repeats);
        // One more run to collect the width statistics.
        const auto result = runWorkload(vecSpec);
        const auto &st = result.checker;
        const double wide =
            st.accesses()
                ? 100.0 * static_cast<double>(st.wideAccesses) /
                      static_cast<double>(st.accesses())
                : 0.0;
        const double same =
            st.wideAccesses
                ? 100.0 * static_cast<double>(st.wideSameEpoch) /
                      static_cast<double>(st.wideAccesses)
                : 0.0;
        if (novec <= 0 || vec <= 0) {
            std::printf("%-14s %12s\n", name.c_str(), "FAILED");
            continue;
        }
        speedups.push_back(novec / vec);
        widePct.push_back(wide);
        samePct.push_back(same);
        std::printf("%-14s %12.4f %12.4f %8.2fx %7.1f%% %9.2f%%\n",
                    name.c_str(), novec, vec, novec / vec, wide, same);
    }

    std::printf("\n%-14s %12s %12s %8.2fx %7.1f%% %9.2f%%   (mean)\n",
                "all", "", "", geomean(speedups), mean(widePct),
                mean(samePct));
    std::printf("\npaper: vectorization is a consistent win because >= "
                "91.9%% of shared accesses are\nwide and >= 99.7%% of "
                "them carry a single epoch.\n");
    return 0;
}
