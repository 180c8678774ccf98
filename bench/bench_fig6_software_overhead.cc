/**
 * @file
 * Figure 6 — software-only CLEAN performance.
 *
 * For every benchmark (race-free variants, as the paper measures), this
 * harness reports execution time normalized to the uninstrumented
 * nondeterministic run, for:
 *
 *   det-sync      deterministic synchronization only  (paper: small,
 *                 sometimes a speedup, a few outliers)
 *   detect        WAW/RAW race detection only         (paper avg 5.8x)
 *   detect-nb     detection with batched SFR-boundary read checking
 *                 disabled (--no-batch internally) — the inline
 *                 ablation this PR's batching is measured against
 *   clean         both mechanisms                     (paper avg 7.8x)
 *
 * Expect the *shape* to match, not the constants: this host's core
 * count, the shim-call (vs compiled-in) instrumentation, and Kendo's
 * yield-based waiting shift absolute numbers.
 */

#include "bench/common.h"

using namespace clean;
using namespace clean::bench;
using namespace clean::wl;

int
main(int argc, char **argv)
{
    const BenchConfig config = parseBench(argc, argv, "small");

    std::printf("=== Figure 6: software-only CLEAN slowdown "
                "(threads=%u, scale=%s, repeats=%u, fast-path=%s) "
                "===\n\n",
                config.threads,
                config.options.getString("scale", "small").c_str(),
                config.repeats,
                config.options.getBool("no-fast-path", false) ? "off"
                                                              : "on");
    // Thread count as a per-row column: the scale-out work (DESIGN.md
    // §16) sweeps this harness at 1..64 threads, and concatenated
    // sweep outputs are unreadable without the thread count on the
    // row itself.
    std::printf("%-14s %4s %10s %10s %10s %10s %10s\n", "benchmark",
                "thr", "native[s]", "det-sync", "detect", "detect-nb",
                "clean");

    std::vector<double> kendoX, detectX, detectNbX, cleanX;
    for (const auto &name : config.workloads) {
        const double native = timedSeconds(
            baseSpec(config, name, BackendKind::Native), config.repeats);
        const double kendo = timedSeconds(
            baseSpec(config, name, BackendKind::KendoOnly),
            config.repeats);
        const double detect = timedSeconds(
            baseSpec(config, name, BackendKind::DetectOnly),
            config.repeats);
        wl::RunSpec nbSpec =
            baseSpec(config, name, BackendKind::DetectOnly);
        nbSpec.runtime.checker.batch = false;
        const double detectNb = timedSeconds(nbSpec, config.repeats);
        const double clean = timedSeconds(
            baseSpec(config, name, BackendKind::Clean), config.repeats);
        if (native <= 0 || kendo < 0 || detect < 0 || detectNb < 0 ||
            clean < 0) {
            std::printf("%-14s %4u %10s\n", name.c_str(),
                        config.threads, "FAILED");
            continue;
        }
        kendoX.push_back(kendo / native);
        detectX.push_back(detect / native);
        detectNbX.push_back(detectNb / native);
        cleanX.push_back(clean / native);
        std::printf("%-14s %4u %10.4f %9.2fx %9.2fx %9.2fx %9.2fx\n",
                    name.c_str(), config.threads, native,
                    kendo / native, detect / native, detectNb / native,
                    clean / native);
    }

    std::printf("\n%-14s %4s %10s %9.2fx %9.2fx %9.2fx %9.2fx   "
                "(geomean)\n",
                "all", "", "", geomean(kendoX), geomean(detectX),
                geomean(detectNbX), geomean(cleanX));
    std::printf("%-14s %4s %10s %9.2fx %9.2fx %9.2fx %9.2fx   (mean)\n",
                "", "", "", mean(kendoX), mean(detectX),
                mean(detectNbX), mean(cleanX));
    std::printf("\npaper (16-core Xeon, compiled instrumentation): "
                "detect avg 5.8x, clean avg 7.8x;\n"
                "det-sync small with fmm/radiosity/fluidanimate/dedup/"
                "ferret/vips outliers and a\nstreamcluster speedup.\n");
    return 0;
}
