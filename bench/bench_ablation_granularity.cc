/**
 * @file
 * Ablation — byte vs word checking granularity (§3.2).
 *
 * The paper checks per byte because C/C++ programs may legitimately
 * share distinct bytes of one word; a type-safe-language specialization
 * could check per object/word. This bench measures what that buys
 * (fewer checks and epoch updates) and what it costs (false reports on
 * byte-granular sharing — demonstrated on dedup, whose pipeline shares
 * adjacent bytes).
 */

#include "bench/common.h"

using namespace clean;
using namespace clean::bench;
using namespace clean::wl;

int
main(int argc, char **argv)
{
    BenchConfig config = parseBench(argc, argv, "small");
    if (!config.options.has("workloads")) {
        config.workloads = {"lu_cb", "fft", "ocean_cp", "blackscholes",
                            "water_sp", "streamcluster"};
    }

    std::printf("=== Ablation: checking granularity "
                "(threads=%u, scale=%s) ===\n\n",
                config.threads,
                config.options.getString("scale", "small").c_str());
    std::printf("%-14s %12s %12s %9s\n", "benchmark", "byte[s]",
                "word[s]", "speedup");

    std::vector<double> speedups;
    for (const auto &name : config.workloads) {
        auto byteSpec = baseSpec(config, name, BackendKind::DetectOnly);
        auto wordSpec = byteSpec;
        wordSpec.runtime.checker.granuleLog2 = 2;
        const double byteTime = timedSeconds(byteSpec, config.repeats);
        const double wordTime = timedSeconds(wordSpec, config.repeats);
        if (byteTime <= 0 || wordTime <= 0) {
            std::printf("%-14s %12s  (word mode reported a race: "
                        "sub-word sharing)\n",
                        name.c_str(), "N/A");
            continue;
        }
        speedups.push_back(byteTime / wordTime);
        std::printf("%-14s %12.4f %12.4f %8.2fx\n", name.c_str(),
                    byteTime, wordTime, byteTime / wordTime);
    }
    std::printf("\ngeomean word-granularity speedup: %.2fx\n",
                geomean(speedups));

    // The cost: byte-granular sharing triggers false reports.
    std::printf("\nfalse-positive demonstration (dedup, race-free "
                "variant, byte-level pipeline):\n");
    auto dedupByte = baseSpec(config, "dedup", BackendKind::Clean);
    auto dedupWord = dedupByte;
    dedupWord.runtime.checker.granuleLog2 = 2;
    const auto rb = runWorkload(dedupByte);
    const auto rw = runWorkload(dedupWord);
    std::printf("  byte granularity: %s\n",
                rb.raceException ? rb.raceMessage.c_str()
                                 : "no exception (correct)");
    std::printf("  word granularity: %s\n",
                rw.raceException
                    ? (std::string("RACE REPORTED — ") + rw.raceMessage)
                          .c_str()
                    : "no exception");
    std::printf("\nthe paper checks per byte exactly because of this "
                "(§3.2): word granularity is\nsound only when the "
                "language cannot share sub-word data.\n");
    return 0;
}
