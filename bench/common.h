/**
 * @file
 * Shared glue for the figure/table reproduction benches.
 *
 * Every bench binary accepts:
 *   --scale=test|small|large   problem size (default test; the paper's
 *                              native/simlarge runs correspond to large)
 *   --threads=N                worker threads (default 8, as the paper)
 *   --repeats=N                timing repetitions (default 1)
 *   --workloads=a,b,c          comma-separated subset (default: all)
 *   --no-vectorize             disable the §4.4 multi-byte check
 *   --no-fast-path             disable the software same-epoch fast path
 *   --no-own-cache             disable the per-thread ownership cache
 *   --no-batch                 disable batched SFR-boundary read checks
 *   --batch-bytes=N            batched-read drain window (default 64 KiB)
 */

#ifndef CLEAN_BENCH_COMMON_H
#define CLEAN_BENCH_COMMON_H

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "support/options.h"
#include "workloads/registry.h"
#include "workloads/runner.h"

namespace clean::bench
{

/** Parsed common options. */
struct BenchConfig
{
    wl::Scale scale = wl::Scale::Test;
    unsigned threads = 8;
    unsigned repeats = 1;
    std::vector<std::string> workloads;
    Options options;
};

inline BenchConfig
parseBench(int argc, char **argv, const char *defaultScale = "test")
{
    BenchConfig config;
    config.options = Options::parse(argc, argv);
    const std::string scale =
        config.options.getString("scale", defaultScale);
    if (scale == "small")
        config.scale = wl::Scale::Small;
    else if (scale == "large")
        config.scale = wl::Scale::Large;
    config.threads =
        static_cast<unsigned>(config.options.getInt("threads", 8));
    config.repeats =
        static_cast<unsigned>(config.options.getInt("repeats", 1));
    const std::string subset = config.options.getString("workloads", "");
    if (subset.empty()) {
        config.workloads = wl::workloadNames();
    } else {
        std::size_t pos = 0;
        while (pos < subset.size()) {
            const std::size_t comma = subset.find(',', pos);
            const std::size_t end =
                comma == std::string::npos ? subset.size() : comma;
            config.workloads.push_back(subset.substr(pos, end - pos));
            pos = end + 1;
        }
    }
    return config;
}

/** Base RunSpec for a bench run. */
inline wl::RunSpec
baseSpec(const BenchConfig &config, const std::string &workload,
         wl::BackendKind backend, bool racy = false)
{
    wl::RunSpec spec;
    spec.workload = workload;
    spec.backend = backend;
    spec.params.threads = config.threads;
    spec.params.scale = config.scale;
    spec.params.racy = racy;
    spec.runtime.checker.vectorized =
        !config.options.getBool("no-vectorize", false);
    spec.runtime.checker.fastPath =
        !config.options.getBool("no-fast-path", false);
    spec.runtime.checker.ownCache =
        !config.options.getBool("no-own-cache", false);
    spec.runtime.checker.batch = !config.options.getBool("no-batch", false);
    spec.runtime.checker.batchBytes = static_cast<std::size_t>(
        config.options.getInt("batch-bytes",
                              static_cast<std::int64_t>(
                                  spec.runtime.checker.batchBytes)));
    spec.runtime.heap.sharedBytes = std::size_t{1} << 31;
    spec.runtime.heap.privateBytes = std::size_t{1} << 30;
    return spec;
}

/** Runs @p spec `repeats` times and returns the minimum wall time (the
 *  usual noise-robust estimator on a shared host), or -1 when a run
 *  raced, hit the watchdog or faulted on its trace: such a run did not
 *  finish the program, so its wall time is no measurement. */
inline double
timedSeconds(const wl::RunSpec &spec, unsigned repeats)
{
    double best = 1e300;
    for (unsigned r = 0; r < repeats; ++r) {
        const auto result = wl::runWorkload(spec);
        const std::string *failure =
            result.raceException ? &result.raceMessage
            : result.deadlock    ? &result.deadlockMessage
            : result.traceFault  ? &result.traceFaultMessage
                                 : nullptr;
        if (failure != nullptr) {
            std::fprintf(stderr, "unfinished run of %s under %s: %s\n",
                         spec.workload.c_str(),
                         wl::backendKindName(spec.backend),
                         failure->c_str());
            return -1.0;
        }
        best = std::min(best, result.seconds);
    }
    return best;
}

/** Geometric mean of positive values (ignores non-positive entries). */
inline double
geomean(const std::vector<double> &values)
{
    double logSum = 0;
    std::size_t n = 0;
    for (double v : values) {
        if (v > 0) {
            logSum += std::log(v);
            ++n;
        }
    }
    return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

inline double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0
                          : sum / static_cast<double>(values.size());
}

} // namespace clean::bench

#endif // CLEAN_BENCH_COMMON_H
