/**
 * @file
 * End-to-end benchmark driver for CLEAN (see README.md).
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--out-dir DIR] [--spawn-ns NS]
 *   perfbench_driver --self-test [--out-dir DIR]
 *
 * One operation is one kernel run through wl::runWorkload (or, for the
 * traced run, through the benchmark's own TracedCleanEnv) at
 * Scale::Large with 4 worker threads. A run repeats whole rounds of the
 * workload's operations until S seconds have passed, checks every
 * output, and prints one JSON result as the last line of stdout.
 * A run that raises a race, trips the watchdog or latches a trace fault
 * is a failed operation: counted, never timed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/trace_schema.h"
#include "support/options.h"
#include "support/timer.h"
#include "traced_env.h"
#include "workloads/registry.h"
#include "workloads/runner.h"

namespace
{

using clean::CheckerStats;
using clean::Timer;
using clean::wl::BackendKind;
using clean::wl::RunResult;
using clean::wl::RunSpec;
using perfbench::SpanKind;
using perfbench::SpanTotals;

constexpr unsigned kThreads = 4;
/** Native runs take 1-50 ms at large scale; several per round keep
 *  their median, the slowdown denominator, steady. */
constexpr unsigned kNativeRepeats = 5;

struct KernelDef
{
    std::string name;
    /** Also recorded and replayed each round. */
    bool recorded;
};

struct WorkloadDef
{
    std::string name;
    std::vector<KernelDef> kernels;
};

// Make-up and the Fig. 6 split behind each choice: README.md.
const std::vector<WorkloadDef> kWorkloads = {
    // Recording dedup or facesim writes 40-100 MB per run and takes up
    // to 7 s; radiosity's record time spreads twice as wide as barnes's.
    {"sync-bound",
     {{"dedup", false},
      {"facesim", false},
      {"radiosity", false},
      {"fmm", false},
      {"barnes", true}}},
    {"check-bound",
     {{"fft", true},
      {"ocean_cp", true},
      {"ocean_ncp", true},
      {"lu_cb", true},
      {"lu_ncb", true},
      {"radix", true}}},
    {"record-replay",
     {{"lu_cb", true},
      {"x264", true},
      {"barnes", true},
      {"streamcluster", true}}},
};

/** Kernels whose result does not depend on the schedule: CLEAN's
 *  outputHash equals a native run's with the same seed. */
const std::set<std::string> kOutputExact = {
    "fft", "ocean_cp", "ocean_ncp", "lu_cb", "lu_ncb", "radix",
    "x264", "streamcluster"};

/** Statically partitioned kernels: CLEAN's checked access count equals
 *  NativeEnv's own count. */
const std::set<std::string> kAccessExact = {
    "facesim", "fft", "ocean_cp", "ocean_ncp", "lu_cb",
    "lu_ncb", "radix", "streamcluster"};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The kernel's input seed: a function of the benchmark seed only. */
std::uint64_t
kernelSeed(std::uint64_t seed, const std::string &kernel)
{
    std::uint64_t h = seed;
    for (char c : kernel)
        h = splitmix64(h ^ static_cast<unsigned char>(c));
    return h;
}

RunSpec
specFor(const std::string &kernel, std::uint64_t seed, BackendKind backend)
{
    RunSpec spec;
    spec.workload = kernel;
    spec.backend = backend;
    spec.params.threads = kThreads;
    spec.params.scale = clean::wl::Scale::Large;
    spec.params.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------
// Output checks. Each is a pure function of run results so that the
// self-test can show it failing on a negative-control input.

/** Why @p r is a failed operation, or "" when it completed. */
std::string
failureOf(const RunResult &r)
{
    if (r.raceException || r.raceCount != 0)
        return "race: " + r.raceMessage;
    if (r.deadlock)
        return "watchdog: " + r.deadlockMessage;
    if (r.traceFault)
        return "trace fault " + r.traceFaultKind + ": " + r.traceFaultMessage;
    return "";
}

bool
outputsMatch(const RunResult &clean, const RunResult &native)
{
    return clean.outputHash == native.outputHash;
}

bool
accessesMatch(const RunResult &clean, const RunResult &native)
{
    return clean.checker.accesses() == native.reads + native.writes;
}

/** Why @p replayed does not reproduce @p recorded, or "" when it does. */
std::string
replayMismatch(const RunResult &recorded, const RunResult &replayed)
{
    if (replayed.traceFault)
        return "trace fault " + replayed.traceFaultKind + ": " +
               replayed.traceFaultMessage;
    if (replayed.failureReport != recorded.failureReport)
        return "failure report differs";
    if (!(replayed.fingerprint() == recorded.fingerprint()))
        return "fingerprint differs";
    return "";
}

class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++checked_;
        if (!ok) {
            ++failedChecks_;
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }

    bool allPassed() const { return failedChecks_ == 0; }
    unsigned checked() const { return checked_; }

  private:
    unsigned checked_ = 0;
    unsigned failedChecks_ = 0;
};

// ---------------------------------------------------------------------
// Operations.

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string &kernel, const char *mode, const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "failed operation: %s %s: %s\n", kernel.c_str(),
                     mode, why.c_str());
    }
};

/** Runs one operation; nullopt when it failed. @p outsideS receives the
 *  wall time runWorkload spent outside the kernel's timed region. */
std::optional<RunResult>
runOp(Tally &tally, const RunSpec &spec, const char *mode,
      double *outsideS = nullptr)
{
    ++tally.attempted;
    const Timer wall;
    RunResult r;
    try {
        r = clean::wl::runWorkload(spec);
    } catch (const std::exception &e) {
        tally.fail(spec.workload, mode, e.what());
        return std::nullopt;
    }
    if (outsideS != nullptr)
        *outsideS = wall.elapsedSeconds() - r.seconds;
    const std::string why = failureOf(r);
    if (!why.empty()) {
        tally.fail(spec.workload, mode, why);
        return std::nullopt;
    }
    return r;
}

struct TracedRun
{
    double seconds = 0;
    RunResult::Fingerprint fingerprint;
    SpanTotals spans;
};

/** Full CLEAN through TracedCleanEnv; mirrors runWorkload's Clean path
 *  without record/replay. */
std::optional<TracedRun>
runTraced(Tally &tally, const RunSpec &spec, std::string &chromeEvents,
          unsigned pid)
{
    ++tally.attempted;
    clean::RuntimeConfig config = spec.runtime;
    config.detection = true;
    config.deterministic = true;
    clean::CleanRuntime rt(config);
    perfbench::TracedCleanEnv env(rt, spec.params.seed);
    std::string why;
    const Timer timer;
    try {
        clean::wl::findWorkload(spec.workload).run(env, spec.params);
        rt.mainContext().drainBatch();
    } catch (const std::exception &e) {
        why = e.what();
    }
    TracedRun run;
    run.seconds = timer.elapsedSeconds();
    if (rt.raceOccurred() || rt.deadlockOccurred()) {
        if (why.empty())
            why = rt.raceOccurred() ? "race" : "watchdog";
    }
    if (!why.empty()) {
        tally.fail(spec.workload, "traced", why);
        return std::nullopt;
    }
    const CheckerStats stats = rt.aggregatedCheckerStats();
    run.fingerprint = {env.totals().outputHash, stats.accesses(),
                       rt.finalDetCounts()};
    run.spans = env.spanTotals();
    chromeEvents.clear();
    env.appendChromeEvents(chromeEvents, pid, spec.workload);
    return run;
}

// ---------------------------------------------------------------------
// Per-kernel samples and the run loop.

struct KernelSamples
{
    std::string name;
    std::uint64_t seed = 0;
    bool recorded = false;
    std::string tracePath;

    std::vector<double> clean, cleanCpu, native, record, replay, traceMb;
    std::vector<double> traced, detect, kendo, readTrace;
    std::vector<double> bodyS, outsideSyncS, lockS, releaseS, waitS,
        parallelS;

    std::optional<RunResult::Fingerprint> fingerprint;
    CheckerStats checker;
    std::uint64_t detectAccesses = 0;
    std::uint64_t detTicks = 0;
    std::uint64_t traceEvents = 0;
    SpanTotals spans;
    std::string chromeEvents;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

class Bench
{
  public:
    Bench(const WorkloadDef &def, std::uint64_t seed, bool trace,
          const std::filesystem::path &outDir)
        : trace_(trace)
    {
        for (const KernelDef &kernel : def.kernels) {
            KernelSamples k;
            k.name = kernel.name;
            k.seed = kernelSeed(seed, kernel.name);
            k.recorded = kernel.recorded;
            k.tracePath = (outDir / (def.name + "." + kernel.name +
                                     ".cleantrace"))
                              .string();
            kernels_.push_back(std::move(k));
        }
    }

    void
    round()
    {
        for (unsigned i = 0; i < kernels_.size(); ++i)
            runKernel(kernels_[i], i);
    }

    /** Wall time of the first full-CLEAN runWorkload call outside its
     *  timed region: the cold runtime construction and teardown. */
    double coldOutsideS() const { return coldOutsideS_; }

    const std::vector<KernelSamples> &kernels() const { return kernels_; }
    const Tally &tally() const { return tally_; }
    const Checks &checks() const { return checks_; }

    void
    removeTraces() const
    {
        for (const KernelSamples &k : kernels_)
            std::filesystem::remove(k.tracePath);
    }

  private:
    void
    sameFingerprint(KernelSamples &k, const RunResult::Fingerprint &fp,
                    const char *mode)
    {
        if (!k.fingerprint) {
            k.fingerprint = fp;
            return;
        }
        checks_.expect(*k.fingerprint == fp,
                       k.name + ": " + mode +
                           " run's fingerprint differs from the first "
                           "run's");
    }

    void
    runKernel(KernelSamples &k, unsigned index)
    {
        const RunSpec cleanSpec = specFor(k.name, k.seed, BackendKind::Clean);
        const bool cold = !coldMeasured_;
        double outside = 0;
        const auto c = runOp(tally_, cleanSpec, "clean", &outside);
        if (c) {
            if (cold) {
                coldOutsideS_ = outside;
                coldMeasured_ = true;
            }
            k.clean.push_back(c->seconds);
            k.cleanCpu.push_back(c->cpuSeconds);
            k.checker = c->checker;
            k.detTicks = 0;
            for (const auto count : c->detCounts)
                k.detTicks += count;
            sameFingerprint(k, c->fingerprint(), "clean");
        }

        for (unsigned r = 0; r < kNativeRepeats; ++r) {
            const auto n = runOp(
                tally_, specFor(k.name, k.seed, BackendKind::Native),
                "native");
            if (!n)
                continue;
            k.native.push_back(n->seconds);
            if (c && kOutputExact.count(k.name))
                checks_.expect(outputsMatch(*c, *n),
                               k.name + ": CLEAN output differs from the "
                                        "native output");
            if (c && kAccessExact.count(k.name))
                checks_.expect(accessesMatch(*c, *n),
                               k.name + ": CLEAN access count differs "
                                        "from the native count");
        }

        if (trace_) {
            const auto t = runTraced(tally_, cleanSpec, k.chromeEvents, index);
            if (t) {
                k.traced.push_back(t->seconds);
                sameFingerprint(k, t->fingerprint, "traced");
                const SpanTotals &s = t->spans;
                const std::int64_t body = s.nsOf(SpanKind::Body);
                const std::int64_t lock = s.nsOf(SpanKind::Lock);
                const std::int64_t release =
                    s.nsOf(SpanKind::Unlock) + s.nsOf(SpanKind::CondSignal) +
                    s.nsOf(SpanKind::CondBroadcast);
                const std::int64_t wait =
                    s.nsOf(SpanKind::Barrier) + s.nsOf(SpanKind::CondWait);
                k.bodyS.push_back(seconds(body));
                k.outsideSyncS.push_back(
                    seconds(body - lock - release - wait));
                k.lockS.push_back(seconds(lock));
                k.releaseS.push_back(seconds(release));
                k.waitS.push_back(seconds(wait));
                k.parallelS.push_back(seconds(s.parallelNs));
                k.spans = s;
            }
            if (const auto d = runOp(
                    tally_, specFor(k.name, k.seed, BackendKind::DetectOnly),
                    "detect-only")) {
                k.detect.push_back(d->seconds);
                k.detectAccesses = d->checker.accesses();
            }
            if (const auto o = runOp(
                    tally_, specFor(k.name, k.seed, BackendKind::KendoOnly),
                    "kendo-only"))
                k.kendo.push_back(o->seconds);
        }

        if (k.recorded)
            recordAndReplay(k, cleanSpec);
    }

    void
    recordAndReplay(KernelSamples &k, const RunSpec &cleanSpec)
    {
        RunSpec recordSpec = cleanSpec;
        recordSpec.recordPath = k.tracePath;
        const auto rec = runOp(tally_, recordSpec, "record");
        if (rec) {
            k.record.push_back(rec->seconds);
            k.traceMb.push_back(
                static_cast<double>(std::filesystem::file_size(k.tracePath)) /
                (1024.0 * 1024.0));
            sameFingerprint(k, rec->fingerprint(), "record");
        }

        RunSpec replaySpec = cleanSpec;
        replaySpec.replayPath = k.tracePath;
        const auto rep = runOp(tally_, replaySpec, "replay");
        if (rep) {
            k.replay.push_back(rep->seconds);
            if (rec) {
                const std::string why = replayMismatch(*rec, *rep);
                checks_.expect(why.empty(),
                               k.name + ": replay does not reproduce the "
                                        "recorded run: " + why);
            }
        }

        if (trace_ && rec) {
            const Timer read;
            try {
                const clean::obs::TraceFile file =
                    clean::obs::readTraceFile(k.tracePath);
                k.readTrace.push_back(read.elapsedSeconds());
                k.traceEvents = file.events.size();
                checks_.expect(file.complete,
                               k.name + ": recorded trace has no footer");
            } catch (const clean::TraceError &e) {
                checks_.expect(false, k.name + ": recorded trace does not "
                                               "load: " + e.what());
            }
        }
    }

    bool trace_;
    std::vector<KernelSamples> kernels_;
    Tally tally_;
    Checks checks_;
    bool coldMeasured_ = false;
    double coldOutsideS_ = 0;
};

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Sum over kernels of a sample's median; a kernel without samples
 *  (record samples of a kernel outside the record set) adds 0. */
double
sumMedian(const std::vector<KernelSamples> &ks,
          std::vector<double> KernelSamples::*field)
{
    double total = 0;
    for (const KernelSamples &k : ks)
        total += median(k.*field);
    return total;
}

std::vector<Metric>
endToEndMetrics(const Bench &bench, double setupS)
{
    const auto &ks = bench.kernels();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    return {
        {"clean_s", sumMedian(ks, &KernelSamples::clean), "s"},
        {"cpu_s", sumMedian(ks, &KernelSamples::cleanCpu), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
        {"setup_s", setupS, "s"},
        {"record_s", sumMedian(ks, &KernelSamples::record), "s"},
        {"replay_s", sumMedian(ks, &KernelSamples::replay), "s"},
        {"trace_mb", sumMedian(ks, &KernelSamples::traceMb), "MiB"},
    };
}

std::vector<Metric>
perLayerMetrics(const Bench &bench)
{
    const auto &ks = bench.kernels();
    CheckerStats checker;
    SpanTotals spans;
    double detTicks = 0;
    double detectAccesses = 0;
    double traceEvents = 0;
    double recordedClean = 0;
    for (const KernelSamples &k : ks) {
        checker.merge(k.checker);
        for (std::size_t i = 0; i < perfbench::kSpanKinds; ++i) {
            spans.ns[i] += k.spans.ns[i];
            spans.calls[i] += k.spans.calls[i];
        }
        detTicks += static_cast<double>(k.detTicks);
        detectAccesses += static_cast<double>(k.detectAccesses);
        if (k.recorded) {
            traceEvents += static_cast<double>(k.traceEvents);
            recordedClean += median(k.clean);
        }
    }
    const double nativeS = sumMedian(ks, &KernelSamples::native);
    const double detectS = sumMedian(ks, &KernelSamples::detect);
    const double lockS = sumMedian(ks, &KernelSamples::lockS);
    const double releaseS = sumMedian(ks, &KernelSamples::releaseS);
    const double waitS = sumMedian(ks, &KernelSamples::waitS);
    const double syncCalls = static_cast<double>(
        spans.callsOf(SpanKind::Lock) + spans.callsOf(SpanKind::Unlock) +
        spans.callsOf(SpanKind::Barrier) + spans.callsOf(SpanKind::CondWait) +
        spans.callsOf(SpanKind::CondSignal) +
        spans.callsOf(SpanKind::CondBroadcast));
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    return {
        {"layer.app.native_s", nativeS, "s"},
        {"layer.worker.thread_s", sumMedian(ks, &KernelSamples::bodyS), "s"},
        {"layer.worker.outside_sync_s",
         sumMedian(ks, &KernelSamples::outsideSyncS), "s"},
        {"layer.check.detect_only_s", detectS, "s"},
        {"layer.check.ns_per_access",
         detectAccesses > 0 ? (detectS - nativeS) / detectAccesses * 1e9 : 0,
         "ns"},
        {"layer.check.accesses", count(checker.accesses()), "count"},
        {"layer.check.epoch_updates", count(checker.epochUpdates), "count"},
        {"layer.check.wide_cas", count(checker.wideCasUpdates), "count"},
        {"layer.check.batch_runs", count(checker.batchRuns), "count"},
        {"layer.check.batch_drains", count(checker.batchDrains), "count"},
        {"layer.check.batch_overflow_drains",
         count(checker.batchOverflowDrains), "count"},
        {"layer.check.own_cache_hits", count(checker.ownCacheHits()),
         "count"},
        {"layer.check.own_cache_misses", count(checker.ownCacheMisses),
         "count"},
        {"layer.check.own_cache_flushes", count(checker.ownCacheFlushes),
         "count"},
        {"layer.sync.kendo_only_s", sumMedian(ks, &KernelSamples::kendo),
         "s"},
        {"layer.sync.lock_s", lockS, "s"},
        {"layer.sync.release_s", releaseS, "s"},
        {"layer.sync.wait_s", waitS, "s"},
        {"layer.sync.parallel_s", sumMedian(ks, &KernelSamples::parallelS),
         "s"},
        {"layer.sync.lock_ops", count(spans.callsOf(SpanKind::Lock)),
         "count"},
        {"layer.sync.barrier_ops", count(spans.callsOf(SpanKind::Barrier)),
         "count"},
        {"layer.sync.cond_ops",
         count(spans.callsOf(SpanKind::CondWait) +
               spans.callsOf(SpanKind::CondSignal) +
               spans.callsOf(SpanKind::CondBroadcast)),
         "count"},
        {"layer.sync.ns_per_op",
         syncCalls > 0 ? (lockS + releaseS + waitS) / syncCalls * 1e9 : 0,
         "ns"},
        {"layer.sync.det_ticks", detTicks, "count"},
        {"layer.obs.record_overhead_s",
         sumMedian(ks, &KernelSamples::record) - recordedClean, "s"},
        {"layer.obs.trace_events", traceEvents, "count"},
        {"layer.replay.read_trace_s",
         sumMedian(ks, &KernelSamples::readTrace), "s"},
        {"trace.overhead_s",
         sumMedian(ks, &KernelSamples::traced) -
             sumMedian(ks, &KernelSamples::clean),
         "s"},
    };
}

void
writeChromeTrace(const Bench &bench, const std::filesystem::path &path)
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const KernelSamples &k : bench.kernels()) {
        if (k.chromeEvents.empty())
            continue;
        if (!first)
            out << ",\n";
        out << k.chromeEvents;
        first = false;
    }
    out << "\n]}\n";
}

void
printResult(const Bench &bench, const std::vector<Metric> &metrics)
{
    std::printf("%-14s %5s %10s %10s %9s %10s %10s\n", "kernel", "runs",
                "clean[s]", "native[s]", "slowdown", "record[s]",
                "replay[s]");
    double logSum = 0;
    for (const KernelSamples &k : bench.kernels()) {
        const double slowdown = median(k.clean) / median(k.native);
        logSum += std::log(slowdown);
        std::printf("%-14s %5zu %10.4f %10.4f %8.2fx %10.4f %10.4f\n",
                    k.name.c_str(), k.clean.size(), median(k.clean),
                    median(k.native), slowdown, median(k.record),
                    median(k.replay));
    }
    // Not a gated metric: the native medians of 1-50 ms runs, and the
    // short sync-bound kernels, swing too far between runs (README.md).
    std::printf("slowdown geomean %.2fx\n\n",
                std::exp(logSum /
                         static_cast<double>(bench.kernels().size())));
    std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::printf("%-36s %18.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                bench.checks().allPassed() ? "true" : "false",
                static_cast<unsigned long long>(bench.tally().attempted),
                static_cast<unsigned long long>(bench.tally().failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

// ---------------------------------------------------------------------
// Self-test: every output check fails on its negative-control input.

int
selfTest(const std::filesystem::path &outDir)
{
    unsigned bad = 0;
    auto expect = [&bad](bool ok, const char *what) {
        std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
        bad += ok ? 0 : 1;
    };
    const std::uint64_t seed = kernelSeed(1, "self-test");

    RunSpec racy = specFor("radix", seed, BackendKind::Clean);
    racy.params.racy = true;
    expect(failureOf(clean::wl::runWorkload(
               specFor("radix", seed, BackendKind::Clean))).empty(),
           "race-free radix passes the no-race check");
    expect(!failureOf(clean::wl::runWorkload(racy)).empty(),
           "racy radix fails the no-race check");

    const RunResult fft =
        clean::wl::runWorkload(specFor("fft", seed, BackendKind::Clean));
    expect(outputsMatch(fft, clean::wl::runWorkload(
                                 specFor("fft", seed, BackendKind::Native))),
           "native fft with the same seed passes the output check");
    expect(!outputsMatch(fft, clean::wl::runWorkload(specFor(
                                  "fft", seed + 1, BackendKind::Native))),
           "native fft with another seed fails the output check");

    std::filesystem::create_directories(outDir);
    const std::string tracePath = (outDir / "self-test.cleantrace").string();
    const std::string cutPath = (outDir / "self-test.cut.cleantrace").string();
    RunSpec spec = specFor("lu_cb", seed, BackendKind::Clean);
    spec.recordPath = tracePath;
    const RunResult recorded = clean::wl::runWorkload(spec);
    spec.recordPath.clear();
    spec.replayPath = tracePath;
    expect(replayMismatch(recorded, clean::wl::runWorkload(spec)).empty(),
           "replay of the intact lu_cb trace passes the replay check");

    // Keep the header and about half of the event records.
    const auto size = std::filesystem::file_size(tracePath);
    std::filesystem::copy_file(
        tracePath, cutPath, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(cutPath, size / 2);
    spec.replayPath = cutPath;
    bool cutFails = true;
    try {
        cutFails = !replayMismatch(recorded, clean::wl::runWorkload(spec))
                        .empty();
    } catch (const clean::TraceError &) {
        // Refused before the run: also a failed replay check.
    }
    expect(cutFails, "replay of a truncated lu_cb trace fails the replay "
                     "check");
    std::filesystem::remove(tracePath);
    std::filesystem::remove(cutPath);
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto mainEntry = std::chrono::steady_clock::now();
    try {
        const clean::Options opts = clean::Options::parse(argc, argv);
        const std::filesystem::path outDir =
            opts.getString("out-dir", ".bench_build/perfbench-out");
        if (opts.getBool("self-test", false))
            return selfTest(outDir);

        const std::string name = opts.getString("workload", "");
        const auto def =
            std::find_if(kWorkloads.begin(), kWorkloads.end(),
                         [&](const WorkloadDef &w) { return w.name == name; });
        if (def == kWorkloads.end()) {
            std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
            return 2;
        }
        const auto seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
        const double runSeconds = opts.getDouble("seconds", 10);
        const bool trace = opts.getInt("trace", 0) != 0;
        // Monotonic time at which the caller spawned this process; the
        // cold set-up is timed from there.
        const std::int64_t spawnNs = opts.getInt("spawn-ns", 0);

        std::filesystem::create_directories(outDir);
        Bench bench(*def, seed, trace, outDir);
        const Timer run;
        unsigned rounds = 0;
        do {
            bench.round();
            ++rounds;
        } while (run.elapsedSeconds() < runSeconds);
        bench.removeTraces();
        std::fprintf(stderr, "%s seed %llu: %u rounds in %.1f s, %u checks\n",
                     name.c_str(), static_cast<unsigned long long>(seed),
                     rounds, run.elapsedSeconds(), bench.checks().checked());

        if (trace) {
            const auto path =
                outDir / (name + ".seed" + std::to_string(seed) +
                          ".trace.json");
            writeChromeTrace(bench, path);
            std::fprintf(stderr, "chrome trace: %s\n", path.c_str());
            printResult(bench, perLayerMetrics(bench));
        } else {
            const std::int64_t entryNs =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    mainEntry.time_since_epoch())
                    .count();
            const double spawnToMain =
                spawnNs > 0 && spawnNs <= entryNs ? seconds(entryNs - spawnNs)
                                                  : 0.0;
            printResult(bench, endToEndMetrics(
                                   bench, spawnToMain + bench.coldOutsideS()));
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
