/**
 * @file
 * cleanrun — command-line driver for the CLEAN reproduction.
 *
 * Runs any suite workload under any backend and prints the full
 * measurement record; can also record traces to disk and replay them on
 * the hardware simulator.
 *
 *   cleanrun --list
 *   cleanrun --workload=raytrace --backend=clean --racy
 *   cleanrun --workload=fft --backend=fasttrack --threads=4
 *   cleanrun --workload=ocean_cp --backend=trace --trace-out=o.trc
 *   cleanrun --trace-in=o.trc --sim --epoch-mode=4B
 *   cleanrun --workload=radix --racy --on-race=report --report-json
 *   cleanrun --workload=fft --inject-seed=7 --inject-kill=0.0001
 *
 * Backends: native, clean, detect-only, kendo-only, fasttrack,
 * tsan-lite, trace. Scales: test, small, large.
 *
 * Robustness knobs (clean backends):
 *   --on-race=throw|report|count|recover   race response policy
 *   --max-recoveries=N             recover: episodes per site before
 *                                  the site is quarantined (default 8)
 *   --watchdog-ms=N                deadlock watchdog (0 = off)
 *   --report-json                  print the structured failure report
 *   --inject-seed=S                enable deterministic fault injection
 *   --inject-skip-check=R --inject-skip-acquire=R --inject-delay=R
 *   --inject-rollover=R --inject-kill=R      per-site fault rates
 *   --inject-delay-us=N            stall length of one Delay fault
 *
 * Observability (clean backends; see DESIGN.md §11):
 *   --obs                          enable the flight recorder
 *   --obs-ring=N --obs-tail=N      ring capacity / failure-report tail
 *   --trace-out=PATH               write the merged event stream as
 *                                  Chrome trace-event JSON (Perfetto);
 *                                  implies --obs. (For --backend=trace
 *                                  the flag keeps its original meaning:
 *                                  the simulator memory trace.)
 *   --metrics-json=PATH            write the metrics snapshot (counters
 *                                  + histograms); "-" = stdout; implies
 *                                  --obs. With --runs=N the file holds
 *                                  the last run.
 *
 * Always-on production mode (clean backend; see DESIGN.md §15):
 *   --overhead-budget=PCT          enforce a detection-overhead SLO:
 *                                  a deterministic sampling gate sheds
 *                                  read checks while a governor adapts
 *                                  the admission level to keep measured
 *                                  overhead near PCT% (1..100; 100
 *                                  admits everything = sampling off)
 *   --sample-force-level=N         pin the admission level (disables
 *                                  the governor and calibration; for
 *                                  tests and benchmarks)
 *   --sample-calib-log2=N          calibrate on every 2^N-th SFR
 *                                  (0 disables calibration; default 6)
 *
 * Record/replay (deterministic backends; see DESIGN.md §13):
 *   --record=PATH                  record this run's deterministic
 *                                  schedule + config to PATH
 *   --replay=PATH                  re-drive a recorded run; the spec is
 *                                  rebuilt from the trace header, and
 *                                  any explicitly passed flag that
 *                                  contradicts it is a config-mismatch
 *                                  trace fault (exit 6)
 *   --report-out=PATH              write the failure report JSON to a
 *                                  file (byte-comparable across a
 *                                  record/replay pair)
 *
 * Exit codes (see support/exit_codes.h): 0 ok / fully recovered,
 * 1 internal error, 2 option error, 3 race, 4 watchdog deadlock,
 * 5 recovery quarantine exhausted, 6 record/replay trace fault
 * (unreadable / truncated / mismatched / diverged trace). With
 * --runs=N the first non-zero code wins (trace fault > deadlock >
 * quarantine > race within one run).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/trace_schema.h"
#include "sim/machine.h"
#include "support/exit_codes.h"
#include "support/logging.h"
#include "support/options.h"
#include "support/trace_error.h"
#include "workloads/registry.h"
#include "workloads/runner.h"

using namespace clean;
using namespace clean::wl;

namespace
{

BackendKind
parseBackend(const std::string &name)
{
    if (name == "native")
        return BackendKind::Native;
    if (name == "clean")
        return BackendKind::Clean;
    if (name == "detect-only")
        return BackendKind::DetectOnly;
    if (name == "kendo-only")
        return BackendKind::KendoOnly;
    if (name == "fasttrack")
        return BackendKind::FastTrack;
    if (name == "tsan-lite")
        return BackendKind::TsanLite;
    if (name == "trace")
        return BackendKind::Trace;
    fatal("unknown backend '%s'", name.c_str());
}

Scale
parseScale(const std::string &name)
{
    if (name == "test")
        return Scale::Test;
    if (name == "small")
        return Scale::Small;
    if (name == "large")
        return Scale::Large;
    fatal("unknown scale '%s'", name.c_str());
}

OnRacePolicy
parseOnRace(const std::string &name)
{
    if (name == "throw")
        return OnRacePolicy::Throw;
    if (name == "report")
        return OnRacePolicy::Report;
    if (name == "count")
        return OnRacePolicy::Count;
    if (name == "recover")
        return OnRacePolicy::Recover;
    fatal("unknown on-race policy '%s' (throw|report|count|recover)",
          name.c_str());
}

bool
writeTextFile(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fwrite(content.data(), 1, content.size(), stdout);
        std::fputc('\n', stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                    content.size();
    return std::fclose(f) == 0 && ok;
}

int
simulateFromFile(const Options &opts)
{
    Trace trace;
    const std::string path = opts.getString("trace-in");
    if (!loadTrace(path, trace))
        fatal("cannot load trace '%s'", path.c_str());
    std::printf("loaded %s: %s\n", path.c_str(),
                trace.summary().c_str());

    sim::MachineConfig config;
    config.raceDetection = !opts.getBool("no-detection", false);
    const std::string mode = opts.getString("epoch-mode", "clean");
    if (mode == "1B")
        config.epochMode = sim::EpochMode::Byte1;
    else if (mode == "4B")
        config.epochMode = sim::EpochMode::Byte4;

    const auto stats = sim::simulate(trace, config);
    std::printf("cycles: %llu  instructions: %llu  accesses: %llu  "
                "sync: %llu\n",
                static_cast<unsigned long long>(stats.totalCycles),
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.memoryAccesses),
                static_cast<unsigned long long>(stats.syncOps));
    StatSet statSet;
    stats.exportTo(statSet, "sim");
    std::printf("%s", statSet.format().c_str());
    return 0;
}

int runMain(const Options &opts);
int runLoop(const Options &opts, RunSpec &spec, bool replaying);

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(Options::parse(argc, argv));
    } catch (const OptionError &e) {
        std::fprintf(stderr, "cleanrun: %s\n", e.what());
        return 2;
    } catch (const TraceError &e) {
        // Structured record/replay rejection: fault kind + message (and
        // step index for mid-replay divergence/truncation).
        std::fprintf(stderr, "cleanrun: %s\n", e.what());
        return static_cast<int>(ExitCode::TraceError);
    }
}

namespace
{

int
runMain(const Options &opts)
{

    if (opts.has("list")) {
        std::printf("%-14s %-8s %-6s %s\n", "workload", "suite", "racy",
                    "in-modified-suite");
        for (const auto &name : workloadNames()) {
            Workload &w = findWorkload(name);
            std::printf("%-14s %-8s %-6s %s\n", name.c_str(), w.suite(),
                        w.hasRacyVariant() ? "yes" : "no",
                        w.excludedFromModified() ? "no" : "yes");
        }
        return 0;
    }

    if (opts.has("trace-in") && opts.getBool("sim", true))
        return simulateFromFile(opts);

    const std::string recordPath = opts.getString("record", "");
    const std::string replayPath = opts.getString("replay", "");
    if (!recordPath.empty() && !replayPath.empty())
        throw OptionError("record", recordPath,
                          "--record and --replay are mutually exclusive");

    RunSpec spec;
    if (!replayPath.empty()) {
        // Replay: the trace header is the spec. Explicitly passed flags
        // still override — a contradiction then surfaces as a
        // ConfigMismatch trace fault (the directed way to probe a trace
        // against a different configuration).
        spec = specFromTraceMeta(obs::readTraceFile(replayPath).meta);
        spec.replayPath = replayPath;
        if (opts.has("workload"))
            spec.workload = opts.getString("workload");
        if (opts.has("backend"))
            spec.backend = parseBackend(opts.getString("backend"));
        if (opts.has("threads"))
            spec.params.threads =
                static_cast<unsigned>(opts.getInt("threads", 8));
        if (opts.has("scale"))
            spec.params.scale = parseScale(opts.getString("scale"));
        if (opts.has("racy"))
            spec.params.racy = opts.getBool("racy", false);
        if (opts.has("seed"))
            spec.params.seed =
                static_cast<std::uint64_t>(opts.getInt("seed", 0));
        if (opts.has("on-race"))
            spec.runtime.onRace =
                parseOnRace(opts.getString("on-race"));
        if (opts.has("watchdog-ms"))
            spec.runtime.watchdogMs = static_cast<std::uint64_t>(
                opts.getInt("watchdog-ms", 10000));
        if (opts.has("overhead-budget"))
            spec.runtime.overheadBudget = static_cast<std::uint32_t>(
                opts.getInt("overhead-budget", 0));
    }
    spec.recordPath = recordPath;
    if (!replayPath.empty())
        return runLoop(opts, spec, /*replaying=*/true);

    spec.workload = opts.getString("workload", "fft");
    spec.backend = parseBackend(opts.getString("backend", "clean"));
    spec.params.threads =
        static_cast<unsigned>(opts.getInt("threads", 8));
    spec.params.scale = parseScale(opts.getString("scale", "test"));
    spec.params.racy = opts.getBool("racy", false);
    spec.params.seed =
        static_cast<std::uint64_t>(opts.getInt("seed", 0xc0ffee));
    spec.runtime.checker.vectorized = !opts.getBool("no-vectorize", false);
    spec.runtime.checker.fastPath = !opts.getBool("no-fast-path", false);
    spec.runtime.checker.ownCache = !opts.getBool("no-own-cache", false);
    spec.runtime.checker.batch = !opts.getBool("no-batch", false);
    if (opts.has("batch-bytes")) {
        const std::int64_t bb = opts.getInt("batch-bytes", 65536);
        if (bb < 64 || bb > (std::int64_t{1} << 30))
            fatal("--batch-bytes=%lld out of range (64..2^30)",
                  static_cast<long long>(bb));
        spec.runtime.checker.batchBytes = static_cast<std::size_t>(bb);
    }
    spec.runtime.checker.granuleLog2 =
        static_cast<unsigned>(opts.getInt("granule-log2", 0));
    if (opts.getBool("locked-atomicity", false))
        spec.runtime.checker.atomicity = AtomicityMode::Locked;
    if (opts.getString("shadow", "linear") == "sparse")
        spec.runtime.shadow = ShadowKind::Sparse;
    const unsigned clockBits =
        static_cast<unsigned>(opts.getInt("clock-bits", 23));
    if (clockBits < 4 || clockBits > 30)
        fatal("--clock-bits=%u out of range (4..30)", clockBits);
    const unsigned tidBits = std::min(8u, 31 - clockBits);
    spec.runtime.checker.epoch = EpochConfig{clockBits, tidBits};
    // Every live thread (workers + the main thread) needs a distinct
    // tid in `tidBits` bits, or epochs would silently mispack.
    const unsigned live = spec.params.threads + 1;
    if (live > spec.runtime.checker.epoch.maxThreads()) {
        fatal("--clock-bits=%u leaves %u tid bits (at most %u live "
              "threads including main) but --threads=%u needs %u; "
              "lower --threads or --clock-bits",
              clockBits, tidBits,
              static_cast<unsigned>(spec.runtime.checker.epoch.maxThreads()),
              spec.params.threads, live);
    }
    if (spec.runtime.maxThreads > spec.runtime.checker.epoch.maxThreads()) {
        // Loudly adapt the slot-table capacity to the narrower tid
        // space instead of tripping the runtime's assert.
        warn("--clock-bits=%u narrows the tid space: capping maxThreads "
             "%u -> %u",
             clockBits, static_cast<unsigned>(spec.runtime.maxThreads),
             static_cast<unsigned>(spec.runtime.checker.epoch.maxThreads()));
        spec.runtime.maxThreads = spec.runtime.checker.epoch.maxThreads();
    }
    spec.runtime.onRace = parseOnRace(opts.getString("on-race", "throw"));
    spec.runtime.maxRecoveries =
        static_cast<std::uint32_t>(opts.getInt("max-recoveries", 8));
    spec.runtime.watchdogMs = static_cast<std::uint64_t>(
        opts.getInt("watchdog-ms", 10000));
    if (opts.has("overhead-budget")) {
        const std::int64_t budget = opts.getInt("overhead-budget", 10);
        if (budget < 1 || budget > 100)
            fatal("--overhead-budget=%lld out of range (1..100)",
                  static_cast<long long>(budget));
        spec.runtime.overheadBudget = static_cast<std::uint32_t>(budget);
    }
    if (opts.has("sample-force-level")) {
        const std::int64_t level = opts.getInt("sample-force-level", 0);
        if (level < 0 || level > SampleGate::kMaxLevel)
            fatal("--sample-force-level=%lld out of range (0..%u)",
                  static_cast<long long>(level), SampleGate::kMaxLevel);
        spec.runtime.sampleForceLevel = static_cast<std::int32_t>(level);
    }
    if (opts.has("sample-calib-log2")) {
        const std::int64_t calib = opts.getInt("sample-calib-log2", 6);
        if (calib < 0 || calib > 20)
            fatal("--sample-calib-log2=%lld out of range (0..20)",
                  static_cast<long long>(calib));
        spec.runtime.sampleCalibLog2 = static_cast<unsigned>(calib);
    }
    if (opts.has("inject-seed")) {
        auto &inject = spec.runtime.inject;
        inject.enabled = true;
        inject.seed =
            static_cast<std::uint64_t>(opts.getInt("inject-seed", 1));
        inject.skipCheckRate = opts.getDouble("inject-skip-check", 0);
        inject.skipAcquireRate = opts.getDouble("inject-skip-acquire", 0);
        inject.delayRate = opts.getDouble("inject-delay", 0);
        inject.rolloverRate = opts.getDouble("inject-rollover", 0);
        inject.killRate = opts.getDouble("inject-kill", 0);
        inject.delayMicros = static_cast<std::uint32_t>(
            opts.getInt("inject-delay-us", 100));
    }

    return runLoop(opts, spec, /*replaying=*/false);
}

int
runLoop(const Options &opts, RunSpec &spec, bool replaying)
{
    // Observability: --trace-out keeps its historical meaning for the
    // trace backend (the simulator memory trace); for clean backends it
    // selects the flight-recorder event trace and implies --obs.
    const bool cleanBackend = spec.backend == BackendKind::Clean ||
                              spec.backend == BackendKind::DetectOnly ||
                              spec.backend == BackendKind::KendoOnly;
    const std::string obsTraceOut =
        cleanBackend ? opts.getString("trace-out", "") : std::string();
    const std::string metricsOut = opts.getString("metrics-json", "");
    if (!replaying && (opts.getBool("obs", false) || !obsTraceOut.empty() ||
                       !metricsOut.empty())) {
        spec.runtime.obs.enabled = true;
        spec.runtime.obs.ringEvents =
            static_cast<std::size_t>(opts.getInt("obs-ring", 4096));
        spec.runtime.obs.failureTail =
            static_cast<std::size_t>(opts.getInt("obs-tail", 32));
    }
    if (replaying) {
        // Replay keeps the ring geometry from the trace header (the
        // runtime forces the recorder on); explicit overrides are still
        // honored and rejected as ConfigMismatch by the runner.
        if (opts.has("obs-ring"))
            spec.runtime.obs.ringEvents =
                static_cast<std::size_t>(opts.getInt("obs-ring", 4096));
        if (opts.has("obs-tail"))
            spec.runtime.obs.failureTail =
                static_cast<std::size_t>(opts.getInt("obs-tail", 32));
    }
    if ((spec.runtime.obs.enabled || replaying ||
         !spec.recordPath.empty()) &&
        !obs::kCompiledIn)
        warn("observability requested but compiled out "
             "(CLEAN_OBS=OFF): no events will be recorded");

    const unsigned runs =
        static_cast<unsigned>(opts.getInt("runs", 1));
    int exitCode = 0;
    for (unsigned r = 0; r < runs; ++r) {
        const auto result = runWorkload(spec);
        const char *verdict = result.traceFault      ? "TRACE-FAULT"
                              : result.deadlock      ? "DEADLOCK"
                              : result.raceException ? "RACE-EXCEPTION"
                                                     : "ok";
        std::printf("run %u: %s %s (%s)\n", r, spec.workload.c_str(),
                    verdict, backendKindName(spec.backend));
        if (result.traceFault) {
            if (result.traceFaultStep != TraceError::kNoStep)
                std::printf("  replay fault %s at step %llu: %s\n",
                            result.traceFaultKind.c_str(),
                            static_cast<unsigned long long>(
                                result.traceFaultStep),
                            result.traceFaultMessage.c_str());
            else
                std::printf("  replay fault %s: %s\n",
                            result.traceFaultKind.c_str(),
                            result.traceFaultMessage.c_str());
        }
        if (result.raceException)
            std::printf("  %s\n", result.raceMessage.c_str());
        if (result.deadlock)
            std::printf("  %s\n", result.deadlockMessage.c_str());
        if (result.raceCount > 0 && !result.raceException &&
            spec.runtime.onRace != OnRacePolicy::Recover) {
            std::printf("  races recorded (degraded mode): %llu\n",
                        static_cast<unsigned long long>(
                            result.raceCount));
        }
        if (result.recoveryAttempts > 0 || result.quarantinedSites > 0) {
            std::printf("  recovery: %llu recovered (%llu attempts, "
                        "%llu forced, %llu kills) quarantined sites "
                        "%llu\n",
                        static_cast<unsigned long long>(
                            result.recoveredRaces),
                        static_cast<unsigned long long>(
                            result.recoveryAttempts),
                        static_cast<unsigned long long>(
                            result.forcedReplays),
                        static_cast<unsigned long long>(
                            result.recoveredKills),
                        static_cast<unsigned long long>(
                            result.quarantinedSites));
        }
        if (result.samplingOn) {
            // Measured overhead is physical and deliberately lives only
            // here, never in the JSON artifacts (those must round-trip
            // byte-identically under --record/--replay).
            std::printf("  sampling: budget %u%%  shed %llu/%llu reads  "
                        "level %u  quarantined %llu",
                        spec.runtime.overheadBudget,
                        static_cast<unsigned long long>(
                            result.checker.shedReads),
                        static_cast<unsigned long long>(
                            result.checker.sharedReads),
                        result.sampleLevel,
                        static_cast<unsigned long long>(
                            result.sampleTelemetry.quarantines));
            if (result.sampleOverheadPermille >= 0)
                std::printf("  measured overhead %.1f%%",
                            static_cast<double>(
                                result.sampleOverheadPermille) /
                                10.0);
            std::printf("\n");
        }
        // Under Recover, counted races were rolled back and replayed;
        // they only fail the run when a site exhausted its budget.
        const bool raceFailed =
            result.raceException ||
            (result.raceCount > 0 &&
             spec.runtime.onRace != OnRacePolicy::Recover);
        const int code = exitCodeForRun(result.deadlock,
                                        result.quarantinedSites > 0,
                                        raceFailed, result.traceFault);
        if (exitCode == 0)
            exitCode = code;
        std::printf("  time %.4fs  reads %llu  writes %llu  "
                    "output %016llx  rollovers %llu\n",
                    result.seconds,
                    static_cast<unsigned long long>(result.reads),
                    static_cast<unsigned long long>(result.writes),
                    static_cast<unsigned long long>(result.outputHash),
                    static_cast<unsigned long long>(result.rollovers));
        if (result.detectorReports > 0) {
            std::printf("  detector reports %zu (WAW %zu, RAW %zu, "
                        "WAR %zu)\n",
                        result.detectorReports, result.detectorWaw,
                        result.detectorRaw, result.detectorWar);
        }
        if (opts.getBool("report-json", false) &&
            !result.failureReport.empty()) {
            std::printf("%s\n", result.failureReport.c_str());
        }
        const std::string reportOut = opts.getString("report-out", "");
        if (!reportOut.empty() &&
            !writeTextFile(reportOut, result.failureReport))
            warn("failed to write failure report to %s",
                 reportOut.c_str());
        if (spec.backend == BackendKind::Trace) {
            std::printf("  trace: %s\n", result.trace.summary().c_str());
            const std::string out = opts.getString("trace-out", "");
            if (!out.empty()) {
                if (saveTrace(result.trace, out))
                    std::printf("  trace written to %s\n", out.c_str());
                else
                    warn("failed to write trace to %s", out.c_str());
            }
        }
        if (!obsTraceOut.empty() && !result.obsTraceJson.empty()) {
            if (writeTextFile(obsTraceOut, result.obsTraceJson))
                std::printf("  obs trace written to %s\n",
                            obsTraceOut.c_str());
            else
                warn("failed to write obs trace to %s",
                     obsTraceOut.c_str());
        }
        if (!metricsOut.empty() && !result.metricsJson.empty()) {
            if (!writeTextFile(metricsOut, result.metricsJson))
                warn("failed to write metrics to %s", metricsOut.c_str());
        }
    }
    return exitCode;
}

} // namespace
