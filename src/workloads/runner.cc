#include "workloads/runner.h"

#include <algorithm>
#include <memory>

#include "det/replay.h"
#include "detectors/fasttrack.h"
#include "obs/governor.h"
#include "detectors/tsan_lite.h"
#include "recover/recovery.h"
#include "support/logging.h"
#include "support/timer.h"
#include "workloads/backend.h"
#include "workloads/registry.h"

namespace clean::wl
{

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Native: return "native";
      case BackendKind::Clean: return "clean";
      case BackendKind::DetectOnly: return "detect-only";
      case BackendKind::KendoOnly: return "kendo-only";
      case BackendKind::FastTrack: return "fasttrack";
      case BackendKind::TsanLite: return "tsan-lite";
      case BackendKind::Trace: return "trace";
    }
    return "?";
}

obs::TraceMeta
metaForSpec(const RunSpec &spec)
{
    obs::TraceMeta meta;
    meta.workload = spec.workload;
    meta.scale = static_cast<std::uint32_t>(spec.params.scale);
    meta.threads = spec.params.threads;
    meta.racy = spec.params.racy;
    meta.seed = spec.params.seed;
    meta.backend = static_cast<std::uint32_t>(spec.backend);

    const RuntimeConfig &rc = spec.runtime;
    const CheckerConfig &cc = rc.checker;
    meta.clockBits = cc.epoch.clockBits;
    meta.tidBits = cc.epoch.tidBits;
    meta.maxThreads = rc.maxThreads;
    meta.onRace = static_cast<std::uint32_t>(rc.onRace);
    meta.vectorized = cc.vectorized;
    meta.fastPath = cc.fastPath;
    meta.ownCache = cc.ownCache;
    meta.batch = cc.batch;
    meta.batchBytes = cc.batchBytes;
    meta.atomicity = static_cast<std::uint32_t>(cc.atomicity);
    meta.shadow = static_cast<std::uint32_t>(rc.shadow);
    meta.granuleLog2 = cc.granuleLog2;
    meta.rolloverMargin = rc.rolloverMargin;
    meta.watchdogMs = rc.watchdogMs;
    meta.maxRecoveries = rc.maxRecoveries;
    meta.undoLogEntries = rc.undoLogEntries;
    meta.heapSharedBytes = rc.heap.sharedBytes;
    meta.heapPrivateBytes = rc.heap.privateBytes;
    meta.obsRingEvents = rc.obs.ringEvents;
    meta.obsFailureTail = rc.obs.failureTail;

    meta.overheadBudget = rc.overheadBudget;
    meta.sampleWindowLog2 = cc.sample.windowLog2;
    meta.sampleBurst = cc.sample.burstWindows;
    meta.sampleRegionLog2 = cc.sample.regionLog2;
    meta.sampleStrikes = cc.sample.maxStrikes;
    meta.sampleSeed = cc.sample.seed;
    meta.sampleCalibLog2 = rc.sampleCalibLog2;
    meta.sampleForceLevelP1 =
        rc.sampleForceLevel < 0
            ? 0
            : static_cast<std::uint32_t>(rc.sampleForceLevel) + 1;

    meta.injectEnabled = rc.inject.enabled;
    meta.injectSeed = rc.inject.seed;
    meta.skipCheckRateBits = obs::rateToBits(rc.inject.skipCheckRate);
    meta.skipAcquireRateBits = obs::rateToBits(rc.inject.skipAcquireRate);
    meta.delayRateBits = obs::rateToBits(rc.inject.delayRate);
    meta.rolloverRateBits = obs::rateToBits(rc.inject.rolloverRate);
    meta.killRateBits = obs::rateToBits(rc.inject.killRate);
    meta.delayMicros = rc.inject.delayMicros;
    return meta;
}

RunSpec
specFromTraceMeta(const obs::TraceMeta &meta)
{
    // findWorkload() fatal()s (process exit) on unknown names, so an
    // unknown workload must be rejected here, as a structured fault.
    const std::vector<std::string> known = workloadNames();
    if (std::find(known.begin(), known.end(), meta.workload) == known.end())
        throw TraceError(TraceFault::BadMeta,
                         "unknown workload '" + meta.workload + "'");
    if (meta.scale > static_cast<std::uint32_t>(Scale::Large))
        throw TraceError(TraceFault::BadMeta,
                         "scale " + std::to_string(meta.scale) +
                             " out of range");
    if (meta.backend != static_cast<std::uint32_t>(BackendKind::Clean) &&
        meta.backend != static_cast<std::uint32_t>(BackendKind::KendoOnly))
        throw TraceError(TraceFault::BadMeta,
                         "backend " + std::to_string(meta.backend) +
                             " is not a recordable backend");
    if (meta.onRace > static_cast<std::uint32_t>(OnRacePolicy::Recover))
        throw TraceError(TraceFault::BadMeta,
                         "on-race policy " + std::to_string(meta.onRace) +
                             " out of range");
    if (meta.atomicity > static_cast<std::uint32_t>(AtomicityMode::Locked))
        throw TraceError(TraceFault::BadMeta,
                         "atomicity mode " + std::to_string(meta.atomicity) +
                             " out of range");
    if (meta.shadow > static_cast<std::uint32_t>(ShadowKind::Sparse))
        throw TraceError(TraceFault::BadMeta,
                         "shadow kind " + std::to_string(meta.shadow) +
                             " out of range");

    RunSpec spec;
    spec.workload = meta.workload;
    spec.params.scale = static_cast<Scale>(meta.scale);
    spec.params.threads = meta.threads;
    spec.params.racy = meta.racy;
    spec.params.seed = meta.seed;
    spec.backend = static_cast<BackendKind>(meta.backend);

    RuntimeConfig &rc = spec.runtime;
    CheckerConfig &cc = rc.checker;
    cc.epoch.clockBits = meta.clockBits;
    cc.epoch.tidBits = meta.tidBits;
    rc.maxThreads = meta.maxThreads;
    rc.onRace = static_cast<OnRacePolicy>(meta.onRace);
    cc.vectorized = meta.vectorized;
    cc.fastPath = meta.fastPath;
    cc.ownCache = meta.ownCache;
    cc.batch = meta.batch;
    cc.batchBytes = static_cast<std::size_t>(meta.batchBytes);
    cc.atomicity = static_cast<AtomicityMode>(meta.atomicity);
    rc.shadow = static_cast<ShadowKind>(meta.shadow);
    cc.granuleLog2 = meta.granuleLog2;
    rc.rolloverMargin = meta.rolloverMargin;
    rc.watchdogMs = meta.watchdogMs;
    rc.maxRecoveries = meta.maxRecoveries;
    rc.undoLogEntries = meta.undoLogEntries;
    rc.heap.sharedBytes = meta.heapSharedBytes;
    rc.heap.privateBytes = meta.heapPrivateBytes;
    rc.obs.ringEvents = meta.obsRingEvents;
    rc.obs.failureTail = meta.obsFailureTail;

    rc.overheadBudget = meta.overheadBudget;
    cc.sample.windowLog2 = meta.sampleWindowLog2;
    cc.sample.burstWindows = meta.sampleBurst;
    cc.sample.regionLog2 = meta.sampleRegionLog2;
    cc.sample.maxStrikes = meta.sampleStrikes;
    cc.sample.seed = meta.sampleSeed;
    rc.sampleCalibLog2 = meta.sampleCalibLog2;
    rc.sampleForceLevel =
        meta.sampleForceLevelP1 == 0
            ? -1
            : static_cast<std::int32_t>(meta.sampleForceLevelP1) - 1;

    rc.inject.enabled = meta.injectEnabled;
    rc.inject.seed = meta.injectSeed;
    rc.inject.skipCheckRate = obs::rateFromBits(meta.skipCheckRateBits);
    rc.inject.skipAcquireRate = obs::rateFromBits(meta.skipAcquireRateBits);
    rc.inject.delayRate = obs::rateFromBits(meta.delayRateBits);
    rc.inject.rolloverRate = obs::rateFromBits(meta.rolloverRateBits);
    rc.inject.killRate = obs::rateFromBits(meta.killRateBits);
    rc.inject.delayMicros = meta.delayMicros;
    return spec;
}

void
validateReplaySpec(const RunSpec &spec, const obs::TraceMeta &meta)
{
    if (meta.schemaVersion != obs::kTraceSchemaVersion)
        throw TraceError(TraceFault::BadVersion,
                         "trace schema v" +
                             std::to_string(meta.schemaVersion) +
                             "; this binary replays v" +
                             std::to_string(obs::kTraceSchemaVersion));

    const obs::TraceMeta mine = metaForSpec(spec);
    if (mine == meta)
        return;

    // Name the first difference precisely; the generic tail catches the
    // long tail of runtime knobs without 30 bespoke messages.
    if (mine.workload != meta.workload)
        throw TraceError(TraceFault::ConfigMismatch,
                         "run executes workload '" + mine.workload +
                             "', trace was recorded from '" + meta.workload +
                             "'");
    if (mine.threads != meta.threads)
        throw TraceError(TraceFault::ConfigMismatch,
                         "run uses " + std::to_string(mine.threads) +
                             " threads, trace was recorded with " +
                             std::to_string(meta.threads));
    if (mine.backend != meta.backend)
        throw TraceError(
            TraceFault::ConfigMismatch,
            std::string("run uses backend ") +
                backendKindName(static_cast<BackendKind>(mine.backend)) +
                ", trace was recorded under " +
                backendKindName(static_cast<BackendKind>(meta.backend)));
    if (mine.seed != meta.seed)
        throw TraceError(TraceFault::ConfigMismatch,
                         "run seed " + std::to_string(mine.seed) +
                             " differs from trace seed " +
                             std::to_string(meta.seed));
    if (mine.scale != meta.scale || mine.racy != meta.racy)
        throw TraceError(TraceFault::ConfigMismatch,
                         "workload parameters (scale/racy) differ from the "
                         "trace header");
    if (mine.onRace != meta.onRace)
        throw TraceError(
            TraceFault::ConfigMismatch,
            std::string("run uses --on-race=") +
                onRacePolicyName(static_cast<OnRacePolicy>(mine.onRace)) +
                ", trace was recorded under --on-race=" +
                onRacePolicyName(static_cast<OnRacePolicy>(meta.onRace)));
    if (mine.injectEnabled != meta.injectEnabled ||
        mine.injectSeed != meta.injectSeed ||
        mine.skipCheckRateBits != meta.skipCheckRateBits ||
        mine.skipAcquireRateBits != meta.skipAcquireRateBits ||
        mine.delayRateBits != meta.delayRateBits ||
        mine.rolloverRateBits != meta.rolloverRateBits ||
        mine.killRateBits != meta.killRateBits ||
        mine.delayMicros != meta.delayMicros)
        throw TraceError(TraceFault::ConfigMismatch,
                         "fault-injection plan differs from the trace "
                         "header (enable/seed/rates)");
    throw TraceError(TraceFault::ConfigMismatch,
                     "runtime configuration differs from the trace header");
}

namespace
{

RunResult
runClean(Workload &workload, const RunSpec &spec)
{
    RuntimeConfig config = spec.runtime;
    config.detection = spec.backend != BackendKind::KendoOnly;
    config.deterministic = spec.backend != BackendKind::DetectOnly;

    // Record/replay plumbing (ISSUE 6). Anything that fails here —
    // unwritable record path, unreadable/mismatched trace — throws
    // TraceError before the run starts.
    std::unique_ptr<obs::RecordSink> sink;
    std::unique_ptr<det::ReplayDriver> driver;
    if (!spec.recordPath.empty())
        sink = std::make_unique<obs::RecordSink>(spec.recordPath,
                                                 metaForSpec(spec));
    if (!spec.replayPath.empty()) {
        obs::TraceFile trace = obs::readTraceFile(spec.replayPath);
        validateReplaySpec(spec, trace.meta);
        driver = std::make_unique<det::ReplayDriver>(
            std::move(trace), spec.runtime.onRace == OnRacePolicy::Throw);
    }
    config.recordSink = sink.get();
    config.replayDriver = driver.get();

    RunResult result;
    {
        CleanRuntime rt(config);
        CleanEnv env(rt, spec.params.seed);

        Timer timer;
        CpuTimer cpuTimer;
        try {
            workload.run(env, spec.params);
            // The orchestrating thread's final SFR never reaches another
            // sync op, so reads it buffered after its last release are
            // still pending — drain them so a tail race is not dropped.
            rt.mainContext().drainBatch();
        } catch (const RaceException &race) {
            result.raceException = true;
            result.raceMessage = race.what();
        } catch (const DeadlockError &deadlock) {
            result.deadlock = true;
            result.deadlockMessage = deadlock.what();
        } catch (const ExecutionAborted &) {
            // Classified below from the runtime's recorded state (the
            // abort may stem from a race or from a watchdog deadlock).
        } catch (const TraceError &) {
            // A replay fault on the orchestrating thread; the driver
            // latched it and the fault fields are filled below.
        }
        result.seconds = timer.elapsedSeconds();
        result.cpuSeconds = cpuTimer.elapsedSeconds();

        result.raceCount = rt.raceCount();
        if (rt.deadlockOccurred() && !result.deadlock) {
            result.deadlock = true;
            result.deadlockMessage = rt.firstDeadlock()->what();
        }
        // Under Throw any recorded race failed the run; under the
        // degraded Report/Count policies the run completed and races are
        // only counted.
        if (config.onRace == OnRacePolicy::Throw && rt.raceOccurred())
            result.raceException = true;
        if (result.raceException && result.raceMessage.empty()) {
            if (const RaceException *race = rt.firstRace())
                result.raceMessage = race->what();
        }
        // Recovery supervision (ISSUE 3): under Recover, races were
        // rolled back and re-executed and injected kill-thread faults
        // were retired cleanly; surface the episode ledger so callers can
        // tell a fully recovered run (exit 0) from a quarantined one
        // (exit 5).
        if (const recover::RecoveryManager *mgr = rt.recoveryManager()) {
            const recover::RecoveryStats stats = mgr->stats();
            result.recoveredRaces = stats.recovered;
            result.recoveryAttempts = stats.attempts;
            result.forcedReplays = stats.forcedReplays;
            result.recoveredKills = stats.recoveredKills;
            result.quarantinedSites = stats.quarantinedSites;
        }
        if (rt.samplingEnabled()) {
            result.samplingOn = true;
            result.sampleTelemetry = rt.aggregatedSampleTelemetry();
            if (const obs::SamplingGovernor *gov = rt.samplingGovernor()) {
                result.sampleLevel =
                    config.sampleForceLevel >= 0
                        ? static_cast<std::uint32_t>(
                              config.sampleForceLevel)
                        : gov->level();
                result.sampleOverheadPermille = gov->overheadPermille();
            }
        }
        result.failureReport = rt.failureReportJson();
        if (rt.recorder() != nullptr) {
            result.obsTraceJson = rt.obsTraceJson();
            result.metricsJson = rt.metricsJson();
        }

        const EnvTotals totals = env.totals();
        result.outputHash = totals.outputHash;
        result.checker = rt.aggregatedCheckerStats();
        result.reads = result.checker.sharedReads;
        result.writes = result.checker.sharedWrites;
        result.bytes = result.checker.accessedBytes;
        result.detCounts = rt.finalDetCounts();
        result.rollovers = rt.rolloverResets();
    }
    // After the runtime is destroyed: its destructor reaps any leaked
    // threads, whose last events must still reach the trace before the
    // completeness footer is written.
    if (sink)
        sink->finalize();
    if (driver && driver->faulted()) {
        result.traceFault = true;
        result.traceFaultKind = traceFaultName(driver->faultKind());
        result.traceFaultMessage = driver->faultMessage();
        result.traceFaultStep = driver->faultStep();
    }
    return result;
}

RunResult
runPlain(Workload &workload, const RunSpec &spec)
{
    RunResult result;

    if (spec.backend == BackendKind::Native) {
        NativeEnv env(spec.params.seed);
        Timer timer;
        CpuTimer cpuTimer;
        workload.run(env, spec.params);
        result.seconds = timer.elapsedSeconds();
        result.cpuSeconds = cpuTimer.elapsedSeconds();
        const EnvTotals totals = env.totals();
        result.outputHash = totals.outputHash;
        result.reads = totals.reads;
        result.writes = totals.writes;
        result.bytes = totals.bytes;
        return result;
    }

    if (spec.backend == BackendKind::Trace) {
        TraceEnv env(spec.params.seed);
        Timer timer;
        CpuTimer cpuTimer;
        workload.run(env, spec.params);
        result.seconds = timer.elapsedSeconds();
        result.cpuSeconds = cpuTimer.elapsedSeconds();
        const EnvTotals totals = env.totals();
        result.outputHash = totals.outputHash;
        result.reads = totals.reads;
        result.writes = totals.writes;
        result.bytes = totals.bytes;
        result.trace = env.takeTrace();
        return result;
    }

    // Baseline detector backends.
    const ThreadId slots = spec.params.threads + 1;
    std::unique_ptr<detectors::Detector> detector;
    if (spec.backend == BackendKind::FastTrack) {
        detector = std::make_unique<detectors::FastTrackDetector>(
            spec.runtime.checker.epoch, slots);
    } else {
        detector = std::make_unique<detectors::TsanLiteDetector>(
            spec.runtime.checker.epoch, slots);
    }
    DetectorEnv env(*detector, spec.params.seed);
    Timer timer;
    CpuTimer cpuTimer;
    workload.run(env, spec.params);
    result.seconds = timer.elapsedSeconds();
    result.cpuSeconds = cpuTimer.elapsedSeconds();

    const EnvTotals totals = env.totals();
    result.outputHash = totals.outputHash;
    result.reads = totals.reads;
    result.writes = totals.writes;
    result.bytes = totals.bytes;
    result.detectorReports = detector->reportCount();
    for (const auto &report : detector->reports()) {
        switch (report.kind) {
          case RaceKind::Waw: ++result.detectorWaw; break;
          case RaceKind::Raw: ++result.detectorRaw; break;
          case RaceKind::War: ++result.detectorWar; break;
        }
    }
    return result;
}

} // namespace

RunResult
runWorkload(const RunSpec &spec)
{
    // Record/replay requires the Kendo turn order — without it there is
    // no deterministic schedule to capture or enforce.
    if (!spec.recordPath.empty() || !spec.replayPath.empty()) {
        if (spec.backend != BackendKind::Clean &&
            spec.backend != BackendKind::KendoOnly)
            throw TraceError(
                TraceFault::Unsupported,
                std::string("record/replay requires a deterministic "
                            "backend (clean or kendo-only), not ") +
                    backendKindName(spec.backend));
    }
    Workload &workload = findWorkload(spec.workload);
    switch (spec.backend) {
      case BackendKind::Clean:
      case BackendKind::DetectOnly:
      case BackendKind::KendoOnly:
        return runClean(workload, spec);
      default:
        return runPlain(workload, spec);
    }
}

} // namespace clean::wl
