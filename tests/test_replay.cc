/**
 * @file
 * Record/replay tests (ISSUE 6 tentpole): trace container round-trips
 * and truncation tolerance, ReplayDriver schedule enforcement and fault
 * semantics, and the end-to-end property — 64 seeds across all four
 * --on-race policies, with and without injection, whose replays must
 * reproduce byte-identical failure reports and metrics JSON.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "det/replay.h"
#include "obs/trace_schema.h"
#include "support/exit_codes.h"
#include "support/prng.h"
#include "support/trace_error.h"
#include "workloads/runner.h"

namespace clean
{
namespace
{

using wl::BackendKind;
using wl::RunResult;
using wl::RunSpec;
using wl::Scale;

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("clean_replay_" + name))
        .string();
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

obs::Event
ev(obs::EventKind kind, std::uint64_t det, std::uint64_t seq, ThreadId tid,
   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
{
    obs::Event e;
    e.det = det;
    e.seq = seq;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.tid = tid;
    e.kind = kind;
    return e;
}

obs::TraceMeta
miniMeta()
{
    obs::TraceMeta meta;
    meta.workload = "fft";
    meta.threads = 2;
    meta.maxThreads = 4;
    meta.seed = 7;
    meta.backend = static_cast<std::uint32_t>(BackendKind::Clean);
    return meta;
}

obs::TraceFile
makeTrace(std::vector<obs::Event> events, bool complete)
{
    obs::TraceFile trace;
    trace.meta = miniMeta();
    trace.events = std::move(events);
    trace.complete = complete;
    return trace;
}

// ---------------------------------------------------------------------
// Trace container.
// ---------------------------------------------------------------------

TEST(TraceSchema, RecordEncodingRoundTripsEveryKind)
{
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
        const obs::Event in =
            ev(static_cast<obs::EventKind>(k), 0x0123456789abcdefULL,
               k + 1, static_cast<ThreadId>(k), ~std::uint64_t{0}, 42);
        unsigned char buf[obs::kTraceRecordBytes];
        obs::encodeTraceRecord(in, buf);
        const obs::Event out = obs::decodeTraceRecord(buf);
        EXPECT_EQ(out.det, in.det);
        EXPECT_EQ(out.seq, in.seq);
        EXPECT_EQ(out.arg0, in.arg0);
        EXPECT_EQ(out.arg1, in.arg1);
        EXPECT_EQ(out.tid, in.tid);
        EXPECT_EQ(out.kind, in.kind);
    }
}

TEST(TraceSchema, RateBitsAreExact)
{
    for (const double rate : {0.0, 1.0, 0.1, 1e-9, 0.0005}) {
        EXPECT_EQ(obs::rateFromBits(obs::rateToBits(rate)), rate);
    }
}

TEST(TraceSchema, SinkWritesCompleteReadableTrace)
{
    const std::string path = tmpPath("sink_complete.cleantrace");
    const obs::TraceMeta meta = miniMeta();
    {
        obs::RecordSink sink(path, meta);
        sink.onEvent(ev(obs::EventKind::TurnGrant, 1, 0, 0));
        sink.onEvent(ev(obs::EventKind::SyncAcquire, 2, 1, 0, 2, 1));
        sink.onEvent(ev(obs::EventKind::TurnGrant, 1, 0, 1));
        EXPECT_EQ(sink.recorded(), 3u);
        sink.finalize();
    }
    const obs::TraceFile trace = obs::readTraceFile(path);
    EXPECT_TRUE(trace.complete);
    EXPECT_EQ(trace.meta, meta);
    ASSERT_EQ(trace.events.size(), 3u);
    EXPECT_EQ(trace.events[1].kind, obs::EventKind::SyncAcquire);
    EXPECT_EQ(trace.events[1].arg0, 2u);
    std::filesystem::remove(path);
}

TEST(TraceSchema, SinkWithoutFinalizeLeavesTruncatedTrace)
{
    const std::string path = tmpPath("sink_crashed.cleantrace");
    {
        obs::RecordSink sink(path, miniMeta());
        sink.onEvent(ev(obs::EventKind::TurnGrant, 1, 0, 0));
        sink.onEvent(ev(obs::EventKind::TurnGrant, 2, 1, 0));
        // No finalize(): the destructor flushes records but must not
        // write the completeness footer — a crashed recorder's state.
    }
    const obs::TraceFile trace = obs::readTraceFile(path);
    EXPECT_FALSE(trace.complete);
    EXPECT_EQ(trace.events.size(), 2u);
    std::filesystem::remove(path);
}

TEST(TraceSchema, ReaderKeepsParseablePrefixOfCutBody)
{
    const std::string path = tmpPath("cut_body.cleantrace");
    {
        obs::RecordSink sink(path, miniMeta());
        for (std::uint64_t i = 0; i < 5; ++i)
            sink.onEvent(ev(obs::EventKind::TurnGrant, i + 1, i, 0));
        sink.finalize();
    }
    std::string bytes = readFileBytes(path);
    // Cut mid-way through the fourth record (drops records 4, 5 and the
    // footer).
    const std::size_t headerLen =
        bytes.size() - 5 * obs::kTraceRecordBytes - 16;
    bytes.resize(headerLen + 3 * obs::kTraceRecordBytes + 17);
    writeFileBytes(path, bytes);

    const obs::TraceFile trace = obs::readTraceFile(path);
    EXPECT_FALSE(trace.complete);
    ASSERT_EQ(trace.events.size(), 3u);
    EXPECT_EQ(trace.events[2].det, 3u);
    std::filesystem::remove(path);
}

TEST(TraceSchema, HeaderFaultsAreStructured)
{
    const auto faultOf = [](const std::string &path) {
        try {
            obs::readTraceFile(path);
        } catch (const TraceError &e) {
            return e.fault();
        }
        return TraceFault::Unsupported; // i.e. "did not throw"
    };

    EXPECT_EQ(faultOf(tmpPath("does_not_exist.cleantrace")),
              TraceFault::BadFile);

    const std::string magicPath = tmpPath("bad_magic.cleantrace");
    writeFileBytes(magicPath, "NOTATRACE 1\nworkload=fft\n%%\n");
    EXPECT_EQ(faultOf(magicPath), TraceFault::BadMagic);

    const std::string versionPath = tmpPath("bad_version.cleantrace");
    writeFileBytes(versionPath, "CLEANTRACE 99\nworkload=fft\n%%\n");
    EXPECT_EQ(faultOf(versionPath), TraceFault::BadVersion);

    const std::string metaPath = tmpPath("bad_meta.cleantrace");
    writeFileBytes(metaPath,
                   "CLEANTRACE " +
                       std::to_string(obs::kTraceSchemaVersion) +
                       "\nthreads=abc\n%%\n");
    EXPECT_EQ(faultOf(metaPath), TraceFault::BadMeta);

    std::filesystem::remove(magicPath);
    std::filesystem::remove(versionPath);
    std::filesystem::remove(metaPath);
}

TEST(TraceSchema, CorruptRecordKindTruncatesToPrefix)
{
    const std::string path = tmpPath("corrupt_kind.cleantrace");
    {
        obs::RecordSink sink(path, miniMeta());
        for (std::uint64_t i = 0; i < 4; ++i)
            sink.onEvent(ev(obs::EventKind::TurnGrant, i + 1, i, 0));
        sink.finalize();
    }
    std::string bytes = readFileBytes(path);
    // The kind byte sits at offset 36 of each 40-byte record; corrupt
    // record 3's.
    const std::size_t bodyStart =
        bytes.size() - 4 * obs::kTraceRecordBytes - 16;
    bytes[bodyStart + 2 * obs::kTraceRecordBytes + 36] =
        static_cast<char>(0xee);
    writeFileBytes(path, bytes);

    const obs::TraceFile trace = obs::readTraceFile(path);
    EXPECT_FALSE(trace.complete);
    EXPECT_EQ(trace.events.size(), 2u);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// ReplayDriver unit behavior.
// ---------------------------------------------------------------------

TEST(ReplayDriver, GrantsFollowTheRecordedSchedule)
{
    det::ReplayDriver driver(
        makeTrace({ev(obs::EventKind::TurnGrant, 1, 0, 0),
                   ev(obs::EventKind::TurnGrant, 1, 0, 1),
                   ev(obs::EventKind::TurnGrant, 2, 1, 0)},
                  /*complete=*/true),
        /*policyAborts=*/false);
    EXPECT_EQ(driver.scheduleSize(), 3u);

    // Thread 1 is not the schedule head and Kendo does not offer it a
    // turn: it just spins.
    EXPECT_EQ(driver.tryGrant(1, 1, false), det::GrantStatus::NotYet);
    // Head (det 1, tid 0) grants only with Kendo's agreement.
    EXPECT_EQ(driver.tryGrant(0, 1, false), det::GrantStatus::NotYet);
    EXPECT_EQ(driver.tryGrant(0, 1, true), det::GrantStatus::Granted);
    EXPECT_EQ(driver.tryGrant(1, 1, true), det::GrantStatus::Granted);
    EXPECT_EQ(driver.tryGrant(0, 2, true), det::GrantStatus::Granted);
    EXPECT_EQ(driver.scheduleCursor(), 3u);

    // Beyond the end of a complete, non-tolerant trace: divergence.
    EXPECT_THROW(driver.tryGrant(0, 3, true), TraceError);
    EXPECT_TRUE(driver.faulted());
    EXPECT_EQ(driver.faultKind(), TraceFault::Divergence);
}

TEST(ReplayDriver, KendoDisagreementIsDivergence)
{
    det::ReplayDriver driver(
        makeTrace({ev(obs::EventKind::TurnGrant, 1, 0, 0)},
                  /*complete=*/true),
        /*policyAborts=*/false);
    // Kendo offers thread 1 a turn but the trace predicts thread 0.
    try {
        driver.tryGrant(1, 1, true);
        FAIL() << "expected a Divergence fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::Divergence);
        EXPECT_TRUE(e.hasStep());
    }
    // The fault is latched: every other thread's next poll rethrows it.
    EXPECT_THROW(driver.tryGrant(0, 1, true), TraceError);
}

TEST(ReplayDriver, WrongDetStampIsDivergence)
{
    det::ReplayDriver driver(
        makeTrace({ev(obs::EventKind::TurnGrant, 5, 0, 0)},
                  /*complete=*/true),
        /*policyAborts=*/false);
    // Thread 0 arrives at det 4 where the trace recorded det 5; its
    // counter cannot change while it spins, so this is divergence even
    // without Kendo's agreement.
    EXPECT_THROW(driver.tryGrant(0, 4, false), TraceError);
    EXPECT_EQ(driver.faultKind(), TraceFault::Divergence);
}

TEST(ReplayDriver, ExhaustedTruncatedScheduleRaisesTruncated)
{
    det::ReplayDriver driver(makeTrace({}, /*complete=*/false),
                             /*policyAborts=*/false);
    EXPECT_EQ(driver.tryGrant(0, 1, false), det::GrantStatus::NotYet);
    try {
        driver.tryGrant(0, 1, true);
        FAIL() << "expected a Truncated fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::Truncated);
    }
}

TEST(ReplayDriver, TolerantModeFallsBackToKendoPastTheAbort)
{
    // A Throw-policy trace that recorded a race: its post-abort tail is
    // physically cut, so schedule exhaustion falls back to plain Kendo
    // grants instead of reporting divergence.
    det::ReplayDriver driver(
        makeTrace({ev(obs::EventKind::TurnGrant, 1, 0, 0),
                   ev(obs::EventKind::RaceDetected, 2, 1, 0, 1282, 1)},
                  /*complete=*/true),
        /*policyAborts=*/true);
    EXPECT_EQ(driver.tryGrant(0, 1, true), det::GrantStatus::Granted);
    EXPECT_EQ(driver.tryGrant(1, 3, true), det::GrantStatus::Granted);
    EXPECT_FALSE(driver.faulted());
}

TEST(ReplayDriver, LaneValidationCatchesPayloadMismatch)
{
    det::ReplayDriver driver(
        makeTrace({ev(obs::EventKind::SyncAcquire, 3, 0, 0, 3, 1)},
                  /*complete=*/true),
        /*policyAborts=*/false);
    // Same kind and det, different payload: divergence at lane step 0.
    try {
        driver.onEvent(ev(obs::EventKind::SyncAcquire, 3, 0, 0, 9, 1));
        FAIL() << "expected a Divergence fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::Divergence);
    }
    // Latched for everyone else.
    EXPECT_THROW(driver.tryGrant(1, 1, true), TraceError);
}

TEST(ReplayDriver, LaneOverrunDependsOnCompleteness)
{
    // Complete trace: an extra validated event is divergence.
    det::ReplayDriver strict(makeTrace({}, /*complete=*/true),
                             /*policyAborts=*/false);
    EXPECT_THROW(
        strict.onEvent(ev(obs::EventKind::SyncAcquire, 1, 0, 0)),
        TraceError);
    EXPECT_EQ(strict.faultKind(), TraceFault::Divergence);

    // Truncated trace: the overrun is the missing tail.
    det::ReplayDriver truncated(makeTrace({}, /*complete=*/false),
                                /*policyAborts=*/false);
    EXPECT_THROW(
        truncated.onEvent(ev(obs::EventKind::SyncAcquire, 1, 0, 0)),
        TraceError);
    EXPECT_EQ(truncated.faultKind(), TraceFault::Truncated);
}

TEST(ReplayDriver, PhysicallyTimedKindsAreNotValidated)
{
    det::ReplayDriver driver(makeTrace({}, /*complete=*/true),
                             /*policyAborts=*/false);
    // None of these are in the trace, yet none may fault: their timing
    // (and for RaceDetected, their location) is physical.
    driver.onEvent(ev(obs::EventKind::SfrBegin, 1, 0, 0));
    driver.onEvent(ev(obs::EventKind::ThreadStart, 0, 1, 0));
    driver.onEvent(ev(obs::EventKind::WatchdogTrip, 2, 2, 0));
    driver.onEvent(ev(obs::EventKind::RaceDetected, 3, 3, 0));
    EXPECT_FALSE(driver.faulted());
}

TEST(ReplayDriver, DisarmStopsEnforcementAndValidation)
{
    det::ReplayDriver driver(
        makeTrace({ev(obs::EventKind::TurnGrant, 1, 0, 0)},
                  /*complete=*/true),
        /*policyAborts=*/false);
    driver.disarm();
    EXPECT_FALSE(driver.armed());
    // Disarmed: grants pass through to Kendo, events are ignored.
    EXPECT_EQ(driver.tryGrant(3, 9, true), det::GrantStatus::Granted);
    driver.onEvent(ev(obs::EventKind::SyncAcquire, 42, 0, 3));
    EXPECT_FALSE(driver.faulted());
}

TEST(ReplayDriver, BodyTidBeyondHeaderIsBadMeta)
{
    try {
        det::ReplayDriver driver(
            makeTrace({ev(obs::EventKind::TurnGrant, 1, 0, 9)},
                      /*complete=*/true),
            /*policyAborts=*/false);
        FAIL() << "expected a BadMeta fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::BadMeta);
    }
}

TEST(ReplayDriver, RaiseTruncatedWaitLatchesTheFault)
{
    det::ReplayDriver driver(makeTrace({}, /*complete=*/false),
                             /*policyAborts=*/false);
    EXPECT_THROW(driver.raiseTruncatedWait(2, 17), TraceError);
    EXPECT_TRUE(driver.faulted());
    EXPECT_EQ(driver.faultKind(), TraceFault::Truncated);
}

// ---------------------------------------------------------------------
// Spec <-> meta mapping.
// ---------------------------------------------------------------------

RunSpec
smallSpec(const std::string &workload, std::uint64_t seed,
          OnRacePolicy policy)
{
    RunSpec spec;
    spec.workload = workload;
    spec.backend = BackendKind::Clean;
    spec.params.threads = 4;
    spec.params.scale = Scale::Test;
    spec.params.seed = seed;
    spec.runtime.maxThreads = 16;
    spec.runtime.heap.sharedBytes = std::size_t{256} << 20;
    spec.runtime.heap.privateBytes = std::size_t{64} << 20;
    spec.runtime.watchdogMs = 5000;
    spec.runtime.onRace = policy;
    return spec;
}

TEST(SpecMeta, MetaRoundTripsThroughSpec)
{
    RunSpec spec = smallSpec("fft", 1234, OnRacePolicy::Recover);
    spec.runtime.inject.enabled = true;
    spec.runtime.inject.seed = 99;
    spec.runtime.inject.skipAcquireRate = 0.05;
    const obs::TraceMeta meta = wl::metaForSpec(spec);
    const RunSpec rebuilt = wl::specFromTraceMeta(meta);
    EXPECT_EQ(wl::metaForSpec(rebuilt), meta);
    EXPECT_NO_THROW(wl::validateReplaySpec(rebuilt, meta));
}

TEST(SpecMeta, BadMetaValuesAreRejected)
{
    const auto faultOf = [](const obs::TraceMeta &meta) {
        try {
            wl::specFromTraceMeta(meta);
        } catch (const TraceError &e) {
            return e.fault();
        }
        return TraceFault::Unsupported;
    };

    obs::TraceMeta meta = wl::metaForSpec(smallSpec("fft", 1, {}));
    meta.workload = "no_such_kernel";
    EXPECT_EQ(faultOf(meta), TraceFault::BadMeta);

    meta = wl::metaForSpec(smallSpec("fft", 1, {}));
    meta.scale = 99;
    EXPECT_EQ(faultOf(meta), TraceFault::BadMeta);

    meta = wl::metaForSpec(smallSpec("fft", 1, {}));
    meta.backend = static_cast<std::uint32_t>(BackendKind::Native);
    EXPECT_EQ(faultOf(meta), TraceFault::BadMeta);

    meta = wl::metaForSpec(smallSpec("fft", 1, {}));
    meta.onRace = 17;
    EXPECT_EQ(faultOf(meta), TraceFault::BadMeta);
}

TEST(SpecMeta, MismatchNamesTheDifference)
{
    const RunSpec recorded = smallSpec("fft", 1, OnRacePolicy::Throw);
    const obs::TraceMeta meta = wl::metaForSpec(recorded);

    RunSpec other = recorded;
    other.params.threads = 8;
    try {
        wl::validateReplaySpec(other, meta);
        FAIL() << "expected a ConfigMismatch fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::ConfigMismatch);
        EXPECT_NE(std::string(e.what()).find("threads"),
                  std::string::npos)
            << e.what();
    }

    other = recorded;
    other.runtime.onRace = OnRacePolicy::Report;
    EXPECT_THROW(wl::validateReplaySpec(other, meta), TraceError);
}

TEST(SpecMeta, ExitCodeContractRanksTraceFaultFirst)
{
    EXPECT_EQ(exitCodeForRun(true, true, true, true),
              static_cast<int>(ExitCode::TraceError));
    EXPECT_EQ(static_cast<int>(ExitCode::TraceError), 6);
}

// ---------------------------------------------------------------------
// End-to-end round trips.
// ---------------------------------------------------------------------

/** Records @p spec to @p path and returns the run; the caller replays
 *  with the identical spec (plus replayPath). */
RunResult
recordRun(RunSpec spec, const std::string &path)
{
    spec.recordPath = path;
    return wl::runWorkload(spec);
}

RunResult
replayRun(RunSpec spec, const std::string &path)
{
    spec.replayPath = path;
    return wl::runWorkload(spec);
}

TEST(ReplayRoundTrip, SixtyFourSeedsAllPoliciesByteIdentical)
{
    const OnRacePolicy policies[] = {
        OnRacePolicy::Throw, OnRacePolicy::Report, OnRacePolicy::Count,
        OnRacePolicy::Recover};
    const char *const workloads[] = {"fft", "lu_cb", "blackscholes"};
    const std::string path = tmpPath("roundtrip.cleantrace");

    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const OnRacePolicy policy = policies[seed % 4];
        const bool inject = ((seed / 4) % 2) != 0;
        RunSpec spec = smallSpec(workloads[(seed / 8) % 3],
                                 0xc0ffee + seed, policy);
        if (inject) {
            // Metadata-only races: the physical lock still serializes
            // the data, so detection and recovery are deterministic.
            spec.runtime.inject.enabled = true;
            spec.runtime.inject.seed = seed + 1;
            spec.runtime.inject.skipAcquireRate = 0.05;
        }
        SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                     spec.workload + " policy " +
                     onRacePolicyName(policy) +
                     (inject ? " +skip-acquire" : ""));

        const RunResult a = recordRun(spec, path);
        const RunResult b = replayRun(spec, path);

        EXPECT_FALSE(b.traceFault)
            << b.traceFaultKind << ": " << b.traceFaultMessage;
        EXPECT_EQ(b.raceException, a.raceException);
        EXPECT_EQ(b.deadlock, a.deadlock);
        const bool aborted = a.raceException || a.deadlock;
        if (aborted) {
            // How many sibling threads also report before observing the
            // abort is physical; only the verdict is deterministic.
            EXPECT_EQ(b.raceCount > 0, a.raceCount > 0);
        } else {
            // Completing runs are bit-exact: same counts, same output,
            // byte-equal failure report and metrics.
            EXPECT_EQ(b.raceCount, a.raceCount);
            EXPECT_EQ(b.recoveredRaces, a.recoveredRaces);
            EXPECT_EQ(b.recoveryAttempts, a.recoveryAttempts);
            EXPECT_EQ(b.quarantinedSites, a.quarantinedSites);
            EXPECT_EQ(b.outputHash, a.outputHash);
            EXPECT_EQ(b.failureReport, a.failureReport);
            EXPECT_EQ(b.metricsJson, a.metricsJson);
            EXPECT_TRUE(b.fingerprint() == a.fingerprint());
        }
    }
    std::filesystem::remove(path);
}

/** Budget spec whose gate decides often enough at test scale: 64-read
 *  windows and a single burst window, so forced levels actually shed. */
RunSpec
budgetSpec(const std::string &workload, std::uint64_t seed,
           std::uint32_t budget)
{
    RunSpec spec = smallSpec(workload, seed, OnRacePolicy::Throw);
    spec.runtime.overheadBudget = budget;
    spec.runtime.checker.sample.windowLog2 = 6;
    spec.runtime.checker.sample.burstWindows = 1;
    return spec;
}

TEST(ReplayRoundTrip, BudgetedGovernedRunsAreByteIdentical)
{
    // The governed path: levels come from wall-clock EWMAs, so WHICH
    // levels get adopted is physical — but the trace records them and
    // the replay must re-adopt exactly those, reproducing every shed
    // decision and therefore byte-equal reports and metrics.
    const std::string path = tmpPath("budget_governed.cleantrace");
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        RunSpec spec = budgetSpec("streamcluster", 0xb1d6e7 + seed, 10);
        spec.runtime.sampleCalibLog2 = 1; // calibrate aggressively
        SCOPED_TRACE("seed " + std::to_string(seed));
        const RunResult a = recordRun(spec, path);
        ASSERT_FALSE(a.raceException);
        const RunResult b = replayRun(spec, path);
        EXPECT_FALSE(b.traceFault)
            << b.traceFaultKind << ": " << b.traceFaultMessage;
        EXPECT_EQ(b.checker.shedReads, a.checker.shedReads);
        EXPECT_EQ(b.outputHash, a.outputHash);
        EXPECT_EQ(b.failureReport, a.failureReport);
        EXPECT_EQ(b.metricsJson, a.metricsJson);
    }
    std::filesystem::remove(path);
}

TEST(ReplayRoundTrip, ForcedLevelBudgetedRunsAreByteIdentical)
{
    const std::string path = tmpPath("budget_forced.cleantrace");
    for (const std::int32_t level : {0, 3, 8, 16}) {
        RunSpec spec = budgetSpec("streamcluster", 0x5a3d, 10);
        spec.runtime.sampleForceLevel = level;
        SCOPED_TRACE("level " + std::to_string(level));
        const RunResult a = recordRun(spec, path);
        const RunResult b = replayRun(spec, path);
        EXPECT_FALSE(b.traceFault)
            << b.traceFaultKind << ": " << b.traceFaultMessage;
        if (level > 0) {
            EXPECT_GT(a.checker.shedReads, 0u);
        }
        EXPECT_EQ(b.checker.shedReads, a.checker.shedReads);
        EXPECT_EQ(b.failureReport, a.failureReport);
        EXPECT_EQ(b.metricsJson, a.metricsJson);
    }
    std::filesystem::remove(path);
}

TEST(ReplayRejection, TamperedSampleShedIsDivergence)
{
    // Satellite 1's directed mismatch: sampling decisions are recorded
    // in the trace and VALIDATED on replay — corrupt one SampleShed
    // payload and the replay must fault with a step-indexed divergence
    // naming the event, exactly like a corrupted TurnGrant.
    const std::string path = tmpPath("shed_tamper.cleantrace");
    const std::string mutated = tmpPath("shed_tamper_mut.cleantrace");
    RunSpec spec = budgetSpec("streamcluster", 0x7e57, 10);
    spec.runtime.sampleForceLevel = 8; // deterministic, plenty of sheds
    recordRun(spec, path);

    obs::TraceFile trace = obs::readTraceFile(path);
    ASSERT_TRUE(trace.complete);
    std::size_t victim = trace.events.size();
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        if (trace.events[i].kind == obs::EventKind::SampleShed) {
            victim = i;
            break;
        }
    }
    ASSERT_LT(victim, trace.events.size())
        << "no SampleShed event recorded (shedding never engaged?)";
    trace.events[victim].arg0 += 1; // claim one more shed than happened
    {
        obs::RecordSink sink(mutated, trace.meta);
        for (const obs::Event &e : trace.events)
            sink.onEvent(e);
        sink.finalize();
    }

    const RunResult result = replayRun(spec, mutated);
    EXPECT_TRUE(result.traceFault);
    EXPECT_EQ(result.traceFaultKind, "divergence");
    EXPECT_NE(result.traceFaultStep, TraceError::kNoStep);
    EXPECT_NE(result.traceFaultMessage.find("sample_shed"),
              std::string::npos)
        << result.traceFaultMessage;
    std::filesystem::remove(path);
    std::filesystem::remove(mutated);
}

TEST(SpecMeta, SamplingKnobsRoundTripThroughTheHeader)
{
    RunSpec spec = smallSpec("fft", 77, OnRacePolicy::Throw);
    spec.runtime.overheadBudget = 25;
    spec.runtime.checker.sample.windowLog2 = 9;
    spec.runtime.checker.sample.burstWindows = 2;
    spec.runtime.checker.sample.regionLog2 = 7;
    spec.runtime.checker.sample.maxStrikes = 5;
    spec.runtime.checker.sample.seed = 0xfeedface;
    spec.runtime.sampleCalibLog2 = 4;
    spec.runtime.sampleForceLevel = 11;
    const obs::TraceMeta meta = wl::metaForSpec(spec);
    EXPECT_EQ(meta.overheadBudget, 25u);
    EXPECT_EQ(meta.sampleForceLevelP1, 12u); // -1=0 encoding, shifted
    const RunSpec rebuilt = wl::specFromTraceMeta(meta);
    EXPECT_EQ(rebuilt.runtime.overheadBudget, 25u);
    EXPECT_EQ(rebuilt.runtime.checker.sample.seed, 0xfeedfaceu);
    EXPECT_EQ(rebuilt.runtime.sampleForceLevel, 11);
    EXPECT_EQ(wl::metaForSpec(rebuilt), meta);

    // Governed (-1) survives the unsigned encoding too.
    spec.runtime.sampleForceLevel = -1;
    const RunSpec governed =
        wl::specFromTraceMeta(wl::metaForSpec(spec));
    EXPECT_EQ(governed.runtime.sampleForceLevel, -1);
}

TEST(ReplayRejection, BudgetMismatchIsConfigMismatch)
{
    const std::string path = tmpPath("budget_mismatch.cleantrace");
    const RunSpec spec = budgetSpec("fft", 31, 10);
    recordRun(spec, path);
    RunSpec other = spec;
    other.runtime.overheadBudget = 50;
    try {
        replayRun(other, path);
        FAIL() << "expected a ConfigMismatch fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::ConfigMismatch);
    }
    std::filesystem::remove(path);
}

TEST(ReplayRoundTrip, KillFaultDeadlockReproduces)
{
    const std::string path = tmpPath("kill.cleantrace");
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        RunSpec spec = smallSpec("fft", 0xdead + seed,
                                 OnRacePolicy::Throw);
        spec.runtime.watchdogMs = 300;
        spec.runtime.inject.enabled = true;
        spec.runtime.inject.seed = seed + 11;
        spec.runtime.inject.killRate = 0.0005;
        SCOPED_TRACE("seed " + std::to_string(seed));

        const RunResult a = recordRun(spec, path);
        const RunResult b = replayRun(spec, path);
        EXPECT_FALSE(b.traceFault)
            << b.traceFaultKind << ": " << b.traceFaultMessage;
        // An injected kill strands the victims' waiters: the recorded
        // watchdog deadlock must replay as a watchdog deadlock, and a
        // clean run as a clean run.
        EXPECT_EQ(b.deadlock, a.deadlock);
        EXPECT_EQ(b.raceException, a.raceException);
    }
    std::filesystem::remove(path);
}

TEST(ReplayRejection, WrongThreadCountIsConfigMismatch)
{
    const std::string path = tmpPath("wrong_threads.cleantrace");
    const RunSpec spec = smallSpec("fft", 5, OnRacePolicy::Throw);
    recordRun(spec, path);

    RunSpec other = spec;
    other.params.threads = 8;
    try {
        replayRun(other, path);
        FAIL() << "expected a ConfigMismatch fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::ConfigMismatch);
        EXPECT_NE(std::string(e.what()).find("8 threads"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(ReplayRejection, WrongSchemaVersionIsBadVersion)
{
    const std::string path = tmpPath("wrong_version.cleantrace");
    recordRun(smallSpec("fft", 6, OnRacePolicy::Throw), path);

    const std::string bytes = readFileBytes(path);
    const std::string goodLine =
        "CLEANTRACE " + std::to_string(obs::kTraceSchemaVersion) + "\n";
    ASSERT_EQ(bytes.rfind(goodLine, 0), 0u);
    // A future version, and v3, the last one with a counter-chunk size.
    for (const std::uint32_t version :
         {obs::kTraceSchemaVersion + 1, std::uint32_t{3}}) {
        std::string mutated = bytes;
        mutated.replace(0, goodLine.size(),
                        "CLEANTRACE " + std::to_string(version) + "\n");
        writeFileBytes(path, mutated);
        try {
            obs::readTraceFile(path);
            FAIL() << "expected a BadVersion fault for v" << version;
        } catch (const TraceError &e) {
            EXPECT_EQ(e.fault(), TraceFault::BadVersion) << "v" << version;
        }
    }
    std::filesystem::remove(path);
}

TEST(ReplayRejection, MidReplayDivergenceNamesTheStep)
{
    const std::string path = tmpPath("diverge.cleantrace");
    const std::string mutated = tmpPath("diverge_mut.cleantrace");
    const RunSpec spec = smallSpec("fft", 7, OnRacePolicy::Throw);
    recordRun(spec, path);

    // Corrupt one mid-run TurnGrant payload and re-serialize: the
    // replayed grant will disagree with the recorded one.
    obs::TraceFile trace = obs::readTraceFile(path);
    ASSERT_TRUE(trace.complete);
    std::size_t grants = 0, victim = trace.events.size();
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        if (trace.events[i].kind == obs::EventKind::TurnGrant &&
            ++grants == 20) {
            victim = i;
            break;
        }
    }
    ASSERT_LT(victim, trace.events.size());
    trace.events[victim].arg0 += 1;
    {
        obs::RecordSink sink(mutated, trace.meta);
        for (const obs::Event &e : trace.events)
            sink.onEvent(e);
        sink.finalize();
    }

    const RunResult result = replayRun(spec, mutated);
    EXPECT_TRUE(result.traceFault);
    EXPECT_EQ(result.traceFaultKind, "divergence");
    EXPECT_NE(result.traceFaultStep, TraceError::kNoStep);
    EXPECT_NE(result.traceFaultMessage.find("turn_grant"),
              std::string::npos)
        << result.traceFaultMessage;
    std::filesystem::remove(path);
    std::filesystem::remove(mutated);
}

TEST(ReplayTruncation, TwentyRandomCutsFailCleanly)
{
    const std::string path = tmpPath("fuzz.cleantrace");
    const std::string cutPath = tmpPath("fuzz_cut.cleantrace");
    RunSpec spec = smallSpec("fft", 8, OnRacePolicy::Throw);
    spec.params.threads = 2;
    spec.runtime.watchdogMs = 2000;
    const RunResult reference = recordRun(spec, path);
    ASSERT_FALSE(reference.raceException);
    const std::string bytes = readFileBytes(path);
    ASSERT_GT(bytes.size(), 64u);

    Prng prng(42);
    for (int i = 0; i < 20; ++i) {
        // Cut anywhere in the file — header, body, footer.
        const auto cut = 1 + prng.nextBelow(bytes.size() - 1);
        writeFileBytes(cutPath, bytes.substr(0, cut));
        SCOPED_TRACE("iteration " + std::to_string(i) + " cut at " +
                     std::to_string(cut));
        try {
            const RunResult r = replayRun(spec, cutPath);
            if (r.traceFault) {
                // Mid-run: the prefix replayed, then truncation (or the
                // divergence a half-written record produces) was
                // reported with a step index — never a hang.
                EXPECT_TRUE(r.traceFaultKind == "truncated" ||
                            r.traceFaultKind == "divergence")
                    << r.traceFaultKind;
            } else {
                // The cut only lost the footer-adjacent tail the run
                // never needed: the replay completed and must match.
                EXPECT_EQ(r.outputHash, reference.outputHash);
            }
        } catch (const TraceError &) {
            // Pre-run: the header itself was unreadable. Structured
            // rejection is exactly the contract.
        }
    }
    std::filesystem::remove(path);
    std::filesystem::remove(cutPath);
}

TEST(ReplayTruncation, HalfTraceReportsTruncationNotDeadlock)
{
    const std::string path = tmpPath("half.cleantrace");
    const std::string cutPath = tmpPath("half_cut.cleantrace");
    RunSpec spec = smallSpec("fft", 10, OnRacePolicy::Throw);
    spec.runtime.watchdogMs = 500;
    recordRun(spec, path);

    // Keep the header and the first half of the records, no footer —
    // the on-disk state of a recorder that died mid-run.
    const std::string bytes = readFileBytes(path);
    const std::size_t bodyBytes = obs::readTraceFile(path).events.size() *
                                  obs::kTraceRecordBytes;
    const std::size_t headerLen = bytes.size() - bodyBytes - 16;
    writeFileBytes(cutPath,
                   bytes.substr(0, headerLen + bodyBytes / 2 -
                                       (bodyBytes / 2) %
                                           obs::kTraceRecordBytes));

    const RunResult r = replayRun(spec, cutPath);
    // The prefix replays; the first step past it is reported as a
    // truncation (immediately at a turn request, or via the watchdog's
    // raiseTruncatedWait for a starved blocking wait) — never as the
    // recorded run's deadlock and never as a hang.
    EXPECT_TRUE(r.traceFault);
    EXPECT_EQ(r.traceFaultKind, "truncated");
    EXPECT_FALSE(r.deadlock);
    std::filesystem::remove(path);
    std::filesystem::remove(cutPath);
}

TEST(ReplayRejection, UnsupportedBackendIsRejected)
{
    RunSpec spec = smallSpec("fft", 9, OnRacePolicy::Throw);
    spec.backend = BackendKind::DetectOnly;
    spec.recordPath = tmpPath("unsupported.cleantrace");
    try {
        wl::runWorkload(spec);
        FAIL() << "expected an Unsupported fault";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.fault(), TraceFault::Unsupported);
    }
}

} // namespace
} // namespace clean
