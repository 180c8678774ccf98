/**
 * @file
 * Chaos / soak harness for CLEAN's failure semantics.
 *
 * Sweeps deterministic fault-injection seeds over the workload suite and
 * checks the robustness invariant the paper's "cleaner semantics" rest
 * on: every injected fault ends the run in exactly one of
 *
 *   clean completion | RaceException | DeadlockError
 *
 * — never a hang (the watchdog bounds every blocking wait), never a
 * crash, never silent wrong output (race-free runs must reproduce the
 * reference output hash). Because injection decisions are pure functions
 * of (seed, tid, site index), re-running any seed must reproduce the
 * identical outcome; the sweep replays a sample of seeds and fails on
 * any divergence.
 *
 * A second lane sweeps OnRacePolicy::Recover (ISSUE 3): race-free
 * workloads run with SkipAcquire faults only — the physical lock still
 * serializes the data, so every injected race is metadata-only and
 * recovery must converge on the reference output. Each recover seed runs
 * twice and the replay must reproduce the output hash AND the recovery
 * episode counts.
 *
 * A third lane crosses the sampling governor with fault injection
 * (ISSUE 8): every sweep fault kind — including kill-thread and
 * force-rollover — runs again under an active --overhead-budget, half
 * the seeds governed and half pinned to a deep forced level so read
 * shedding is guaranteed to be live while the fault fires. The
 * invariants are unchanged (clean | race | deadlock, exit-code
 * discipline, reference output on clean race-free completions — shed
 * read *checks* must never corrupt data), and under --audit=replay the
 * budgeted recordings must replay like any others.
 *
 * Usage:
 *   chaos_soak                          # 200 runs, the default sweep
 *   chaos_soak --runs=500 --threads=8
 *   chaos_soak --seed-base=1000 --replay-every=5 --verbose
 *   chaos_soak --seed=137 --verbose     # replay one seed and exit
 *   chaos_soak --runs=0 --recover-runs=100   # recover lane only
 *   chaos_soak --audit=replay           # trace-driven determinism audit
 *   chaos_soak --runs=0 --budget-runs=50     # sampling-governor lane only
 *
 * The determinism audit has two modes (--audit=rerun|replay, default
 * rerun). `rerun` re-executes a sample of seeds and compares outcomes.
 * `replay` is the stronger ISSUE 6 check: each sampled seed is
 * re-recorded to a .cleantrace, then *replayed* from it — the replay
 * must reproduce the outcome and exit code, and for completing runs the
 * failure report and metrics JSON byte-for-byte. The recover lane's
 * second run likewise becomes a replay of the first run's recording.
 *
 * With --artifact-dir=DIR (or CLEAN_ARTIFACT_DIR in the environment —
 * CI red jobs use this) every violating seed is deterministically
 * re-run with the flight recorder enabled and its event trace, failure
 * report, and record/replay trace land in DIR as
 * seed<N>_{trace,report}.json + seed<N>.cleantrace — the last one is a
 * bit-exact local repro: `cleanrun --replay=seed<N>.cleantrace`.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "support/exit_codes.h"
#include "support/options.h"
#include "support/prng.h"
#include "workloads/runner.h"

namespace clean::wl
{
namespace
{

/** Workloads the sweep draws from. Race-free variants double as the
 *  kill-fault targets (a kill on a racy workload makes the race-vs-
 *  deadlock classification a physical coin toss; on a race-free one the
 *  outcome is always the watchdog's DeadlockError). */
const char *const kRaceFree[] = {"fft",       "lu_cb",    "streamcluster",
                                 "swaptions", "water_sp", "blackscholes"};
const char *const kRacy[] = {"radix", "raytrace", "volrend", "ferret",
                             "canneal"};

enum class Outcome { Clean, Race, Deadlock, Violation };

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Clean: return "clean";
      case Outcome::Race: return "race";
      case Outcome::Deadlock: return "deadlock";
      case Outcome::Violation: return "VIOLATION";
    }
    return "?";
}

struct RunPlan
{
    std::string workload;
    bool racy = false;
    inject::FaultKind kind = inject::FaultKind::SkipCheck;
    OnRacePolicy policy = OnRacePolicy::Throw;
    std::uint32_t maxRecoveries = 8;
    /** Overhead budget in percent; 0 leaves the sampling tier off. */
    std::uint32_t budget = 0;
    /** Pin the admission level (budget lane); -1 lets the governor
     *  drive. */
    std::int32_t forceLevel = -1;
};

/** Expands one sweep seed into a run: workload, fault kind, policy.
 *  Pure function of the seed — replays rebuild the identical plan. */
RunPlan
planFor(std::uint64_t seed)
{
    Prng prng(seed * 0x9e3779b97f4a7c15ULL + 1);
    RunPlan plan;
    const auto kind = static_cast<inject::FaultKind>(prng.nextBelow(5));
    plan.kind = kind;
    if (kind == inject::FaultKind::KillThread) {
        // Kill faults stay on race-free variants (see table comment).
        plan.workload = kRaceFree[prng.nextBelow(std::size(kRaceFree))];
    } else if (prng.nextBool(0.5)) {
        plan.workload = kRaceFree[prng.nextBelow(std::size(kRaceFree))];
    } else {
        plan.workload = kRacy[prng.nextBelow(std::size(kRacy))];
        plan.racy = true;
    }
    // A slice of the non-kill runs exercises the degraded Report path:
    // the run completes, races are only recorded.
    if (kind != inject::FaultKind::KillThread && prng.nextBool(0.25))
        plan.policy = OnRacePolicy::Report;
    return plan;
}

struct SoakResult
{
    Outcome outcome = Outcome::Violation;
    std::string detail;
    std::uint64_t raceCount = 0;
    std::uint64_t outputHash = 0;
    std::uint64_t recovered = 0;
    std::uint64_t attempts = 0;
    std::uint64_t quarantined = 0;
    /** Reads the sampling gate shed (budget lane). */
    std::uint64_t shedReads = 0;
    int exitCode = 0;
    /** Filled only when the run was made with the flight recorder on
     *  (the artifact re-run of a violating seed). */
    std::string obsTrace;
    std::string failureReport;
    /** Metrics snapshot; filled whenever the recorder ran (obs on, or
     *  record/replay forcing it). */
    std::string metricsJson;
    /** A replay fault (divergence / truncation) was latched. */
    bool traceFault = false;
    std::string traceDetail;
};

/** The exit code the run's outcome commits cleanrun to (the soak
 *  cross-checks the classifier against support/exit_codes.h). */
int
expectedExit(const RunPlan &plan, const SoakResult &r)
{
    if (r.outcome == Outcome::Deadlock)
        return static_cast<int>(ExitCode::Deadlock);
    if (r.outcome == Outcome::Race)
        return static_cast<int>(ExitCode::Race);
    if (r.quarantined > 0)
        return static_cast<int>(ExitCode::Quarantine);
    // A degraded-policy run completes with races only recorded; that
    // still fails the process unless the policy actively recovered.
    if (r.raceCount > 0 && plan.policy != OnRacePolicy::Recover)
        return static_cast<int>(ExitCode::Race);
    return static_cast<int>(ExitCode::Ok);
}

SoakResult
runOne(std::uint64_t seed, const RunPlan &plan, unsigned threads,
       std::uint64_t watchdogMs, bool withObs = false,
       const std::string &recordPath = std::string(),
       const std::string &replayPath = std::string())
{
    RunSpec spec;
    spec.workload = plan.workload;
    spec.backend = BackendKind::Clean;
    spec.params.threads = threads;
    spec.params.scale = Scale::Test;
    spec.params.racy = plan.racy;
    spec.runtime.maxThreads = 32;
    spec.runtime.heap.sharedBytes = std::size_t{256} << 20;
    spec.runtime.heap.privateBytes = std::size_t{64} << 20;
    spec.runtime.watchdogMs = watchdogMs;
    spec.runtime.onRace = plan.policy;
    spec.runtime.maxRecoveries = plan.maxRecoveries;
    spec.runtime.obs.enabled = withObs;
    if (plan.budget > 0) {
        spec.runtime.overheadBudget = plan.budget;
        spec.runtime.sampleForceLevel = plan.forceLevel;
        // Short windows so shedding engages at Scale::Test run lengths.
        spec.runtime.checker.sample.windowLog2 = 6;
        spec.runtime.checker.sample.burstWindows = 1;
    }
    spec.recordPath = recordPath;
    spec.replayPath = replayPath;

    auto &inject = spec.runtime.inject;
    inject.enabled = true;
    inject.seed = seed;
    inject.delayMicros = 50;
    switch (plan.kind) {
      case inject::FaultKind::SkipCheck: inject.skipCheckRate = 0.001; break;
      case inject::FaultKind::SkipAcquire:
        inject.skipAcquireRate = 0.05;
        break;
      case inject::FaultKind::Delay: inject.delayRate = 0.001; break;
      case inject::FaultKind::ForceRollover:
        inject.rolloverRate = 0.0005;
        break;
      case inject::FaultKind::KillThread: inject.killRate = 0.0005; break;
      default: break;
    }

    SoakResult soak;
    try {
        const RunResult result = runWorkload(spec);
        soak.raceCount = result.raceCount;
        soak.outputHash = result.outputHash;
        soak.recovered = result.recoveredRaces;
        soak.attempts = result.recoveryAttempts;
        soak.quarantined = result.quarantinedSites;
        soak.shedReads = result.checker.shedReads;
        soak.obsTrace = result.obsTraceJson;
        soak.failureReport = result.failureReport;
        soak.metricsJson = result.metricsJson;
        if (result.traceFault) {
            soak.traceFault = true;
            soak.traceDetail = result.traceFaultKind + ": " +
                               result.traceFaultMessage;
        }
        const bool raceFailed =
            result.raceException ||
            (result.raceCount > 0 &&
             plan.policy != OnRacePolicy::Recover);
        soak.exitCode = exitCodeForRun(result.deadlock,
                                       result.quarantinedSites > 0,
                                       raceFailed);
        if (result.deadlock) {
            soak.outcome = Outcome::Deadlock;
            soak.detail = result.deadlockMessage;
        } else if (result.raceException) {
            soak.outcome = Outcome::Race;
            soak.detail = result.raceMessage;
        } else {
            soak.outcome = Outcome::Clean;
        }
    } catch (const std::exception &e) {
        // runWorkload classifies every expected failure itself; anything
        // that escapes is exactly what the soak exists to catch.
        soak.outcome = Outcome::Violation;
        soak.detail = std::string("escaped exception: ") + e.what();
    } catch (...) {
        soak.outcome = Outcome::Violation;
        soak.detail = "escaped unknown exception";
    }
    return soak;
}

bool
writeArtifact(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                    content.size();
    return std::fclose(f) == 0 && ok;
}

/** Re-runs a violating seed with the flight recorder and the record
 *  sink, and writes its event trace + failure report + record/replay
 *  trace into @p dir (injection is a pure function of the seed, so the
 *  re-run reproduces the violation). The .cleantrace is the bit-exact
 *  local repro: `cleanrun --replay=seed<N>.cleantrace`. */
void
dumpArtifacts(const std::string &dir, std::uint64_t seed,
              const RunPlan &plan, unsigned threads,
              std::uint64_t watchdogMs)
{
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string base = dir + "/seed" + std::to_string(seed);
    const SoakResult r = runOne(seed, plan, threads, watchdogMs,
                                /*withObs=*/true,
                                /*recordPath=*/base + ".cleantrace");
    if (!writeArtifact(base + "_trace.json", r.obsTrace) ||
        !writeArtifact(base + "_report.json", r.failureReport)) {
        std::printf("  (failed to write artifacts under %s)\n",
                    dir.c_str());
        return;
    }
    std::printf("  artifacts: %s_{trace,report}.json + %s.cleantrace\n",
                base.c_str(), base.c_str());
}

/** The --audit=replay determinism check for one seed: record a run,
 *  replay it from the trace, and demand the same outcome — byte-equal
 *  failure report and metrics for completing runs, equal outcome/exit
 *  for aborted ones (their physically-timed tails are not comparable).
 *  Returns an empty string on success, the mismatch description
 *  otherwise. */
std::string
replayAuditSeed(std::uint64_t seed, const RunPlan &plan, unsigned threads,
                std::uint64_t watchdogMs, const std::string &tracePath)
{
    const SoakResult a =
        runOne(seed, plan, threads, watchdogMs, /*withObs=*/false,
               /*recordPath=*/tracePath);
    if (a.outcome == Outcome::Violation)
        return "record run violated: " + a.detail;
    const SoakResult b =
        runOne(seed, plan, threads, watchdogMs, /*withObs=*/false,
               /*recordPath=*/std::string(), /*replayPath=*/tracePath);
    if (b.outcome == Outcome::Violation)
        return "replay run violated: " + b.detail;
    if (b.traceFault) {
        // Genuinely racy programs replay best-effort: a racy value that
        // reached control flow (possible under degraded policies or
        // injected skip faults) moves the access stream, and with it the
        // Kendo schedule, physically. The contract is then a precisely
        // located divergence report — which is what we just got — never
        // a hang or a silently wrong re-execution.
        if (plan.racy)
            return std::string();
        return "replay fault " + b.traceDetail;
    }
    // Same caveat for every other check: a racy run's replay reached a
    // structured outcome without faulting, which is all its best-effort
    // contract demands (the outcome itself may shift with the physical
    // location of the races).
    if (plan.racy)
        return std::string();
    if (b.outcome != a.outcome || b.exitCode != a.exitCode)
        return std::string("outcome ") + outcomeName(a.outcome) + "/exit " +
               std::to_string(a.exitCode) + " replayed as " +
               outcomeName(b.outcome) + "/exit " +
               std::to_string(b.exitCode);
    if ((a.raceCount > 0) != (b.raceCount > 0))
        return "race detection did not reproduce under replay";
    if (a.outcome == Outcome::Clean && a.raceCount == 0) {
        if (a.outputHash != b.outputHash)
            return "output hash diverged under replay";
        if (a.failureReport != b.failureReport)
            return "failure report not byte-identical under replay";
        if (a.metricsJson != b.metricsJson)
            return "metrics JSON not byte-identical under replay";
        if (a.recovered != b.recovered || a.attempts != b.attempts ||
            a.quarantined != b.quarantined)
            return "recovery ledger diverged under replay";
    }
    return std::string();
}

} // namespace
} // namespace clean::wl

int
main(int argc, char **argv)
{
    using namespace clean;
    using namespace clean::wl;

    const Options opts = Options::parse(argc, argv);
    const auto runs =
        static_cast<std::uint64_t>(opts.getInt("runs", 200));
    const auto seedBase =
        static_cast<std::uint64_t>(opts.getInt("seed-base", 1));
    const auto threads =
        static_cast<unsigned>(opts.getInt("threads", 4));
    const auto watchdogMs =
        static_cast<std::uint64_t>(opts.getInt("watchdog-ms", 400));
    const auto replayEvery =
        static_cast<std::uint64_t>(opts.getInt("replay-every", 10));
    const auto recoverRuns = static_cast<std::uint64_t>(opts.getInt(
        "recover-runs",
        static_cast<long long>(std::max<std::uint64_t>(10, runs / 5))));
    const auto budgetRuns = static_cast<std::uint64_t>(opts.getInt(
        "budget-runs",
        static_cast<long long>(std::max<std::uint64_t>(10, runs / 5))));
    const bool verbose = opts.getBool("verbose", false);
    const std::string artifactDir = opts.getString("artifact-dir", "");
    const std::string auditMode = opts.getString("audit", "rerun");
    if (auditMode != "rerun" && auditMode != "replay") {
        std::fprintf(stderr, "chaos_soak: unknown --audit mode '%s' "
                             "(rerun|replay)\n",
                     auditMode.c_str());
        return 2;
    }
    // Scratch space for --audit=replay traces: the artifact dir when
    // given (the traces are useful artifacts), a temp dir otherwise.
    std::string auditDir = artifactDir;
    if (auditMode == "replay" && auditDir.empty()) {
        auditDir = (std::filesystem::temp_directory_path() /
                    "clean_chaos_audit")
                       .string();
    }
    if (auditMode == "replay") {
        std::error_code ec;
        std::filesystem::create_directories(auditDir, ec);
    }

    if (opts.has("seed")) {
        const auto seed =
            static_cast<std::uint64_t>(opts.getInt("seed", 1));
        const RunPlan plan = planFor(seed);
        const SoakResult r = runOne(seed, plan, threads, watchdogMs);
        std::printf("seed %llu: %s/%s%s policy=%s -> %s (races %llu)\n",
                    static_cast<unsigned long long>(seed),
                    plan.workload.c_str(),
                    inject::faultKindName(plan.kind),
                    plan.racy ? " [racy]" : "",
                    onRacePolicyName(plan.policy), outcomeName(r.outcome),
                    static_cast<unsigned long long>(r.raceCount));
        if (!r.detail.empty())
            std::printf("  %s\n", r.detail.c_str());
        return r.outcome == Outcome::Violation ? 1 : 0;
    }

    std::map<std::string, std::uint64_t> tally;
    std::vector<Outcome> outcomes(runs, Outcome::Violation);
    std::uint64_t violations = 0;

    // Reference output hashes of race-free workloads: a clean completion
    // that silently computed the wrong answer is a soak failure too.
    std::map<std::string, std::uint64_t> reference;
    for (const char *name : kRaceFree) {
        RunPlan ref;
        ref.workload = name;
        ref.kind = inject::FaultKind::Delay; // rate 0.001, benign
        reference[name] =
            runOne(0, ref, threads, watchdogMs).outputHash;
    }

    for (std::uint64_t i = 0; i < runs; ++i) {
        const std::uint64_t seed = seedBase + i;
        const RunPlan plan = planFor(seed);
        const SoakResult r = runOne(seed, plan, threads, watchdogMs);
        outcomes[i] = r.outcome;
        tally[std::string(inject::faultKindName(plan.kind)) + "/" +
              outcomeName(r.outcome)]++;

        bool bad = r.outcome == Outcome::Violation;
        // Exit-code discipline: the outcome classification and the
        // process exit code must never disagree (README table).
        if (r.outcome != Outcome::Violation &&
            r.exitCode != expectedExit(plan, r)) {
            bad = true;
            std::printf("seed %llu: EXIT-CODE MISMATCH on %s/%s: "
                        "%d != expected %d\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        inject::faultKindName(plan.kind), r.exitCode,
                        expectedExit(plan, r));
        }
        // Wrong-output check: a race-free workload that completed
        // cleanly must have produced the reference answer.
        if (r.outcome == Outcome::Clean && !plan.racy &&
            plan.policy == OnRacePolicy::Throw && r.raceCount == 0 &&
            r.outputHash != reference[plan.workload]) {
            bad = true;
            std::printf("seed %llu: SILENT WRONG OUTPUT on %s "
                        "(%016llx != %016llx)\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        static_cast<unsigned long long>(r.outputHash),
                        static_cast<unsigned long long>(
                            reference[plan.workload]));
        }
        if (bad) {
            ++violations;
            std::printf("seed %llu: VIOLATION on %s/%s: %s\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        inject::faultKindName(plan.kind),
                        r.detail.c_str());
            dumpArtifacts(artifactDir, seed, plan, threads, watchdogMs);
        } else if (verbose) {
            std::printf("seed %llu: %s/%s%s -> %s (races %llu)\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        inject::faultKindName(plan.kind),
                        plan.racy ? " [racy]" : "",
                        outcomeName(r.outcome),
                        static_cast<unsigned long long>(r.raceCount));
        }
    }

    // Determinism audit: replaying a seed must reproduce its outcome —
    // by re-execution (rerun) or through a recorded trace (replay).
    std::uint64_t replayed = 0, mismatches = 0;
    for (std::uint64_t i = 0; i < runs; i += replayEvery) {
        const std::uint64_t seed = seedBase + i;
        const RunPlan plan = planFor(seed);
        ++replayed;
        if (auditMode == "replay") {
            const std::string tracePath = auditDir + "/chaos_seed" +
                                          std::to_string(seed) +
                                          ".cleantrace";
            const std::string why = replayAuditSeed(seed, plan, threads,
                                                    watchdogMs, tracePath);
            if (!why.empty()) {
                ++mismatches;
                std::printf("seed %llu: REPLAY-AUDIT MISMATCH on %s/%s: "
                            "%s\n",
                            static_cast<unsigned long long>(seed),
                            plan.workload.c_str(),
                            inject::faultKindName(plan.kind), why.c_str());
            } else if (artifactDir.empty()) {
                std::error_code ec;
                std::filesystem::remove(tracePath, ec);
            }
            continue;
        }
        const SoakResult r = runOne(seed, plan, threads, watchdogMs);
        if (r.outcome != outcomes[i]) {
            ++mismatches;
            std::printf("seed %llu: REPLAY MISMATCH %s -> %s\n",
                        static_cast<unsigned long long>(seed),
                        outcomeName(outcomes[i]), outcomeName(r.outcome));
        }
    }

    // Recover-policy lane (ISSUE 3). SkipAcquire on a race-free workload
    // drops happens-before edges while the physical mutex still
    // serializes the data, so every detected race is metadata-only and
    // rollback + replay must land on the reference output. Kill faults
    // stay out of this lane: a killed worker's partial sink hash is not
    // folded into the final output, so output equality is undefined.
    std::uint64_t recoverTotal = 0, recoverEpisodes = 0;
    for (std::uint64_t i = 0; i < recoverRuns; ++i) {
        const std::uint64_t seed = seedBase + 100000 + i;
        Prng prng(seed * 0x9e3779b97f4a7c15ULL + 7);
        RunPlan plan;
        plan.workload = kRaceFree[prng.nextBelow(std::size(kRaceFree))];
        plan.kind = inject::FaultKind::SkipAcquire;
        plan.policy = OnRacePolicy::Recover;
        plan.maxRecoveries = 1000000; // never quarantine in this lane

        // Under --audit=replay the second run is not a re-execution but
        // a replay of the first run's recording — the stronger check
        // that the trace alone pins the recovery schedule.
        std::string recoverTrace;
        if (auditMode == "replay")
            recoverTrace = auditDir + "/recover_seed" +
                           std::to_string(seed) + ".cleantrace";
        const SoakResult a =
            runOne(seed, plan, threads, watchdogMs, /*withObs=*/false,
                   /*recordPath=*/recoverTrace);
        const SoakResult b =
            runOne(seed, plan, threads, watchdogMs, /*withObs=*/false,
                   /*recordPath=*/std::string(),
                   /*replayPath=*/recoverTrace);
        if (!recoverTrace.empty() && artifactDir.empty()) {
            std::error_code ec;
            std::filesystem::remove(recoverTrace, ec);
        }
        ++recoverTotal;
        recoverEpisodes += a.attempts;

        bool bad = false;
        if (a.outcome != Outcome::Clean || a.exitCode != 0) {
            bad = true;
            std::printf("recover seed %llu: NOT RECOVERED on %s: %s "
                        "(exit %d) %s\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(), outcomeName(a.outcome),
                        a.exitCode, a.detail.c_str());
        } else if (a.outputHash != reference[plan.workload]) {
            bad = true;
            std::printf("recover seed %llu: WRONG OUTPUT on %s "
                        "(%016llx != %016llx)\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        static_cast<unsigned long long>(a.outputHash),
                        static_cast<unsigned long long>(
                            reference[plan.workload]));
        } else if (b.traceFault) {
            bad = true;
            std::printf("recover seed %llu: REPLAY FAULT on %s: %s\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(), b.traceDetail.c_str());
        } else if (b.outcome != a.outcome ||
                   b.outputHash != a.outputHash ||
                   b.recovered != a.recovered ||
                   b.attempts != a.attempts) {
            bad = true;
            std::printf("recover seed %llu: REPLAY MISMATCH on %s "
                        "(out %016llx/%016llx recovered %llu/%llu "
                        "attempts %llu/%llu)\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        static_cast<unsigned long long>(a.outputHash),
                        static_cast<unsigned long long>(b.outputHash),
                        static_cast<unsigned long long>(a.recovered),
                        static_cast<unsigned long long>(b.recovered),
                        static_cast<unsigned long long>(a.attempts),
                        static_cast<unsigned long long>(b.attempts));
        } else if (verbose) {
            std::printf("recover seed %llu: %s clean (recovered %llu "
                        "of %llu attempts)\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        static_cast<unsigned long long>(a.recovered),
                        static_cast<unsigned long long>(a.attempts));
        }
        if (bad) {
            ++violations;
            dumpArtifacts(artifactDir, seed, plan, threads, watchdogMs);
        }
    }

    // Sampling-governor lane (ISSUE 8). The same fault sweep — kill
    // faults, forced rollovers, skipped acquires and all — with the
    // sampling tier live. Shedding read checks is sound (reads never
    // update shadow metadata), so every invariant the plain sweep
    // enforces must survive unchanged under an active budget: the
    // structured-outcome guarantee, exit-code discipline, and reference
    // output on clean race-free completions. Odd seeds pin a deep
    // forced level so heavy shedding is guaranteed to be in effect the
    // moment the fault fires; even seeds leave the governor in charge.
    std::uint64_t budgetTotal = 0, budgetSheds = 0;
    const std::uint32_t kBudgets[] = {5, 10, 25, 50};
    for (std::uint64_t i = 0; i < budgetRuns; ++i) {
        const std::uint64_t seed = seedBase + 200000 + i;
        RunPlan plan = planFor(seed);
        plan.budget = kBudgets[i % std::size(kBudgets)];
        plan.forceLevel = (i % 2 == 1) ? 8 : -1;
        const SoakResult r = runOne(seed, plan, threads, watchdogMs);
        ++budgetTotal;
        budgetSheds += r.shedReads;
        tally[std::string("budget/") + inject::faultKindName(plan.kind) +
              "/" + outcomeName(r.outcome)]++;

        bool bad = r.outcome == Outcome::Violation;
        if (r.outcome != Outcome::Violation &&
            r.exitCode != expectedExit(plan, r)) {
            bad = true;
            std::printf("budget seed %llu: EXIT-CODE MISMATCH on %s/%s "
                        "(budget %u): %d != expected %d\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        inject::faultKindName(plan.kind), plan.budget,
                        r.exitCode, expectedExit(plan, r));
        }
        if (r.outcome == Outcome::Clean && !plan.racy &&
            plan.policy == OnRacePolicy::Throw && r.raceCount == 0 &&
            r.outputHash != reference[plan.workload]) {
            bad = true;
            std::printf("budget seed %llu: SILENT WRONG OUTPUT on %s "
                        "(budget %u, shed %llu): %016llx != %016llx\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(), plan.budget,
                        static_cast<unsigned long long>(r.shedReads),
                        static_cast<unsigned long long>(r.outputHash),
                        static_cast<unsigned long long>(
                            reference[plan.workload]));
        }
        if (bad) {
            ++violations;
            if (r.outcome == Outcome::Violation)
                std::printf("budget seed %llu: VIOLATION on %s/%s "
                            "(budget %u): %s\n",
                            static_cast<unsigned long long>(seed),
                            plan.workload.c_str(),
                            inject::faultKindName(plan.kind), plan.budget,
                            r.detail.c_str());
            dumpArtifacts(artifactDir, seed, plan, threads, watchdogMs);
        } else if (verbose) {
            std::printf("budget seed %llu: %s/%s%s budget=%u level=%s "
                        "shed=%llu -> %s\n",
                        static_cast<unsigned long long>(seed),
                        plan.workload.c_str(),
                        inject::faultKindName(plan.kind),
                        plan.racy ? " [racy]" : "", plan.budget,
                        plan.forceLevel >= 0 ? "forced" : "governed",
                        static_cast<unsigned long long>(r.shedReads),
                        outcomeName(r.outcome));
        }

        // Under --audit=replay a sample of budgeted seeds must also
        // round-trip through a recorded trace: the SampleLevel /
        // SampleShed lanes make budgeted runs first-class replay
        // citizens, not a special case.
        if (auditMode == "replay" && replayEvery > 0 &&
            i % replayEvery == 0) {
            const std::string tracePath = auditDir + "/budget_seed" +
                                          std::to_string(seed) +
                                          ".cleantrace";
            const std::string why = replayAuditSeed(seed, plan, threads,
                                                    watchdogMs, tracePath);
            ++replayed;
            if (!why.empty()) {
                ++mismatches;
                std::printf("budget seed %llu: REPLAY-AUDIT MISMATCH on "
                            "%s/%s (budget %u): %s\n",
                            static_cast<unsigned long long>(seed),
                            plan.workload.c_str(),
                            inject::faultKindName(plan.kind), plan.budget,
                            why.c_str());
            } else if (artifactDir.empty()) {
                std::error_code ec;
                std::filesystem::remove(tracePath, ec);
            }
        }
    }
    // The lane must actually exercise shedding: the forced-level seeds
    // guarantee it, so zero total sheds means the sampling tier never
    // engaged and the lane tested nothing.
    if (budgetTotal >= 2 && budgetSheds == 0) {
        ++violations;
        std::printf("budget lane: NO READS SHED across %llu runs — "
                    "sampling tier never engaged\n",
                    static_cast<unsigned long long>(budgetTotal));
    }

    std::printf("\nchaos soak: %llu runs, %llu replays, %llu recover "
                "runs (%llu recovery attempts), %llu budget runs "
                "(%llu reads shed)\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(recoverTotal),
                static_cast<unsigned long long>(recoverEpisodes),
                static_cast<unsigned long long>(budgetTotal),
                static_cast<unsigned long long>(budgetSheds));
    for (const auto &[key, count] : tally)
        std::printf("  %-28s %llu\n", key.c_str(),
                    static_cast<unsigned long long>(count));
    std::printf("violations: %llu, replay mismatches: %llu\n",
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(mismatches));

    if (violations || mismatches) {
        std::printf("SOAK FAILED\n");
        return 1;
    }
    std::printf("SOAK PASSED: every run ended in clean | race | deadlock "
                "and every replay reproduced its outcome\n");
    return 0;
}
