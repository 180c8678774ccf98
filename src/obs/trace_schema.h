/**
 * @file
 * Record/replay trace container, schema v1 (ISSUE 6 tentpole).
 *
 * A trace file is the minimal non-deterministic input of one run: the
 * full flight-recorder event stream (whose TurnGrant events *are* the
 * Kendo synchronization order) plus a metadata header pinning every
 * configuration knob that shapes the deterministic execution —
 * workload identity, runtime config, and the injection plan (rates as
 * exact IEEE-754 bit patterns, since decisions are pure hashes of the
 * seed and rates). Replaying a trace under the same binary re-drives
 * the run to byte-identical failure reports and metrics.
 *
 * On-disk layout (version 1):
 *
 *   "CLEANTRACE 1\n"          — magic + schema version (text)
 *   key=value\n ...           — TraceMeta, one field per line (text)
 *   "%%\n"                    — header/body separator
 *   40-byte records ...       — events, fixed little-endian layout:
 *                               det u64, seq u64, arg0 u64, arg1 u64,
 *                               tid u32, kind u8, pad u8[3]
 *   "CLEANEND" + count u64    — footer: present iff the recorder shut
 *                               down cleanly (finalize()); its absence
 *                               marks a *truncated* trace (the recorder
 *                               crashed mid-run)
 *
 * The reader is truncation-tolerant: a body that ends mid-record or
 * without the footer yields the parseable prefix with complete=false —
 * a replay then re-drives that prefix and reports TraceFault::Truncated
 * instead of hanging (see det/replay.h). Header failures throw
 * TraceError (BadFile / BadMagic / BadVersion / BadMeta).
 */

#ifndef CLEAN_OBS_TRACE_SCHEMA_H
#define CLEAN_OBS_TRACE_SCHEMA_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.h"
#include "support/common.h"
#include "support/trace_error.h"

namespace clean::obs
{

/** Schema version this binary reads and writes. v2 added the batched
 *  SFR-boundary checking fields (batch, batch_bytes); v3 the sampling
 *  governor fields (overhead_budget, sample_*) — a budgeted trace pins
 *  the full gate configuration so replayed shed decisions are bit-exact,
 *  with the physically-driven level adoptions replayed from the event
 *  stream itself (SampleLevel); v4 dropped the Kendo counter chunk
 *  size (every deterministic event now publishes to the counter). */
inline constexpr std::uint32_t kTraceSchemaVersion = 4;

/** Bytes of one serialized event record. */
inline constexpr std::size_t kTraceRecordBytes = 40;

/**
 * Everything a replay must match before re-driving events. Enums are
 * serialized as their numeric values (stable within a schema version);
 * injection rates as raw IEEE-754 bit patterns so the rebuilt plan's
 * pure-hash decisions are bit-exact.
 */
struct TraceMeta
{
    std::uint32_t schemaVersion = kTraceSchemaVersion;

    // Workload identity (wl::RunSpec).
    std::string workload;
    std::uint32_t scale = 0;
    std::uint32_t threads = 0;
    bool racy = false;
    std::uint64_t seed = 0;
    std::uint32_t backend = 0;

    // Runtime configuration (RuntimeConfig).
    std::uint32_t clockBits = 0;
    std::uint32_t tidBits = 0;
    std::uint32_t maxThreads = 0;
    std::uint32_t onRace = 0;
    bool vectorized = false;
    bool fastPath = false;
    bool ownCache = false;
    bool batch = true;
    std::uint64_t batchBytes = std::uint64_t{1} << 16;
    std::uint32_t atomicity = 0;
    std::uint32_t shadow = 0;
    std::uint32_t granuleLog2 = 0;
    std::uint64_t rolloverMargin = 0;
    std::uint64_t watchdogMs = 0;
    std::uint32_t maxRecoveries = 0;
    std::uint64_t undoLogEntries = 0;
    std::uint64_t heapSharedBytes = 0;
    std::uint64_t heapPrivateBytes = 0;
    std::uint64_t obsRingEvents = 0;
    std::uint64_t obsFailureTail = 0;

    // Sampling governor (RuntimeConfig::overheadBudget + sample knobs).
    // 0 budget = sampling off. The header serializer speaks unsigned
    // decimal only, so the signed forceLevel (-1 = governed) is encoded
    // off-by-one: 0 = governed, n = forced level n-1.
    std::uint32_t overheadBudget = 0;
    std::uint32_t sampleWindowLog2 = 12;
    std::uint32_t sampleBurst = 4;
    std::uint32_t sampleRegionLog2 = 8;
    std::uint32_t sampleStrikes = 8;
    std::uint64_t sampleSeed = 0x5eedbead;
    std::uint32_t sampleCalibLog2 = 6;
    std::uint32_t sampleForceLevelP1 = 0;

    // Injection plan (inject::InjectionConfig).
    bool injectEnabled = false;
    std::uint64_t injectSeed = 0;
    std::uint64_t skipCheckRateBits = 0;
    std::uint64_t skipAcquireRateBits = 0;
    std::uint64_t delayRateBits = 0;
    std::uint64_t rolloverRateBits = 0;
    std::uint64_t killRateBits = 0;
    std::uint32_t delayMicros = 0;

    bool operator==(const TraceMeta &o) const;
    bool operator!=(const TraceMeta &o) const { return !(*this == o); }
};

/** Exact bit pattern of @p rate (and back) — the serialization used for
 *  injection probabilities. */
std::uint64_t rateToBits(double rate);
double rateFromBits(std::uint64_t bits);

/** Header text: magic line + key=value lines + separator. */
std::string serializeTraceMeta(const TraceMeta &meta);

/** A fully parsed trace file. */
struct TraceFile
{
    TraceMeta meta;
    /** File-order events (nondeterministic interleaving across lanes;
     *  per-lane (tid) order is by seq). Sort before consuming. */
    std::vector<Event> events;
    /** True iff the footer is present: the recorder shut down cleanly.
     *  False marks a truncated trace — the parseable prefix is in
     *  `events`, the remainder of the run is unavailable. */
    bool complete = false;
};

/** Loads and parses @p path; throws TraceError on header failures
 *  (BadFile / BadMagic / BadVersion / BadMeta). Body truncation does
 *  NOT throw — it yields complete=false (see file comment). */
TraceFile readTraceFile(const std::string &path);

/** Serializes one event into its 40-byte record (little-endian). */
void encodeTraceRecord(const Event &e, unsigned char out[kTraceRecordBytes]);

/** Inverse of encodeTraceRecord. */
Event decodeTraceRecord(const unsigned char in[kTraceRecordBytes]);

/**
 * The record sink: an EventHook that persists the event stream as it is
 * produced. Crash-safe by construction — the header is flushed at open,
 * records are flushed to the OS every kFlushEvery events, and only
 * finalize() writes the completeness footer. A process that dies
 * mid-run therefore leaves a well-formed *truncated* trace (at most the
 * last kFlushEvery-1 events lost), never a corrupt one.
 *
 * Thread-safe: lanes call onEvent concurrently; a mutex serializes the
 * appends (cold control points only, never the per-access hot path).
 */
class RecordSink : public EventHook
{
  public:
    /** Opens @p path and writes the header immediately; throws
     *  TraceError(BadFile) when the file cannot be created. */
    RecordSink(const std::string &path, const TraceMeta &meta);

    /** Closes without a footer when finalize() was never called —
     *  exactly the on-disk state of a crashed recorder. */
    ~RecordSink() override;

    RecordSink(const RecordSink &) = delete;
    RecordSink &operator=(const RecordSink &) = delete;

    void onEvent(const Event &e) override;

    /** Flushes buffered records and appends the completeness footer.
     *  Call once, after every recording thread quiesced. */
    void finalize();

    /** Events persisted so far. */
    std::uint64_t recorded() const;

    const std::string &path() const { return path_; }

    /** Records buffered between fflush calls. */
    static constexpr std::uint64_t kFlushEvery = 256;

  private:
    void flushLocked();

    std::string path_;
    mutable std::mutex mutex_;
    std::FILE *file_ = nullptr;
    std::vector<unsigned char> buffer_;
    std::uint64_t count_ = 0;
    bool finalized_ = false;
};

} // namespace clean::obs

#endif // CLEAN_OBS_TRACE_SCHEMA_H
