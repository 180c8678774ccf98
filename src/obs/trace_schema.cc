#include "obs/trace_schema.h"

#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>

namespace clean::obs
{

namespace
{

constexpr const char *kMagic = "CLEANTRACE";
constexpr const char *kSeparator = "%%";
constexpr const char *kFooterMagic = "CLEANEND";
constexpr std::size_t kFooterBytes = 16; // 8 magic + 8 count

void
putU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** The meta fields in serialization order. Listing them once keeps the
 *  writer, the parser and operator== in lockstep. */
struct FieldRef
{
    const char *key;
    enum class Type { U32, U64, Bool, Str } type;
    void *ptr;
};

std::vector<FieldRef>
metaFields(TraceMeta &m)
{
    using T = FieldRef::Type;
    return {
        {"workload", T::Str, &m.workload},
        {"scale", T::U32, &m.scale},
        {"threads", T::U32, &m.threads},
        {"racy", T::Bool, &m.racy},
        {"seed", T::U64, &m.seed},
        {"backend", T::U32, &m.backend},
        {"clock_bits", T::U32, &m.clockBits},
        {"tid_bits", T::U32, &m.tidBits},
        {"max_threads", T::U32, &m.maxThreads},
        {"on_race", T::U32, &m.onRace},
        {"vectorized", T::Bool, &m.vectorized},
        {"fast_path", T::Bool, &m.fastPath},
        {"own_cache", T::Bool, &m.ownCache},
        {"batch", T::Bool, &m.batch},
        {"batch_bytes", T::U64, &m.batchBytes},
        {"atomicity", T::U32, &m.atomicity},
        {"shadow", T::U32, &m.shadow},
        {"granule_log2", T::U32, &m.granuleLog2},
        {"rollover_margin", T::U64, &m.rolloverMargin},
        {"watchdog_ms", T::U64, &m.watchdogMs},
        {"max_recoveries", T::U32, &m.maxRecoveries},
        {"undo_log_entries", T::U64, &m.undoLogEntries},
        {"heap_shared_bytes", T::U64, &m.heapSharedBytes},
        {"heap_private_bytes", T::U64, &m.heapPrivateBytes},
        {"obs_ring_events", T::U64, &m.obsRingEvents},
        {"obs_failure_tail", T::U64, &m.obsFailureTail},
        {"overhead_budget", T::U32, &m.overheadBudget},
        {"sample_window_log2", T::U32, &m.sampleWindowLog2},
        {"sample_burst", T::U32, &m.sampleBurst},
        {"sample_region_log2", T::U32, &m.sampleRegionLog2},
        {"sample_strikes", T::U32, &m.sampleStrikes},
        {"sample_seed", T::U64, &m.sampleSeed},
        {"sample_calib_log2", T::U32, &m.sampleCalibLog2},
        {"sample_force_level_p1", T::U32, &m.sampleForceLevelP1},
        {"inject_enabled", T::Bool, &m.injectEnabled},
        {"inject_seed", T::U64, &m.injectSeed},
        {"skip_check_rate_bits", T::U64, &m.skipCheckRateBits},
        {"skip_acquire_rate_bits", T::U64, &m.skipAcquireRateBits},
        {"delay_rate_bits", T::U64, &m.delayRateBits},
        {"rollover_rate_bits", T::U64, &m.rolloverRateBits},
        {"kill_rate_bits", T::U64, &m.killRateBits},
        {"delay_micros", T::U32, &m.delayMicros},
    };
}

std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    if (value.empty())
        throw TraceError(TraceFault::BadMeta, "empty value for '" + key + "'");
    std::uint64_t v = 0;
    for (char c : value) {
        if (c < '0' || c > '9')
            throw TraceError(TraceFault::BadMeta,
                             "non-numeric value for '" + key + "': " + value);
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
}

} // namespace

bool
TraceMeta::operator==(const TraceMeta &o) const
{
    auto &self = const_cast<TraceMeta &>(*this);
    auto &other = const_cast<TraceMeta &>(o);
    const auto a = metaFields(self);
    const auto b = metaFields(other);
    if (schemaVersion != o.schemaVersion)
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        switch (a[i].type) {
          case FieldRef::Type::U32:
            if (*static_cast<std::uint32_t *>(a[i].ptr) !=
                *static_cast<std::uint32_t *>(b[i].ptr))
                return false;
            break;
          case FieldRef::Type::U64:
            if (*static_cast<std::uint64_t *>(a[i].ptr) !=
                *static_cast<std::uint64_t *>(b[i].ptr))
                return false;
            break;
          case FieldRef::Type::Bool:
            if (*static_cast<bool *>(a[i].ptr) !=
                *static_cast<bool *>(b[i].ptr))
                return false;
            break;
          case FieldRef::Type::Str:
            if (*static_cast<std::string *>(a[i].ptr) !=
                *static_cast<std::string *>(b[i].ptr))
                return false;
            break;
        }
    }
    return true;
}

std::uint64_t
rateToBits(double rate)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(rate));
    std::memcpy(&bits, &rate, sizeof(bits));
    return bits;
}

double
rateFromBits(std::uint64_t bits)
{
    double rate = 0;
    std::memcpy(&rate, &bits, sizeof(rate));
    return rate;
}

std::string
serializeTraceMeta(const TraceMeta &meta)
{
    auto &m = const_cast<TraceMeta &>(meta);
    std::ostringstream out;
    out << kMagic << ' ' << meta.schemaVersion << '\n';
    for (const FieldRef &f : metaFields(m)) {
        out << f.key << '=';
        switch (f.type) {
          case FieldRef::Type::U32:
            out << *static_cast<std::uint32_t *>(f.ptr);
            break;
          case FieldRef::Type::U64:
            out << *static_cast<std::uint64_t *>(f.ptr);
            break;
          case FieldRef::Type::Bool:
            out << (*static_cast<bool *>(f.ptr) ? 1 : 0);
            break;
          case FieldRef::Type::Str:
            out << *static_cast<std::string *>(f.ptr);
            break;
        }
        out << '\n';
    }
    out << kSeparator << '\n';
    return out.str();
}

void
encodeTraceRecord(const Event &e, unsigned char out[kTraceRecordBytes])
{
    putU64(out + 0, e.det);
    putU64(out + 8, e.seq);
    putU64(out + 16, e.arg0);
    putU64(out + 24, e.arg1);
    putU32(out + 32, e.tid);
    out[36] = static_cast<unsigned char>(e.kind);
    out[37] = out[38] = out[39] = 0;
}

Event
decodeTraceRecord(const unsigned char in[kTraceRecordBytes])
{
    Event e;
    e.det = getU64(in + 0);
    e.seq = getU64(in + 8);
    e.arg0 = getU64(in + 16);
    e.arg1 = getU64(in + 24);
    e.tid = getU32(in + 32);
    e.kind = static_cast<EventKind>(in[36]);
    return e;
}

TraceFile
readTraceFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw TraceError(TraceFault::BadFile, "cannot open trace '" + path +
                                                  "': " +
                                                  std::strerror(errno));
    std::string raw;
    {
        char chunk[65536];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            raw.append(chunk, n);
        const bool readError = std::ferror(f) != 0;
        std::fclose(f);
        if (readError)
            throw TraceError(TraceFault::BadFile,
                             "read error on trace '" + path + "'");
    }

    // --- header: magic + version line ---
    std::size_t pos = raw.find('\n');
    if (pos == std::string::npos)
        throw TraceError(TraceFault::BadMagic,
                         "'" + path + "' is not a CLEAN trace (no header)");
    const std::string firstLine = raw.substr(0, pos);
    const std::string magicPrefix = std::string(kMagic) + ' ';
    if (firstLine.compare(0, magicPrefix.size(), magicPrefix) != 0)
        throw TraceError(TraceFault::BadMagic,
                         "'" + path + "' is not a CLEAN trace (magic '" +
                             firstLine.substr(0, magicPrefix.size()) + "')");
    const std::uint64_t version =
        parseU64("version", firstLine.substr(magicPrefix.size()));
    if (version != kTraceSchemaVersion)
        throw TraceError(TraceFault::BadVersion,
                         "trace schema version " + std::to_string(version) +
                             " (this binary speaks version " +
                             std::to_string(kTraceSchemaVersion) + ")");

    // --- header: key=value lines until the separator ---
    TraceFile out;
    out.meta.schemaVersion = static_cast<std::uint32_t>(version);
    std::map<std::string, std::string> kv;
    std::size_t bodyStart = std::string::npos;
    std::size_t lineStart = pos + 1;
    while (lineStart < raw.size()) {
        const std::size_t lineEnd = raw.find('\n', lineStart);
        if (lineEnd == std::string::npos)
            break;
        const std::string line = raw.substr(lineStart, lineEnd - lineStart);
        lineStart = lineEnd + 1;
        if (line == kSeparator) {
            bodyStart = lineStart;
            break;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw TraceError(TraceFault::BadMeta,
                             "malformed header line '" + line + "'");
        kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    if (bodyStart == std::string::npos)
        throw TraceError(TraceFault::BadMeta,
                         "header separator missing (truncated header)");

    for (const FieldRef &f : metaFields(out.meta)) {
        const auto it = kv.find(f.key);
        if (it == kv.end())
            throw TraceError(TraceFault::BadMeta,
                             std::string("missing header key '") + f.key +
                                 "'");
        switch (f.type) {
          case FieldRef::Type::U32:
            *static_cast<std::uint32_t *>(f.ptr) =
                static_cast<std::uint32_t>(parseU64(f.key, it->second));
            break;
          case FieldRef::Type::U64:
            *static_cast<std::uint64_t *>(f.ptr) =
                parseU64(f.key, it->second);
            break;
          case FieldRef::Type::Bool:
            *static_cast<bool *>(f.ptr) = parseU64(f.key, it->second) != 0;
            break;
          case FieldRef::Type::Str:
            *static_cast<std::string *>(f.ptr) = it->second;
            break;
        }
    }

    // --- body: records, then (iff the recorder shut down cleanly) the
    // footer. Anything that does not parse as a clean footer is treated
    // as truncation: keep every full record, drop the partial tail. ---
    const unsigned char *body =
        reinterpret_cast<const unsigned char *>(raw.data()) + bodyStart;
    std::size_t bodyBytes = raw.size() - bodyStart;

    if (bodyBytes >= kFooterBytes) {
        const unsigned char *footer = body + bodyBytes - kFooterBytes;
        if (std::memcmp(footer, kFooterMagic, 8) == 0) {
            const std::uint64_t count = getU64(footer + 8);
            if (count * kTraceRecordBytes + kFooterBytes == bodyBytes) {
                out.complete = true;
                bodyBytes -= kFooterBytes;
            }
        }
    }

    const std::size_t records = bodyBytes / kTraceRecordBytes;
    out.events.reserve(records);
    for (std::size_t i = 0; i < records; ++i) {
        Event e = decodeTraceRecord(body + i * kTraceRecordBytes);
        if (static_cast<std::size_t>(e.kind) >= kEventKindCount) {
            // A corrupt record invalidates everything after it; treat
            // the clean prefix as the trace (same as truncation).
            out.events.resize(i);
            out.complete = false;
            return out;
        }
        out.events.push_back(e);
    }
    return out;
}

RecordSink::RecordSink(const std::string &path, const TraceMeta &meta)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        throw TraceError(TraceFault::BadFile,
                         "cannot create trace '" + path +
                             "': " + std::strerror(errno));
    const std::string header = serializeTraceMeta(meta);
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
        header.size()) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError(TraceFault::BadFile,
                         "cannot write trace header to '" + path + "'");
    }
    std::fflush(file_);
    buffer_.reserve(kFlushEvery * kTraceRecordBytes);
}

RecordSink::~RecordSink()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (file_ != nullptr) {
        flushLocked();
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
RecordSink::onEvent(const Event &e)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (file_ == nullptr || finalized_)
        return;
    unsigned char record[kTraceRecordBytes];
    encodeTraceRecord(e, record);
    buffer_.insert(buffer_.end(), record, record + kTraceRecordBytes);
    ++count_;
    if (count_ % kFlushEvery == 0)
        flushLocked();
}

void
RecordSink::finalize()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (file_ == nullptr || finalized_)
        return;
    flushLocked();
    unsigned char footer[16];
    std::memcpy(footer, "CLEANEND", 8);
    putU64(footer + 8, count_);
    std::fwrite(footer, 1, sizeof(footer), file_);
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
    finalized_ = true;
}

std::uint64_t
RecordSink::recorded() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return count_;
}

void
RecordSink::flushLocked()
{
    if (!buffer_.empty()) {
        std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
        buffer_.clear();
    }
    std::fflush(file_);
}

} // namespace clean::obs
