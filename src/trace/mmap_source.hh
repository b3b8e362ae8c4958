/**
 * @file
 * Zero-copy BPT1 trace ingestion via mmap.
 *
 * A MappedTrace maps a trace file read-only, validates the header
 * once against the true byte length, and exposes the payload span.
 * The mapping is immutable and shareable: a whole SweepRunner pool
 * or gang replays one file through shared_ptr views instead of N
 * private Trace copies. MmapTraceSource decodes straight out of the
 * mapping into the caller's block scratch — no intermediate slab,
 * no stream reads — with the one BPT1 decoder (bpt::decodeRecords).
 *
 * mmap is POSIX-only; openTraceSource() falls back to the portable
 * BinaryTraceSource when mapping is unavailable, so callers never
 * need to branch on the platform themselves.
 */

#pragma once

#include <memory>
#include <string>

#include "trace/bpt_format.hh"
#include "trace/stream.hh"

namespace bpred
{

/** True when this build can mmap trace files at all. */
bool mmapSupported();

/**
 * A read-only, header-validated mapping of one BPT1 trace file.
 *
 * Immutable after open, so any number of threads may decode from
 * the same mapping concurrently (each MmapTraceSource keeps its own
 * cursor). The underlying pages are advised for sequential access
 * and prefetched (madvise SEQUENTIAL + WILLNEED).
 */
class MappedTrace
{
  public:
    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;
    ~MappedTrace();

    /**
     * Map @p path. Returns nullptr when the mmap mechanism itself
     * is unavailable (non-POSIX build, or open/fstat/mmap failed) —
     * callers fall back to stream ingestion and surface any real
     * file error there.
     *
     * @throws FatalError when the file maps but its header is
     *         malformed: bad magic, unreasonable name, or a record
     *         count the byte length cannot hold. The byte length is
     *         captured once at map time and every later access is
     *         bounded by it, so a well-formed open can never fault
     *         past the mapping (SIGBUS) on a file that is not being
     *         truncated underneath us.
     */
    static std::shared_ptr<const MappedTrace>
    tryOpen(const std::string &path);

    /** Benchmark name from the validated header. */
    const std::string &name() const { return name_; }

    /** Validated record count. */
    u64 count() const { return count_; }

    /** First payload byte (record data, after the header). */
    const u8 *payload() const { return data_ + payloadOffset; }

    /** Payload length in bytes. */
    std::size_t payloadBytes() const { return bytes_ - payloadOffset; }

    /** Whole-file length in bytes. */
    std::size_t fileBytes() const { return bytes_; }

    /** The path the mapping came from. */
    const std::string &path() const { return path_; }

  private:
    MappedTrace() = default;

    const u8 *data_ = nullptr;
    std::size_t bytes_ = 0;
    std::size_t payloadOffset = 0;
    std::string name_;
    u64 count_ = 0;
    std::string path_;
};

/**
 * A TraceSource that decodes records directly from a shared
 * MappedTrace into the caller's pull() buffer. Cheap to construct
 * (no allocation beyond the name handle), so gang members and sweep
 * workers each take their own source over one shared mapping.
 */
class MmapTraceSource : public TraceSource
{
  public:
    /** Stream from an already-open mapping (shared, never copied). */
    explicit MmapTraceSource(std::shared_ptr<const MappedTrace> mapped);

    /**
     * Map @p path and stream from it.
     *
     * @throws FatalError when mmap is unavailable for @p path or
     *         the header is malformed.
     */
    explicit MmapTraceSource(const std::string &path);

    const std::string &name() const override;
    std::size_t pull(BranchRecord *out, std::size_t max) override;

    /** Always validated: the mapping checked count at open time. */
    u64 sizeHint() const override { return cursor.remaining(); }

    /** Records not yet pulled. */
    u64 remaining() const { return cursor.remaining(); }

    /** The shared mapping this source reads. */
    const std::shared_ptr<const MappedTrace> &mapping() const
    {
        return mapped_;
    }

  private:
    std::shared_ptr<const MappedTrace> mapped_;
    bpt::PayloadCursor cursor;
};

/** A source opened for ingestion, and the path it took. */
struct OpenedTrace
{
    std::unique_ptr<TraceSource> source;

    /** "mmap", "stream" or "memory", as the corpus report names it. */
    const char *ingest = "";
};

/**
 * Open @p path for streaming ingestion, preferring the zero-copy
 * mmap path ("mmap") and falling back to BinaryTraceSource
 * ("stream") when mapping is unavailable. Malformed content is fatal
 * either way.
 */
OpenedTrace openTraceSource(const std::string &path);

} // namespace bpred
