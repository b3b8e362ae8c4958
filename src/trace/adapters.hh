/**
 * @file
 * Real-trace ingestion adapters: public branch-trace corpora come
 * as CBP/CSE240A-style text ("<pc> <taken>" lines), often gzipped,
 * rather than our BPT1 binary. These adapters normalize any of the
 * supported on-disk forms into the TraceSource world so the corpus
 * runner treats a directory of mixed real and synthetic traces
 * uniformly:
 *
 *   .bpt      BPT1 binary (mmap'd when possible)
 *   .bpt.gz   gzipped BPT1 (inflated, then the same header parser
 *             and payload cursor as the mmap path)
 *   .txt      text: either our "C|U <hexpc> T|N" format or the
 *             CBP-style "<pc> <dir>" format, auto-detected
 *   .txt.gz / .gz   gzipped text, same auto-detection
 *
 * gz support depends on zlib (BPRED_HAVE_ZLIB, probed by CMake);
 * without it the gz paths fail with a clear fatal() instead of a
 * silent misparse.
 */

#pragma once

#include <memory>
#include <string>

#include "trace/mmap_source.hh"

namespace bpred
{

/** True when this build can inflate .gz traces (zlib present). */
bool gzSupported();

/**
 * Deflate @p bytes to @p path as a gzip file — how tests and the
 * CI corpus generator produce .gz fixtures without shelling out.
 *
 * @return false when the build lacks zlib (nothing written).
 * @throws FatalError on I/O errors.
 */
bool writeGzFile(const std::string &path, const std::string &bytes);

/** True when loadRealTrace() recognizes @p path's extension. */
bool isTraceFileName(const std::string &path);

/**
 * Parse CBP/CSE240A-style text: one branch per line, "<pc> <dir>"
 * where <pc> is decimal or 0x-prefixed hex and <dir> is 0/1 or
 * T/N (case-insensitive); '#' starts a comment. Every record is a
 * conditional branch — the format carries no kind bit.
 *
 * @throws FatalError on a malformed line.
 */
Trace readCbpTextTrace(std::istream &is, const std::string &name);

/**
 * Load any supported trace file into memory, dispatching on the
 * extension and auto-detecting the text dialect.
 *
 * @throws FatalError on unsupported extensions, malformed content,
 *         or a .gz file in a build without zlib.
 */
Trace loadRealTrace(const std::string &path);

/**
 * A TraceSource owning its materialized Trace — how text and gz
 * inputs (which cannot be decoded incrementally from disk) enter
 * the streaming pipeline.
 */
class OwnedTraceSource : public TraceSource
{
  public:
    explicit OwnedTraceSource(Trace trace) : trace_(std::move(trace)) {}

    const std::string &name() const override { return trace_.name(); }
    std::size_t pull(BranchRecord *out, std::size_t max) override;
    u64 sizeHint() const override { return trace_.size() - next; }

  private:
    Trace trace_;
    std::size_t next = 0;
};

/**
 * Open @p path for streaming: openTraceSource() for .bpt (zero-copy
 * mmap, with stream fallback), a materialized OwnedTraceSource
 * ("memory") for everything else.
 *
 * @throws FatalError on unsupported or malformed files.
 */
OpenedTrace openCorpusSource(const std::string &path);

} // namespace bpred
