#include "trace/stream.hh"

#include <algorithm>
#include <vector>

#include "support/check.hh"
#include "support/logging.hh"
#include "trace/bpt_format.hh"

namespace bpred
{

std::size_t
MemoryTraceSource::pull(BranchRecord *out, std::size_t max)
{
    BP_DCHECK(next <= trace_.size(),
              "trace cursor ran past the end");
    const std::size_t available = trace_.size() - next;
    const std::size_t produced = std::min(max, available);
    const BranchRecord *begin = trace_.records().data() + next;
    std::copy(begin, begin + produced, out);
    next += produced;
    return produced;
}

BinaryTraceSource::BinaryTraceSource(std::istream &is)
    : stream(&is), scratch(defaultScratchBytes)
{
    readHeader();
}

BinaryTraceSource::BinaryTraceSource(const std::string &path)
    : owned(std::make_unique<std::ifstream>(path, std::ios::binary)),
      stream(owned.get()), scratch(defaultScratchBytes)
{
    if (!*owned) {
        fatal("trace: cannot open '" + path + "' for reading");
    }
    readHeader();
}

void
BinaryTraceSource::readHeader()
{
    static_assert(defaultScratchBytes >= bpt::maxHeaderBytes,
                  "the slab must hold the longest header");
    BP_DCHECK(isCacheAligned(scratch.data()),
              "trace: decode scratch not cache aligned");
    // A seekable stream knows its length, so the header's count is
    // validated against it; a pipe stays unvalidated and relies on
    // the per-record truncation checks.
    bpt::TraceLength length;
    const std::istream::pos_type start = stream->tellg();
    if (start != std::istream::pos_type(-1)) {
        stream->seekg(0, std::ios::end);
        const std::istream::pos_type end = stream->tellg();
        stream->seekg(start);
        if (*stream && end != std::istream::pos_type(-1) &&
            end >= start) {
            length = {static_cast<u64>(end - start), true};
        }
    }
    refill(bpt::maxHeaderBytes);
    std::size_t header_bytes = 0;
    const bpt::Header header = bpt::readHeader(
        reinterpret_cast<const u8 *>(scratch.data()), scratchEnd, length,
        header_bytes);
    scratchAt = header_bytes;
    name_ = header.name;
    remaining_ = header.count;
    lengthValidated = header.lengthValidated;
}

u64
BinaryTraceSource::sizeHint() const
{
    return lengthValidated ? remaining_ : 0;
}

void
BinaryTraceSource::setScratchBytes(std::size_t bytes)
{
    fillBytes = std::clamp(bytes, bpt::maxRecordBytes, scratch.size());
}

std::size_t
BinaryTraceSource::pull(BranchRecord *out, std::size_t max)
{
    const std::size_t produced = static_cast<std::size_t>(
        std::min<u64>(max, remaining_));
    // Decode from the long-lived slab: the stream is read in bulk
    // slab-sized gulps, and no per-pull allocation happens after
    // construction. A short decode means the slab ends mid-record.
    std::size_t done = 0;
    for (;;) {
        std::size_t consumed = 0;
        done += bpt::decodeRecords(
            reinterpret_cast<const u8 *>(scratch.data()) + scratchAt,
            scratchEnd - scratchAt, out + done, produced - done, lastPc,
            consumed);
        scratchAt += consumed;
        if (done == produced) {
            break;
        }
        // Fewer than maxRecordBytes are left, and the slab holds at
        // least that many, so an empty read is real truncation.
        if (refill(fillBytes) == 0) {
            fatal("trace: truncated record");
        }
    }
    remaining_ -= produced;
    return produced;
}

std::size_t
BinaryTraceSource::refill(std::size_t fill)
{
    const std::size_t leftover = scratchEnd - scratchAt;
    std::copy(scratch.data() + scratchAt,
              scratch.data() + scratchEnd, scratch.data());
    scratchAt = 0;
    scratchEnd = leftover;
    stream->read(scratch.data() + scratchEnd,
                 static_cast<std::streamsize>(fill - scratchEnd));
    const std::size_t got =
        static_cast<std::size_t>(stream->gcount());
    scratchEnd += got;
    return got;
}

Trace
drainSource(TraceSource &source, std::size_t chunk_records)
{
    if (chunk_records == 0) {
        fatal("drainSource: zero chunk size");
    }
    Trace trace(source.name());
    if (const u64 hint = source.sizeHint()) {
        // bp_lint: allow(reserve-untrusted): sizeHint() contractually
        // reports only validated counts (BinaryTraceSource returns 0
        // unless bpt::readHeader() bounded the declared count by the
        // stream length), so this cannot amplify a corrupt header.
        trace.reserve(static_cast<std::size_t>(hint));
    }
    AlignedVector<BranchRecord> buffer(chunk_records);
    while (const std::size_t n =
               source.pull(buffer.data(), buffer.size())) {
        BP_CHECK(n <= buffer.size(),
                 "TraceSource::pull produced more than requested");
        trace.append(buffer.data(), n);
    }
    return trace;
}

} // namespace bpred
