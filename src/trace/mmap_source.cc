#include "trace/mmap_source.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/tracing.hh"

#if defined(__unix__) || defined(__APPLE__)
#define BPRED_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define BPRED_HAVE_MMAP 0
#endif

namespace bpred
{

bool
mmapSupported()
{
    return BPRED_HAVE_MMAP != 0;
}

#if BPRED_HAVE_MMAP

namespace
{

/** Map @p path read-only; nullptr + size 0 when any syscall fails. */
const u8 *
mapFile(const std::string &path, std::size_t &bytes)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return nullptr;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) ||
        st.st_size <= 0) {
        ::close(fd);
        return nullptr;
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    // Prefault at map time (Linux): the decode loop then never
    // stalls on soft page faults mid-batch.
    flags |= MAP_POPULATE;
#endif
    void *base = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    // The mapping outlives the descriptor; POSIX keeps the pages
    // valid after close.
    ::close(fd);
    if (base == MAP_FAILED) {
        return nullptr;
    }
    // Advisory only: decode order is strictly sequential, and the
    // kernel may start readahead now. Failure changes nothing.
    ::madvise(base, size, MADV_SEQUENTIAL);
    ::madvise(base, size, MADV_WILLNEED);
    bytes = size;
    return static_cast<const u8 *>(base);
}

} // namespace

MappedTrace::~MappedTrace()
{
    if (data_ != nullptr) {
        ::munmap(const_cast<u8 *>(data_), bytes_);
    }
}

std::shared_ptr<const MappedTrace>
MappedTrace::tryOpen(const std::string &path)
{
    TRACE_SCOPE("ingest", "mmap-map");
    std::size_t bytes = 0;
    const u8 *data = mapFile(path, bytes);
    if (data == nullptr) {
        return nullptr;
    }
    // Own the pages before parsing, so a fatal header error still
    // unmaps on unwind. The constructor is private, which rules out
    // make_shared; ownership lands in the shared_ptr on this line.
    // bp_lint: allow(banned-identifier): private-ctor make_shared
    auto mapped = std::shared_ptr<MappedTrace>(new MappedTrace());
    mapped->data_ = data;
    mapped->bytes_ = bytes;
    mapped->path_ = path;

    std::size_t header_bytes = 0;
    const bpt::Header header =
        bpt::readHeader(data, bytes, {bytes, true}, header_bytes);
    mapped->payloadOffset = header_bytes;
    mapped->name_ = header.name;
    mapped->count_ = header.count;
    return mapped;
}

#else // !BPRED_HAVE_MMAP

MappedTrace::~MappedTrace() = default;

std::shared_ptr<const MappedTrace>
MappedTrace::tryOpen(const std::string &)
{
    return nullptr;
}

#endif

namespace
{

/** A cursor over @p mapped's payload; fatal on a null mapping. */
bpt::PayloadCursor
payloadOf(const std::shared_ptr<const MappedTrace> &mapped)
{
    if (!mapped) {
        fatal("trace: MmapTraceSource given a null mapping");
    }
    return {mapped->payload(), mapped->payloadBytes(), mapped->count()};
}

} // namespace

MmapTraceSource::MmapTraceSource(
    std::shared_ptr<const MappedTrace> mapped)
    : mapped_(std::move(mapped)), cursor(payloadOf(mapped_))
{
}

MmapTraceSource::MmapTraceSource(const std::string &path)
    : MmapTraceSource(
          [&path]() {
              auto mapped = MappedTrace::tryOpen(path);
              if (!mapped) {
                  fatal("trace: cannot mmap '" + path + "'");
              }
              return mapped;
          }())
{
}

const std::string &
MmapTraceSource::name() const
{
    return mapped_->name();
}

std::size_t
MmapTraceSource::pull(BranchRecord *out, std::size_t max)
{
    const std::size_t produced = static_cast<std::size_t>(
        std::min<u64>(max, cursor.remaining()));
    if (produced == 0) {
        return 0;
    }
    TRACE_SCOPE("ingest", "decode-batch", produced, cursor.offset());
    return cursor.pull(out, produced);
}

OpenedTrace
openTraceSource(const std::string &path)
{
    if (auto mapped = MappedTrace::tryOpen(path)) {
        return {std::make_unique<MmapTraceSource>(std::move(mapped)),
                "mmap"};
    }
    return {std::make_unique<BinaryTraceSource>(path), "stream"};
}

} // namespace bpred
