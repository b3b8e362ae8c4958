#include "trace/adapters.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "support/aligned.hh"
#include "support/logging.hh"
#include "support/tracing.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"
#include "trace/trace_io.hh"

#if BPRED_HAVE_ZLIB
#include <zlib.h>
#endif

namespace bpred
{

namespace
{

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
        text.compare(text.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** "dir/real_gcc.txt.gz" -> "real_gcc". */
std::string
traceNameFromPath(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    for (const char *suffix : {".gz", ".bpt", ".txt", ".trace"}) {
        if (endsWith(stem, suffix)) {
            stem.erase(stem.size() - std::string(suffix).size());
        }
    }
    return stem;
}

/**
 * Inflate a whole .gz file into memory. Growth is driven by the
 * actual inflated bytes, never by a length field, so a hostile
 * archive cannot claim its way into an absurd allocation.
 */
std::string
inflateFile(const std::string &path)
{
#if BPRED_HAVE_ZLIB
    TRACE_SCOPE("ingest", "gz-inflate");
    gzFile gz = gzopen(path.c_str(), "rb");
    if (gz == nullptr) {
        fatal("trace: cannot open '" + path + "' for reading");
    }
    std::string inflated;
    char chunk[256 * 1024];
    for (;;) {
        const int got = gzread(gz, chunk, sizeof(chunk));
        if (got < 0) {
            int err = 0;
            const char *msg = gzerror(gz, &err);
            const std::string detail(msg != nullptr ? msg : "");
            gzclose(gz);
            fatal("trace: gzip error in '" + path + "': " + detail);
        }
        if (got == 0) {
            break;
        }
        inflated.append(chunk, static_cast<std::size_t>(got));
    }
    gzclose(gz);
    return inflated;
#else
    fatal("trace: '" + path +
          "' is gzip-compressed but this build lacks zlib");
#endif
}

/**
 * Decode a whole BPT1 image already in memory (an inflated .gz)
 * through the same header parser and payload cursor the mmap source
 * uses, just with a materialized destination.
 */
Trace
decodeBptImage(const std::string &image)
{
    const u8 *data = reinterpret_cast<const u8 *>(image.data());
    std::size_t header_bytes = 0;
    const bpt::Header header = bpt::readHeader(
        data, image.size(), {image.size(), true}, header_bytes);
    bpt::PayloadCursor cursor(data + header_bytes,
                              image.size() - header_bytes, header.count);

    Trace trace(header.name);
    // bp_lint: allow(reserve-untrusted): readHeader() above bounded
    // the count by the inflated image's real byte length.
    trace.reserve(static_cast<std::size_t>(header.count));
    AlignedVector<BranchRecord> block(64 * 1024);
    while (const std::size_t n =
               cursor.pull(block.data(), block.size())) {
        trace.append(block.data(), n);
    }
    return trace;
}

/**
 * True when the text looks like our own "C|U <hexpc> T|N" dialect
 * rather than CBP's "<pc> <dir>": the first non-blank, non-comment
 * line starts with a kind letter.
 */
bool
looksLikeNativeText(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) {
            continue;
        }
        const char c = line[first];
        return (c == 'C' || c == 'U') && first + 1 < line.size() &&
            (line[first + 1] == ' ' || line[first + 1] == '\t');
    }
    return false;
}

Trace
parseTextImage(const std::string &text, const std::string &name)
{
    std::istringstream is(text);
    return looksLikeNativeText(text) ? readTextTrace(is, name)
                                     : readCbpTextTrace(is, name);
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fatal("trace: cannot open '" + path + "' for reading");
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

} // namespace

bool
gzSupported()
{
#if BPRED_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

bool
writeGzFile(const std::string &path, const std::string &bytes)
{
#if BPRED_HAVE_ZLIB
    gzFile gz = gzopen(path.c_str(), "wb");
    if (gz == nullptr) {
        fatal("trace: cannot open '" + path + "' for writing");
    }
    std::size_t at = 0;
    while (at < bytes.size()) {
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::size_t>(bytes.size() - at, 1u << 20));
        if (gzwrite(gz, bytes.data() + at, chunk) !=
            static_cast<int>(chunk)) {
            gzclose(gz);
            fatal("trace: gzip write error in '" + path + "'");
        }
        at += chunk;
    }
    if (gzclose(gz) != Z_OK) {
        fatal("trace: gzip close error in '" + path + "'");
    }
    return true;
#else
    (void)path;
    (void)bytes;
    return false;
#endif
}

bool
isTraceFileName(const std::string &path)
{
    return endsWith(path, ".bpt") || endsWith(path, ".bpt.gz") ||
        endsWith(path, ".txt") || endsWith(path, ".txt.gz") ||
        endsWith(path, ".trace") || endsWith(path, ".trace.gz");
}

Trace
readCbpTextTrace(std::istream &is, const std::string &name)
{
    Trace trace(name);
    std::string line;
    u64 line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream fields(line);
        std::string pc_text;
        std::string dir_text;
        if (!(fields >> pc_text)) {
            continue; // blank line
        }
        if (!(fields >> dir_text)) {
            fatal("trace: malformed line " + std::to_string(line_no));
        }
        Addr pc = 0;
        try {
            std::size_t used = 0;
            const bool hex = pc_text.size() > 2 &&
                pc_text[0] == '0' &&
                (pc_text[1] == 'x' || pc_text[1] == 'X');
            pc = std::stoull(pc_text, &used, hex ? 16 : 10);
            if (used != pc_text.size()) {
                fatal("trace: bad pc on line " +
                      std::to_string(line_no));
            }
        } catch (const std::exception &) {
            fatal("trace: bad pc on line " + std::to_string(line_no));
        }
        bool taken = false;
        if (dir_text == "1" || dir_text == "T" || dir_text == "t") {
            taken = true;
        } else if (dir_text == "0" || dir_text == "N" ||
                   dir_text == "n") {
            taken = false;
        } else {
            fatal("trace: bad direction on line " +
                  std::to_string(line_no));
        }
        trace.appendConditional(pc, taken);
    }
    return trace;
}

Trace
loadRealTrace(const std::string &path)
{
    TRACE_SCOPE("ingest", "load-real-trace");
    if (!isTraceFileName(path)) {
        fatal("trace: unsupported trace file '" + path + "'");
    }
    const std::string name = traceNameFromPath(path);
    if (endsWith(path, ".bpt.gz")) {
        return decodeBptImage(inflateFile(path));
    }
    if (endsWith(path, ".bpt")) {
        return loadBinaryTrace(path);
    }
    if (endsWith(path, ".gz")) {
        return parseTextImage(inflateFile(path), name);
    }
    return parseTextImage(readWholeFile(path), name);
}

std::size_t
OwnedTraceSource::pull(BranchRecord *out, std::size_t max)
{
    const std::size_t available = trace_.size() - next;
    const std::size_t produced = std::min(max, available);
    const BranchRecord *begin = trace_.records().data() + next;
    std::copy(begin, begin + produced, out);
    next += produced;
    return produced;
}

OpenedTrace
openCorpusSource(const std::string &path)
{
    if (endsWith(path, ".bpt")) {
        return openTraceSource(path);
    }
    return {std::make_unique<OwnedTraceSource>(loadRealTrace(path)),
            "memory"};
}

} // namespace bpred
