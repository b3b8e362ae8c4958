/**
 * @file
 * Fuzz-style robustness tests for trace deserialization: malformed
 * input must raise FatalError (or parse), never crash or hang. A
 * seeded differential fuzz drives mutated valid traces through every
 * way the one BPT1 decoder is reached — the payload cursor, the
 * stream slab and the checked per-record reference — and requires
 * the same records or the same rejection from all of them.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <streambuf>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/bpt_format.hh"
#include "trace/stream.hh"
#include "trace/trace_io.hh"

namespace bpred
{
namespace
{

/** A read-only streambuf that refuses to seek, as a pipe does. */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes))
    {
        setg(bytes_.data(), bytes_.data(),
             bytes_.data() + bytes_.size());
    }

  private:
    std::string bytes_;
};

std::string
bptBytes(const Trace &trace)
{
    std::ostringstream os;
    writeBinaryTrace(os, trace);
    return os.str();
}

/** Parse the header of whole BPT1 @p bytes. */
bpt::Header
parseHeader(const std::string &bytes, std::size_t &header_bytes)
{
    return bpt::readHeader(reinterpret_cast<const u8 *>(bytes.data()),
                           bytes.size(), {bytes.size(), true},
                           header_bytes);
}

/** What one decode path made of a trace; nullopt: it threw. */
using Outcome = std::optional<std::vector<BranchRecord>>;

template <typename Decode>
Outcome
outcomeOf(Decode decode)
{
    try {
        return decode();
    } catch (const FatalError &) {
        return std::nullopt;
    }
}

/** The payload cursor (bulk decodeRecords), @p chunk at a time. */
std::vector<BranchRecord>
cursorDecode(const std::string &bytes, std::size_t chunk)
{
    std::size_t header_bytes = 0;
    const bpt::Header header = parseHeader(bytes, header_bytes);
    bpt::PayloadCursor cursor(
        reinterpret_cast<const u8 *>(bytes.data()) + header_bytes,
        bytes.size() - header_bytes, header.count);
    std::vector<BranchRecord> out(
        static_cast<std::size_t>(header.count));
    std::size_t done = 0;
    while (const std::size_t n = cursor.pull(out.data() + done, chunk)) {
        done += n;
    }
    return out;
}

/** BinaryTraceSource refilling at most @p scratch bytes at a time. */
std::vector<BranchRecord>
streamDecode(const std::string &bytes, std::size_t scratch)
{
    std::istringstream is(bytes);
    BinaryTraceSource source(is);
    source.setScratchBytes(scratch);
    return drainSource(source, 97).records();
}

/** The checked per-record readRecord(), one record at a time. */
std::vector<BranchRecord>
referenceDecode(const std::string &bytes)
{
    std::size_t at = 0;
    const bpt::Header header = parseHeader(bytes, at);
    std::vector<BranchRecord> out;
    Addr last_pc = 0;
    for (u64 i = 0; i < header.count; ++i) {
        BranchRecord record;
        const std::size_t step = bpt::readRecord(
            bytes.data() + at, bytes.size() - at, record, last_pc);
        if (step == 0) {
            fatal("trace: truncated record");
        }
        at += step;
        out.push_back(record);
    }
    return out;
}

/**
 * A trace of mostly two-byte records (small deltas from a small
 * first PC), so the bulk decoder's quad path runs from the first
 * payload byte, with occasional longer jumps to leave it.
 */
Trace
quadTrace(std::size_t records, u64 seed)
{
    Trace trace("quads");
    Rng rng(seed);
    Addr pc = 0x40;
    for (std::size_t i = 0; i < records; ++i) {
        if (rng.chance(0.05)) {
            pc += 4 * rng.uniformInt(1 << 12);
        } else {
            pc = pc + 4 * rng.uniformInt(16) - 32;
        }
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.6));
        }
    }
    return trace;
}

TEST(TraceFuzz, RandomBytesNeverCrashBinaryReader)
{
    Rng rng(0xf022);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t length = rng.uniformInt(200);
        std::string bytes;
        bytes.reserve(length + 4);
        // Half the trials start with the valid magic to reach the
        // deeper parsing paths.
        if (rng.chance(0.5)) {
            bytes += "BPT1";
        }
        for (std::size_t i = 0; i < length; ++i) {
            bytes.push_back(static_cast<char>(rng.uniformInt(256)));
        }
        std::stringstream stream(bytes);
        try {
            const Trace trace = readBinaryTrace(stream);
            // Parsing succeeded: the result must be internally
            // consistent (no negative sizes etc. — just touch it).
            (void)computeTraceStats(trace);
        } catch (const FatalError &) {
            // Expected for malformed input.
        }
    }
}

TEST(TraceFuzz, BitFlippedValidTraceNeverCrashes)
{
    // Serialize a real trace, then flip one byte at a time.
    Trace original("flip");
    Rng rng(77);
    Addr pc = 0x1000;
    for (int i = 0; i < 64; ++i) {
        pc += 4 * (1 + rng.uniformInt(32));
        if (rng.chance(0.3)) {
            original.appendUnconditional(pc);
        } else {
            original.appendConditional(pc, rng.chance(0.5));
        }
    }
    std::stringstream buffer;
    writeBinaryTrace(buffer, original);
    const std::string bytes = buffer.str();

    for (std::size_t position = 0; position < bytes.size();
         ++position) {
        for (const u8 flip : {u8(0x01), u8(0x80), u8(0xff)}) {
            std::string mutated = bytes;
            mutated[position] =
                static_cast<char>(mutated[position] ^ flip);
            std::stringstream stream(mutated);
            try {
                const Trace trace = readBinaryTrace(stream);
                (void)trace.size();
            } catch (const FatalError &) {
                // fine
            }
        }
    }
}

TEST(TraceFuzz, RandomTextNeverCrashesTextReader)
{
    Rng rng(0xbeef);
    const char alphabet[] = "CUTN 0123456789abcdefx#\n\t";
    for (int trial = 0; trial < 300; ++trial) {
        std::string text;
        const std::size_t length = rng.uniformInt(400);
        for (std::size_t i = 0; i < length; ++i) {
            text.push_back(
                alphabet[rng.uniformInt(sizeof(alphabet) - 1)]);
        }
        std::stringstream stream(text);
        try {
            (void)readTextTrace(stream, "fuzz");
        } catch (const FatalError &) {
            // fine
        }
    }
}

TEST(TraceFuzz, HugeDeclaredCountRejectedQuickly)
{
    // A header declaring 2^60 records with no payload must fail
    // fast with FatalError, not allocate or spin.
    std::string bytes = "BPT1";
    bytes.push_back(4); // name length 4
    bytes += "huge";
    // Varint for a gigantic count.
    for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<char>(0xff));
    }
    bytes.push_back(0x0f);
    std::stringstream stream(bytes);
    EXPECT_THROW(readBinaryTrace(stream), FatalError);
}

TEST(TraceFuzz, DecodersAgreeOnMutatedTraces)
{
    // Flips land in the first quad-word windows of the payload (the
    // bulk fast path) or in its last maxRecordBytes bytes (the
    // checked tail). The payload is longer than the stream source's
    // header read, so its 11/17/64-byte refills land mid-record.
    constexpr std::size_t quadWindowBytes = 32;
    int accepted = 0;
    int rejected = 0;
    for (const u64 seed : {u64(3), u64(4)}) {
        const std::string bytes = bptBytes(quadTrace(3000, seed));
        std::size_t header_bytes = 0;
        parseHeader(bytes, header_bytes);
        ASSERT_GT(bytes.size() - header_bytes, bpt::maxHeaderBytes);

        Rng rng(seed * 1000 + 1);
        for (int trial = 0; trial < 400; ++trial) {
            const bool tail = trial % 2 == 1;
            const std::size_t window =
                tail ? bpt::maxRecordBytes : quadWindowBytes;
            const std::size_t base =
                tail ? bytes.size() - window : header_bytes;
            std::string mutated = bytes;
            const u64 flips = 1 + rng.uniformInt(2);
            for (u64 f = 0; f < flips; ++f) {
                const std::size_t at = base + rng.uniformInt(window);
                mutated[at] = static_cast<char>(
                    mutated[at] ^ (1 << rng.uniformInt(8)));
            }

            const Outcome reference =
                outcomeOf([&] { return referenceDecode(mutated); });
            (reference ? accepted : rejected) += 1;
            for (const std::size_t chunk :
                 {std::size_t(1), std::size_t(3), std::size_t(64)}) {
                EXPECT_TRUE(outcomeOf([&] {
                                return cursorDecode(mutated, chunk);
                            }) == reference)
                    << "seed " << seed << " trial " << trial
                    << " chunk " << chunk;
            }
            for (const std::size_t scratch :
                 {std::size_t(11), std::size_t(17), std::size_t(64)}) {
                EXPECT_TRUE(outcomeOf([&] {
                                return streamDecode(mutated, scratch);
                            }) == reference)
                    << "seed " << seed << " trial " << trial
                    << " scratch " << scratch;
            }
        }
    }
    // The fuzz reaches both verdicts, or it proves nothing.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(TraceFuzz, NonSeekableStreamStaysUnvalidated)
{
    const Trace trace = quadTrace(3000, 9);
    const std::string bytes = bptBytes(trace);

    // No length, so no validated count to hint with — but every
    // record still decodes.
    {
        PipeBuf pipe(bytes);
        std::istream is(&pipe);
        BinaryTraceSource source(is);
        EXPECT_EQ(source.sizeHint(), 0u);
        EXPECT_EQ(source.remaining(), trace.size());
        EXPECT_EQ(drainSource(source).records(), trace.records());
    }

    // A declared count of 2^40 reserves nothing from the pipe: the
    // drain fails on truncation, not on a huge allocation.
    {
        std::ostringstream os;
        bpt::writeHeader(os, "bomb", u64(1) << 40);
        os << bytes.substr(bytes.size() - 64);
        PipeBuf pipe(os.str());
        std::istream is(&pipe);
        EXPECT_THROW(readBinaryTrace(is), FatalError);
    }

    // A pipe cut mid-payload is still truncation.
    {
        PipeBuf pipe(bytes.substr(0, bytes.size() - 1));
        std::istream is(&pipe);
        EXPECT_THROW(readBinaryTrace(is), FatalError);
    }
}

} // namespace
} // namespace bpred
