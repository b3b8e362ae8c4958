/**
 * @file
 * Unit tests for trace serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/bpt_format.hh"
#include "trace/trace_io.hh"

namespace bpred
{
namespace
{

Trace
makeSampleTrace()
{
    Trace trace("sample");
    Rng rng(99);
    Addr pc = 0x40'0000;
    for (int i = 0; i < 500; ++i) {
        pc += 4 * (1 + rng.uniformInt(100));
        if (rng.chance(0.25)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.6));
        }
        // Occasional backward jumps exercise negative deltas.
        if (rng.chance(0.2)) {
            pc -= 4 * rng.uniformInt(200);
        }
    }
    return trace;
}

TEST(BinaryTraceIO, RoundTrip)
{
    const Trace original = makeSampleTrace();
    std::stringstream buffer;
    writeBinaryTrace(buffer, original);
    const Trace loaded = readBinaryTrace(buffer);

    EXPECT_EQ(loaded.name(), original.name());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(loaded[i], original[i]) << "record " << i;
    }
}

// Extreme PC jumps force deltas that overflow an i64: pcs in the
// top half of the address space, and swings between the two ends.
// The delta codec must round-trip them through u64 wrap-around
// arithmetic — computing these deltas in i64 is signed-overflow UB
// (the bug this test regression-guards, caught by UBSan).
TEST(BinaryTraceIO, ExtremePcDeltasRoundTrip)
{
    Trace original("extremes");
    original.appendConditional(0, true);
    original.appendConditional(~Addr(0) & ~Addr(3), false);
    original.appendConditional(4, true);
    original.appendConditional(Addr(1) << 63, false);
    original.appendUnconditional((Addr(1) << 63) - 4);
    original.appendConditional(0x7fff'ffff'ffff'fffc, true);

    std::stringstream buffer;
    writeBinaryTrace(buffer, original);
    const Trace loaded = readBinaryTrace(buffer);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(loaded[i], original[i]) << "record " << i;
    }
}

// The same property at the codec level, against fixed wire bytes:
// a delta of exactly -2^63 (zig-zag 0xFFFF...FF) applied to pc 0
// must wrap to 2^63, not trap.
TEST(BinaryTraceIO, ZigZagExtremesDecode)
{
    EXPECT_EQ(bpt::zigZagEncode(std::numeric_limits<i64>::min()),
              ~u64(0));
    EXPECT_EQ(bpt::zigZagDecode(~u64(0)),
              std::numeric_limits<i64>::min());
    EXPECT_EQ(bpt::zigZagEncode(std::numeric_limits<i64>::max()),
              ~u64(0) - 1);
    EXPECT_EQ(bpt::zigZagDecode(~u64(0) - 1),
              std::numeric_limits<i64>::max());

    std::stringstream buffer;
    Addr write_pc = 0;
    bpt::writeRecord(buffer, {Addr(1) << 63, true, true}, write_pc);
    const std::string bytes = buffer.str();
    Addr read_pc = 0;
    BranchRecord decoded;
    EXPECT_EQ(bpt::readRecord(bytes.data(), bytes.size(), decoded,
                              read_pc),
              bytes.size());
    EXPECT_EQ(decoded.pc, Addr(1) << 63);
    EXPECT_EQ(read_pc, Addr(1) << 63);
}

TEST(BinaryTraceIO, EmptyTraceRoundTrip)
{
    Trace empty("nothing");
    std::stringstream buffer;
    writeBinaryTrace(buffer, empty);
    const Trace loaded = readBinaryTrace(buffer);
    EXPECT_EQ(loaded.name(), "nothing");
    EXPECT_TRUE(loaded.empty());
}

TEST(BinaryTraceIO, RejectsBadMagic)
{
    std::stringstream buffer("NOPE....");
    EXPECT_THROW(readBinaryTrace(buffer), FatalError);
}

TEST(BinaryTraceIO, RejectsTruncated)
{
    const Trace original = makeSampleTrace();
    std::stringstream buffer;
    writeBinaryTrace(buffer, original);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    EXPECT_THROW(readBinaryTrace(truncated), FatalError);
}

TEST(BinaryTraceIO, RejectsOverdeclaredRecordCount)
{
    // Regression: a corrupt header declaring far more records than
    // the stream holds must be rejected up front — before the
    // declared count sizes an allocation — not after a giant
    // reserve() followed by a truncation error mid-read.
    std::stringstream buffer;
    bpt::writeHeader(buffer, "bomb", u64(1) << 40);
    buffer << "xx"; // two bytes of actual payload
    EXPECT_THROW(readBinaryTrace(buffer), FatalError);
}

TEST(BinaryTraceIO, RejectsCountJustOverPayload)
{
    // Tight bound: each record needs at least two bytes, so a
    // header declaring count > remaining/2 can never be satisfied.
    std::stringstream buffer;
    bpt::writeHeader(buffer, "tight", 3);
    buffer << "xxxx"; // room for at most two records
    EXPECT_THROW(readBinaryTrace(buffer), FatalError);
}

TEST(BinaryTraceIO, AcceptsExactlyFittingCount)
{
    Trace trace("fits");
    trace.appendConditional(0x1000, true);
    trace.appendConditional(0x1004, false);
    std::stringstream buffer;
    writeBinaryTrace(buffer, trace);
    const Trace loaded = readBinaryTrace(buffer);
    EXPECT_EQ(loaded.size(), 2u);
}

TEST(BinaryTraceIO, FileRoundTrip)
{
    const Trace original = makeSampleTrace();
    const std::string path =
        (std::filesystem::temp_directory_path() / "bpred_test.bpt")
            .string();
    saveBinaryTrace(path, original);
    const Trace loaded = loadBinaryTrace(path);
    EXPECT_EQ(loaded.size(), original.size());
    std::remove(path.c_str());
}

TEST(BinaryTraceIO, MissingFileThrows)
{
    EXPECT_THROW(loadBinaryTrace("/nonexistent/dir/trace.bpt"),
                 FatalError);
}

TEST(TextTraceIO, RoundTrip)
{
    const Trace original = makeSampleTrace();
    std::stringstream buffer;
    writeTextTrace(buffer, original);
    const Trace loaded = readTextTrace(buffer, original.name());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(loaded[i], original[i]) << "record " << i;
    }
}

TEST(TextTraceIO, ParsesHandwritten)
{
    std::stringstream input(
        "# a comment line\n"
        "C 1000 T\n"
        "\n"
        "C 1004 N # trailing comment\n"
        "U 1008 T\n");
    const Trace trace = readTextTrace(input, "hand");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].pc, 0x1000u);
    EXPECT_TRUE(trace[0].taken);
    EXPECT_FALSE(trace[1].taken);
    EXPECT_FALSE(trace[2].conditional);
}

TEST(TextTraceIO, RejectsBadKind)
{
    std::stringstream input("X 1000 T\n");
    EXPECT_THROW(readTextTrace(input), FatalError);
}

TEST(TextTraceIO, RejectsBadDirection)
{
    std::stringstream input("C 1000 Q\n");
    EXPECT_THROW(readTextTrace(input), FatalError);
}

TEST(TextTraceIO, RejectsNotTakenUnconditional)
{
    std::stringstream input("U 1000 N\n");
    EXPECT_THROW(readTextTrace(input), FatalError);
}

TEST(TextTraceIO, RejectsMalformedLine)
{
    std::stringstream input("C 1000\n");
    EXPECT_THROW(readTextTrace(input), FatalError);
}

TEST(TextTraceIO, RejectsBadPc)
{
    std::stringstream input("C zz T\n");
    EXPECT_THROW(readTextTrace(input), FatalError);
}

} // namespace
} // namespace bpred
