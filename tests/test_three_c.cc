/**
 * @file
 * Unit tests for the three-Cs aliasing decomposition.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "aliasing/three_c.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/presets.hh"
#include "workloads/process_mix.hh"

namespace bpred
{
namespace
{

/** A trace of `sites` branches visited round-robin, `rounds` times. */
Trace
roundRobinTrace(u64 sites, u64 rounds)
{
    Trace trace("round-robin");
    Rng rng(5);
    for (u64 r = 0; r < rounds; ++r) {
        for (u64 s = 0; s < sites; ++s) {
            trace.appendConditional(0x1000 + 4 * s, rng.chance(0.5));
        }
    }
    return trace;
}

TEST(ThreeCs, SingleBranchZeroHistoryHasOnlyCompulsory)
{
    Trace trace("one");
    for (int i = 0; i < 100; ++i) {
        trace.appendConditional(0x100, true);
    }
    IndexFunction function{IndexKind::Address, 4, 0};
    const ThreeCsResult result = measureThreeCs(trace, function);
    EXPECT_EQ(result.dynamicBranches, 100u);
    EXPECT_DOUBLE_EQ(result.compulsory, 0.01);
    EXPECT_DOUBLE_EQ(result.totalAliasing, 0.01);
    EXPECT_DOUBLE_EQ(result.faMissRatio, 0.01);
    EXPECT_DOUBLE_EQ(result.capacity(), 0.0);
    EXPECT_DOUBLE_EQ(result.conflict(), 0.0);
}

TEST(ThreeCs, PureConflictScenario)
{
    // Two addresses that collide in a tiny address-indexed table
    // but fit easily in the FA table: all aliasing is conflict.
    Trace trace("conflict");
    const Addr a = 0x1000;
    const Addr b = a + (4 << 1); // same low index bits for 1-bit index
    for (int i = 0; i < 100; ++i) {
        trace.appendConditional(a, true);
        trace.appendConditional(b, true);
    }
    IndexFunction function{IndexKind::Address, 1, 0};
    const ThreeCsResult result = measureThreeCs(trace, function);
    // DM table: every access aliases (ping-pong).
    EXPECT_GT(result.totalAliasing, 0.9);
    // FA table with 2 entries holds both: only compulsory misses.
    EXPECT_DOUBLE_EQ(result.faMissRatio, result.compulsory);
    EXPECT_GT(result.conflict(), 0.9);
}

TEST(ThreeCs, PureCapacityScenario)
{
    // Working set much larger than the table, visited round-robin:
    // both DM and FA alias on essentially every access.
    const Trace trace = roundRobinTrace(256, 20);
    IndexFunction function{IndexKind::Address, 4, 0}; // 16 entries
    const ThreeCsResult result = measureThreeCs(trace, function);
    EXPECT_GT(result.faMissRatio, 0.95);
    EXPECT_GT(result.capacity(), 0.9);
    // Conflict component is small: FA does no better than DM here.
    EXPECT_LT(result.conflict(), 0.05);
}

TEST(ThreeCs, LargeTableRemovesCapacity)
{
    const Trace trace = roundRobinTrace(256, 20);
    IndexFunction function{IndexKind::Address, 10, 0}; // 1024 entries
    const ThreeCsResult result = measureThreeCs(trace, function);
    // Table holds the whole working set.
    EXPECT_DOUBLE_EQ(result.faMissRatio, result.compulsory);
    EXPECT_NEAR(result.capacity(), 0.0, 1e-12);
    EXPECT_NEAR(result.totalAliasing, result.compulsory, 1e-12);
}

TEST(ThreeCs, MultiSharesOnePassResults)
{
    const Trace trace = roundRobinTrace(64, 10);
    std::vector<IndexFunction> functions = {
        {IndexKind::GShare, 8, 4},
        {IndexKind::GSelect, 8, 4},
    };
    const auto results = measureThreeCsMulti(trace, functions);
    ASSERT_EQ(results.size(), 2u);
    // Shared measurements agree across entries.
    EXPECT_DOUBLE_EQ(results[0].faMissRatio, results[1].faMissRatio);
    EXPECT_DOUBLE_EQ(results[0].compulsory, results[1].compulsory);
    EXPECT_EQ(results[0].dynamicBranches,
              results[1].dynamicBranches);
}

TEST(ThreeCs, MismatchedHistoryBitsRejected)
{
    const Trace trace = roundRobinTrace(4, 2);
    std::vector<IndexFunction> functions = {
        {IndexKind::GShare, 8, 4},
        {IndexKind::GShare, 8, 6},
    };
    EXPECT_THROW(measureThreeCsMulti(trace, functions), FatalError);
}

TEST(ThreeCs, EmptyFunctionListRejected)
{
    const Trace trace = roundRobinTrace(4, 2);
    EXPECT_THROW(measureThreeCsMulti(trace, {}), FatalError);
}

TEST(ThreeCs, UnaddressableFaTableRejected)
{
    const Trace trace = roundRobinTrace(4, 2);
    EXPECT_THROW(measureThreeCsMulti(trace, {{IndexKind::GShare, 8, 4}},
                                     u64(1) << 32),
                 FatalError);
}

TEST(ThreeCs, UnconditionalBranchesEnterHistoryOnly)
{
    // Unconditional branches must not appear in the aliasing
    // denominators but must perturb the history (changing keys).
    Trace with_uncond("u");
    Trace without("w");
    for (int i = 0; i < 50; ++i) {
        with_uncond.appendConditional(0x100, true);
        with_uncond.appendUnconditional(0x200);
        without.appendConditional(0x100, true);
    }
    IndexFunction function{IndexKind::GShare, 6, 4};
    const auto a = measureThreeCs(with_uncond, function);
    const auto b = measureThreeCs(without, function);
    EXPECT_EQ(a.dynamicBranches, b.dynamicBranches);
    // With unconditional branches interleaved, the history at the
    // conditional site differs (1010... vs 1111...), but both
    // streams settle into one repeating (addr, hist) pair; the
    // measurement itself must simply not count the unconditional
    // records.
    EXPECT_EQ(a.dynamicBranches, 50u);
}

TEST(ThreeCs, SkewIndexFunctionsMeasurable)
{
    // The skew-bank index kinds must work as measurement functions
    // too (used by the mapping-conflict analyses): per-bank
    // aliasing ratios are similar across the three banks, and the
    // shared FA measurement is identical.
    const Trace trace = roundRobinTrace(128, 10);
    const std::vector<IndexFunction> functions = {
        {IndexKind::Skew0, 6, 4},
        {IndexKind::Skew1, 6, 4},
        {IndexKind::Skew2, 6, 4},
    };
    const auto results = measureThreeCsMulti(trace, functions);
    ASSERT_EQ(results.size(), 3u);
    for (const auto &result : results) {
        EXPECT_GT(result.totalAliasing, 0.0);
        EXPECT_DOUBLE_EQ(result.faMissRatio,
                         results[0].faMissRatio);
    }
    // Balanced hashes: per-bank aliasing within 25% of each other.
    const double base = results[0].totalAliasing;
    EXPECT_NEAR(results[1].totalAliasing, base, base * 0.25);
    EXPECT_NEAR(results[2].totalAliasing, base, base * 0.25);
}

/**
 * One measureThreeCsMulti call as exact digits: the shared
 * dynamicBranches, faMissRatio and compulsory, then each function's
 * totalAliasing.
 */
std::string
threeCsDigits(const std::vector<ThreeCsResult> &results)
{
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%llu %.17g %.17g",
                  static_cast<unsigned long long>(
                      results.front().dynamicBranches),
                  results.front().faMissRatio, results.front().compulsory);
    std::string digits = buffer;
    for (const ThreeCsResult &result : results) {
        EXPECT_EQ(result.dynamicBranches, results.front().dynamicBranches);
        EXPECT_EQ(result.faMissRatio, results.front().faMissRatio);
        EXPECT_EQ(result.compulsory, results.front().compulsory);
        std::snprintf(buffer, sizeof(buffer), " %.17g",
                      result.totalAliasing);
        digits += buffer;
    }
    return digits;
}

TEST(ThreeCs, ThreeCsGolden)
{
    // The Figure 1/2 measurement over two preset traces, on the
    // grid the perfbench aliasing-3c workload runs ({gshare, gselect}
    // x h4/h12 x 2^10..2^16 entries), plus one FA table smaller than
    // the direct-mapped one. Exact digits, so any change to either
    // table's replacement or to the first-reference count shows.
    struct Golden
    {
        const char *preset;
        unsigned historyBits;
        unsigned indexBits;
        u64 faEntries;
        const char *digits;
    };
    const Golden golden[] = {
        {"real_gcc", 4, 10, 0,
         "100000 0.13533000000000001 0.064240000000000005 0.12709999999999999 0.13933999999999999"},
        {"real_gcc", 4, 12, 0,
         "100000 0.069519999999999998 0.064240000000000005 0.089599999999999999 0.11942"},
        {"real_gcc", 4, 14, 0,
         "100000 0.064240000000000005 0.064240000000000005 0.071529999999999996 0.087859999999999994"},
        {"real_gcc", 4, 16, 0,
         "100000 0.064240000000000005 0.064240000000000005 0.066180000000000003 0.070050000000000001"},
        {"real_gcc", 12, 10, 0,
         "100000 0.24660000000000001 0.15883 0.28269 0.38303999999999999"},
        {"real_gcc", 12, 12, 0,
         "100000 0.20266999999999999 0.15883 0.22556999999999999 0.29636000000000001"},
        {"real_gcc", 12, 14, 0,
         "100000 0.15883 0.15883 0.18559999999999999 0.2382"},
        {"real_gcc", 12, 16, 0,
         "100000 0.15883 0.15883 0.16607 0.21067"},
        {"real_gcc", 12, 14, 1000,
         "100000 0.24671999999999999 0.15883 0.18559999999999999 0.2382"},
        {"groff", 4, 10, 0,
         "100000 0.058740000000000001 0.040919999999999998 0.073529999999999998 0.082019999999999996"},
        {"groff", 4, 12, 0,
         "100000 0.040919999999999998 0.040919999999999998 0.052970000000000003 0.059799999999999999"},
        {"groff", 4, 14, 0,
         "100000 0.040919999999999998 0.040919999999999998 0.043619999999999999 0.046359999999999998"},
        {"groff", 4, 16, 0,
         "100000 0.040919999999999998 0.040919999999999998 0.041700000000000001 0.041790000000000001"},
        {"groff", 12, 10, 0,
         "100000 0.16714999999999999 0.10624 0.1933 0.29111999999999999"},
        {"groff", 12, 12, 0,
         "100000 0.12145 0.10624 0.14785999999999999 0.1915"},
        {"groff", 12, 14, 0,
         "100000 0.10624 0.10624 0.12144000000000001 0.14419999999999999"},
        {"groff", 12, 16, 0,
         "100000 0.10624 0.10624 0.11008 0.12642"},
        {"groff", 12, 14, 1000,
         "100000 0.16813 0.10624 0.12144000000000001 0.14419999999999999"},
    };
    std::string preset;
    Trace trace;
    for (const Golden &row : golden) {
        if (row.preset != preset) {
            preset = row.preset;
            trace = generateWorkload(ibsPreset(preset, 0.05));
        }
        const std::vector<IndexFunction> functions = {
            {IndexKind::GShare, row.indexBits, row.historyBits},
            {IndexKind::GSelect, row.indexBits, row.historyBits},
        };
        EXPECT_EQ(threeCsDigits(
                      measureThreeCsMulti(trace, functions, row.faEntries)),
                  row.digits)
            << row.preset << " h" << row.historyBits << " i"
            << row.indexBits << " fa " << row.faEntries;
    }
}

TEST(IndexFunctionNames, Readable)
{
    EXPECT_EQ((IndexFunction{IndexKind::GShare, 10, 4}).name(),
              "gshare/10/h4");
    EXPECT_EQ((IndexFunction{IndexKind::GSelect, 12, 12}).name(),
              "gselect/12/h12");
    EXPECT_EQ((IndexFunction{IndexKind::Address, 8, 0}).name(),
              "address/8/h0");
    EXPECT_EQ((IndexFunction{IndexKind::Skew1, 9, 6}).name(),
              "skew-f1/9/h6");
}

TEST(IndexFunctionCall, MatchesUnderlyingFunctions)
{
    IndexFunction gshare{IndexKind::GShare, 10, 6};
    IndexFunction address{IndexKind::Address, 10, 0};
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        const Addr pc = rng.next();
        const History h = rng.next();
        EXPECT_LT(gshare(pc, h), 1u << 10);
        EXPECT_LT(address(pc, h), 1u << 10);
    }
}

} // namespace
} // namespace bpred
