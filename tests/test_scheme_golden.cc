/**
 * @file
 * Golden outputs for every contract-sweep spec.
 *
 * The contract suite checks each replay path against another path
 * of the same build. This file pins absolute values instead, so a
 * refactor of the predictor step functions that changed every path
 * the same way would still be caught: per spec, over one seeded
 * trace, the block-path and scalar-loop misprediction counts, an
 * FNV-1a digest of the framed snapshot after the block run, and an
 * FNV-1a digest of a CountingProbe registry fed by a probed run.
 *
 * A deliberate behaviour change re-pins only the affected rows; the
 * failure message prints each mismatching row in table syntax.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "predictors/predictor.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "support/probe.hh"
#include "support/rng.hh"
#include "trace/trace.hh"

namespace bpred
{
namespace
{

struct GoldenRow
{
    const char *spec;
    u64 blockMispredicts;
    u64 scalarMispredicts;
    u64 stateDigest;
    u64 probeDigest;
};

/** The contract-sweep specs with their pinned outputs. */
const GoldenRow goldenRows[] = {
    {"static:taken", 5870, 5870, 0xe1df99b401087e4d, 0x8f44b07b5901a25},
    {"static:nottaken", 10209, 10209, 0x317a3554832302a5, 0x8f44b07b5901a25},
    {"bimodal:8", 6294, 6294, 0x20466f5fdd588a4d, 0xc4f722b78331c238},
    {"bimodal:8:1", 6681, 6681, 0x12ac4382754fdbce, 0x161771e64613d18e},
    {"gshare:8:6", 7033, 7033, 0xae4db69af24b6ea8, 0x463546c0028ea7eb},
    {"gshare:8:6:1", 7407, 7407, 0xd24fbd515067cf56, 0x7c66de4ba5d12766},
    {"gselect:8:4", 5253, 5253, 0x3deb19725650d5f3, 0x8f44b07b5901a25},
    {"pag:8:6", 6648, 6648, 0xfed4381845e96bd6, 0x8f44b07b5901a25},
    {"agree:8:6:8", 7309, 7309, 0xc6c21f5d098b7b53, 0xf5b03271d182b2a2},
    {"bimode:8:6:8", 6475, 6475, 0xc31a37462a9d598e, 0x8f44b07b5901a25},
    {"yags:8:6:8", 5970, 5970, 0x3952c5964f1268b3, 0x8f44b07b5901a25},
    {"hybrid:8:6", 6328, 6328, 0xa42cd5d4b2f92ad4, 0x68bcc6d227a13a9d},
    {"gskewed:1:8:6", 7143, 7143, 0x1c13efc51a7fd35d, 0x27a5002b4bd0e614},
    {"gskewed:3:8:6", 6066, 6066, 0x3f1b542376aaec4f, 0x26de296a7f97a7d2},
    {"gskewed:3:8:6:total", 6074, 6074, 0x9691cadd839cdc7f, 0x481a6da5f6bea3e9},
    {"gskewed:3:8:6:partial-lazy", 6066, 6066, 0x5e76d5153564f902,
     0xc0839004fa47c15d},
    {"gskewed:5:8:6", 6107, 6107, 0xa30d6ce840c84d1d, 0xb20dee987f299db},
    {"egskew:8:6", 5495, 5495, 0xb2d3d2e2c0b37bc3, 0xb0ac89ff94b02ee7},
    {"gskewedsh:3:8:6", 6194, 6194, 0x3cc843cc6ab4697b, 0x8f44b07b5901a25},
    {"egskewsh:8:6", 5724, 5724, 0xc08b1d96715df9bb, 0x8f44b07b5901a25},
    {"pskew:8:6:3:8", 7052, 7052, 0x284acc050727bdb0, 0x8f44b07b5901a25},
    {"falru:4096:6", 4052, 4052, 0x35ded01a38cbed11, 0x8f44b07b5901a25},
    {"unaliased:6", 3740, 3740, 0x9178938293cf5636, 0x8f44b07b5901a25},
};

/** The contract suite's trace shape: biased and history-correlated
 * conditionals over 300 sites, one record in five unconditional. */
Trace
goldenTrace()
{
    Trace trace("golden");
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(300);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc + 0x10000);
        } else {
            const bool outcome = (pc >> 2) % 3 == 0
                ? rng.chance(0.9)
                : (i & 2) != 0;
            trace.appendConditional(pc, outcome);
        }
    }
    return trace;
}

u64
fnv1a(const std::string &bytes)
{
    u64 hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex(u64 value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

TEST(SchemeGolden, EverySpecMatchesItsPinnedOutputs)
{
    const Trace trace = goldenTrace();
    for (const GoldenRow &row : goldenRows) {
        SCOPED_TRACE(row.spec);

        auto block = makePredictor(row.spec);
        const SimResult block_result = simulate(*block, trace);
        std::ostringstream state;
        savePredictorState(*block, state);

        auto scalar = makePredictor(row.spec);
        SimOptions scalar_options;
        scalar_options.scalarReplay = true;
        const SimResult scalar_result =
            simulateWithOptions(*scalar, trace, scalar_options);

        auto probed = makePredictor(row.spec);
        CountingProbe probe;
        SimOptions probe_options;
        probe_options.probe = &probe;
        simulateWithOptions(*probed, trace, probe_options);

        const GoldenRow got{
            row.spec, block_result.mispredicts,
            scalar_result.mispredicts, fnv1a(state.str()),
            fnv1a(probe.registry().toJson().dump(2))};
        EXPECT_TRUE(got.blockMispredicts == row.blockMispredicts &&
                    got.scalarMispredicts == row.scalarMispredicts &&
                    got.stateDigest == row.stateDigest &&
                    got.probeDigest == row.probeDigest)
            << "    {\"" << got.spec << "\", " << got.blockMispredicts
            << ", " << got.scalarMispredicts << ", "
            << hex(got.stateDigest) << ", " << hex(got.probeDigest)
            << "},";
    }
}

} // namespace
} // namespace bpred
