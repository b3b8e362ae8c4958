/**
 * @file
 * Cross-predictor contract suite: every scheme the factory can
 * build must honour the Predictor interface contract. Runs the
 * same property battery over each spec (parameterized gtest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/skewed_predictor.hh"
#include "predictors/predictor.hh"
#include "predictors/replay_scratch.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "support/probe.hh"
#include "support/rng.hh"
#include "support/simd.hh"
#include "trace/trace.hh"
#include "workloads/process_mix.hh"

namespace bpred
{
namespace
{

/** Every scheme at a small geometry. */
const std::vector<const char *> allSpecs = {
    "static:taken",
    "static:nottaken",
    "bimodal:8",
    "bimodal:8:1",
    "gshare:8:6",
    "gshare:8:6:1",
    "gselect:8:4",
    "pag:8:6",
    "agree:8:6:8",
    "bimode:8:6:8",
    "yags:8:6:8",
    "hybrid:8:6",
    "gskewed:1:8:6",
    "gskewed:3:8:6",
    "gskewed:3:8:6:total",
    "gskewed:3:8:6:partial-lazy",
    "gskewed:5:8:6",
    "egskew:8:6",
    "gskewedsh:3:8:6",
    "egskewsh:8:6",
    "pskew:8:6:3:8",
    "falru:4096:6",
    "unaliased:6",
};

Trace
contractTrace(u64 seed)
{
    Trace trace("contract");
    Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(300);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc + 0x10000);
        } else {
            // Mix of biased and history-correlated outcomes.
            const bool outcome = (pc >> 2) % 3 == 0
                ? rng.chance(0.9)
                : (i & 2) != 0;
            trace.appendConditional(pc, outcome);
        }
    }
    return trace;
}

class PredictorContract
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PredictorContract, BuildsWithNonEmptyName)
{
    auto predictor = makePredictor(GetParam());
    ASSERT_NE(predictor, nullptr);
    EXPECT_FALSE(predictor->name().empty());
}

TEST_P(PredictorContract, SurvivesRandomStream)
{
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(1);
    const SimResult result = simulate(*predictor, trace);
    EXPECT_GT(result.conditionals, 0u);
    EXPECT_LE(result.mispredicts, result.conditionals);
}

TEST_P(PredictorContract, DeterministicAcrossInstances)
{
    auto a = makePredictor(GetParam());
    auto b = makePredictor(GetParam());
    const Trace trace = contractTrace(2);
    const SimResult ra = simulate(*a, trace);
    const SimResult rb = simulate(*b, trace);
    EXPECT_EQ(ra.mispredicts, rb.mispredicts);
}

TEST_P(PredictorContract, ResetRestoresInitialBehaviour)
{
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(3);
    const SimResult first = simulate(*predictor, trace);
    predictor->reset();
    const SimResult second = simulate(*predictor, trace);
    EXPECT_EQ(first.mispredicts, second.mispredicts)
        << "reset() did not restore the cold state";
}

TEST_P(PredictorContract, PredictIsSideEffectFreeOnTables)
{
    // Calling predict() twice in a row must return the same value
    // (prediction is a pure read of predictor state).
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(4);
    u64 step = 0;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor->notifyUnconditional(record.pc);
            continue;
        }
        const bool once = predictor->predict(record.pc);
        const bool twice = predictor->predict(record.pc);
        ASSERT_EQ(once, twice) << "at step " << step;
        predictor->predictAndUpdate(record.pc, record.taken);
        if (++step > 2000) {
            break;
        }
    }
}

TEST_P(PredictorContract, BetterThanCoinFlipOnLearnableStream)
{
    // Every real predictor (not the static ones) must beat 50% on
    // a stream of strongly biased branches.
    const std::string spec = GetParam();
    if (spec.rfind("static", 0) == 0) {
        GTEST_SKIP() << "static predictors are direction-fixed";
    }
    auto predictor = makePredictor(spec);
    Trace trace("biased");
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(64);
        const bool dominant = (pc >> 2) % 2 == 0;
        trace.appendConditional(pc, rng.chance(dominant ? 0.95
                                                        : 0.05));
    }
    const SimResult result = simulate(*predictor, trace);
    EXPECT_LT(result.mispredictRatio(), 0.30) << predictor->name();
}

TEST_P(PredictorContract, StorageBitsStable)
{
    auto predictor = makePredictor(GetParam());
    const u64 before = predictor->storageBits();
    const Trace trace = contractTrace(6);
    simulate(*predictor, trace);
    // Only the unaliased predictor is allowed to grow.
    if (std::string(GetParam()).rfind("unaliased", 0) != 0) {
        EXPECT_EQ(predictor->storageBits(), before);
    }
}

TEST_P(PredictorContract, PredictMatchesStepPrediction)
{
    // predict() queries the state a step is about to resolve with,
    // so it must return exactly the prediction predictAndUpdate()
    // then reports, at every step.
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(8);
    u64 step = 0;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor->notifyUnconditional(record.pc);
            continue;
        }
        const bool expected = predictor->predict(record.pc);
        const bool got =
            predictor->predictAndUpdate(record.pc, record.taken)
                .prediction;
        ASSERT_EQ(expected, got) << "at step " << step;
        ++step;
    }
}

TEST_P(PredictorContract, WarmupNeverHurtsDeterminism)
{
    auto predictor = makePredictor(GetParam());
    const Trace trace = contractTrace(7);
    SimOptions options;
    options.warmupBranches = 5000;
    const SimResult warm =
        simulateWithOptions(*predictor, trace, options);
    EXPECT_LE(warm.conditionals,
              computeTraceStats(trace).dynamicConditional);
}

/**
 * Replay @p trace through @p predictor's scalar fused loop — the
 * reference semantics replayBlock() must reproduce.
 */
ReplayCounters
replayScalar(Predictor &predictor, const Trace &trace)
{
    ReplayCounters counters;
    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            predictor.notifyUnconditional(record.pc);
            continue;
        }
        const bool prediction =
            predictor.predictAndUpdate(record.pc, record.taken)
                .prediction;
        ++counters.conditionals;
        counters.mispredicts += u64(prediction != record.taken);
    }
    return counters;
}

/**
 * Replay @p trace through replayBlock() in deliberately uneven
 * chunks (1, 3, 7, 15, ... records) so block boundaries land at
 * arbitrary offsets, including mid-"natural" block.
 */
ReplayCounters
replayBlocks(Predictor &predictor, const Trace &trace)
{
    ReplayCounters counters;
    const BranchRecord *records = trace.records().data();
    std::size_t at = 0;
    std::size_t chunk = 1;
    while (at < trace.size()) {
        const std::size_t n = std::min(chunk, trace.size() - at);
        predictor.replayBlock(records + at, n, counters);
        at += n;
        chunk = chunk * 2 + 1;
    }
    return counters;
}

TEST(ReplayBlockContract, BlockMatchesScalarForEveryScheme)
{
    // Every scheme the factory knows: same tallies from the block
    // kernel as from the scalar fused loop, and — checked by a
    // second fused pass over fresh records — the same trained
    // state afterwards.
    const Trace trace = contractTrace(10);
    const Trace check = contractTrace(11);
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto scalar = makePredictor(scheme.example);
        auto block = makePredictor(scheme.example);
        const ReplayCounters want = replayScalar(*scalar, trace);
        const ReplayCounters got = replayBlocks(*block, trace);
        EXPECT_EQ(want.conditionals, got.conditionals);
        EXPECT_EQ(want.mispredicts, got.mispredicts);

        u64 step = 0;
        for (const BranchRecord &record : check) {
            if (!record.conditional) {
                scalar->notifyUnconditional(record.pc);
                block->notifyUnconditional(record.pc);
                continue;
            }
            const bool expected =
                scalar->predictAndUpdate(record.pc, record.taken)
                    .prediction;
            const bool actual =
                block->predictAndUpdate(record.pc, record.taken)
                    .prediction;
            ASSERT_EQ(expected, actual)
                << "trained state diverged by step " << step;
            if (++step > 4000) {
                break;
            }
        }
    }
}

TEST(ReplayBlockContract, ProbedBlockMatchesScalarEventStream)
{
    // With a telemetry sink attached, replayBlock() must delegate
    // to the scalar loop: identical tallies AND an identical event
    // stream, for every scheme.
    const Trace trace = contractTrace(12);
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto scalar = makePredictor(scheme.example);
        auto block = makePredictor(scheme.example);
        CountingProbe scalarProbe;
        CountingProbe blockProbe;
        scalar->attachProbe(&scalarProbe);
        block->attachProbe(&blockProbe);
        const ReplayCounters want = replayScalar(*scalar, trace);
        const ReplayCounters got = replayBlocks(*block, trace);
        EXPECT_EQ(want.conditionals, got.conditionals);
        EXPECT_EQ(want.mispredicts, got.mispredicts);
        EXPECT_EQ(scalarProbe.registry().toJson().dump(2),
                  blockProbe.registry().toJson().dump(2));
    }
}

TEST(ReplayBlockContract, SessionBlockPathMatchesScalarAtBoundaries)
{
    // The session-level block path must split correctly at warmup,
    // flush and window boundaries that land mid-block: identical
    // SimResult to the scalar engine (options.scalarReplay) with
    // bookkeeping intervals chosen to straddle block boundaries.
    const Trace trace = contractTrace(13);
    SimOptions blockOptions;
    blockOptions.warmupBranches = 1234;
    blockOptions.flushInterval = 3456;
    blockOptions.windowSize = 789;
    SimOptions scalarOptions = blockOptions;
    scalarOptions.scalarReplay = true;
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto blockSide = makePredictor(scheme.example);
        auto scalarSide = makePredictor(scheme.example);
        const SimResult a =
            simulateWithOptions(*blockSide, trace, blockOptions);
        const SimResult b =
            simulateWithOptions(*scalarSide, trace, scalarOptions);
        EXPECT_EQ(a.predictorName, b.predictorName);
        EXPECT_EQ(a.conditionals, b.conditionals);
        EXPECT_EQ(a.mispredicts, b.mispredicts);
        ASSERT_EQ(a.windows.size(), b.windows.size());
        for (std::size_t i = 0; i < a.windows.size(); ++i) {
            EXPECT_EQ(a.windows[i].branches, b.windows[i].branches);
            EXPECT_EQ(a.windows[i].mispredicts,
                      b.windows[i].mispredicts);
        }
    }
}

/** Every site's exact {branches, mispredicts}, ordered by PC. */
std::map<Addr, std::pair<u64, u64>>
sortedTallies(const SiteTallies &tallies)
{
    std::map<Addr, std::pair<u64, u64>> sorted;
    tallies.forEach([&](Addr pc, const SiteTally &tally) {
        sorted[pc] = {tally.branches, tally.mispredicts};
    });
    return sorted;
}

TEST(ReplayBlockContract, SessionAttributionMatchesScalarAtBoundaries)
{
    // Per-site attribution on the block path: the reference
    // kernels' mispredict mask must reproduce the scalar loop's top
    // sites (overcounts included: the space-saving counter sees the
    // same adds in the same order) and its exact site tallies, for
    // every scheme, under both dispatch modes, with and without a
    // probe, and with warmup / flush / window intervals that
    // straddle blocks and mask segments.
    const Trace trace = contractTrace(16);
    u64 trace_conditionals = 0;
    for (const BranchRecord &record : trace) {
        trace_conditionals += record.conditional ? 1 : 0;
    }
    SimOptions base;
    base.warmupBranches = 1234;
    base.flushInterval = 3456;
    base.windowSize = 789;
    base.topSites = 8;
    const SimdMode modes[] = {SimdMode::Scalar, SimdMode::Avx2};
    for (const SchemeInfo &scheme : listSchemes()) {
        for (const SimdMode mode : modes) {
            for (const bool probed : {false, true}) {
                SCOPED_TRACE(std::string(scheme.example) + " mode=" +
                             std::string(simdModeName(mode)) +
                             (probed ? " probed" : ""));
                auto blockSide = makePredictor(scheme.example);
                auto scalarSide = makePredictor(scheme.example);
                CountingProbe blockProbe;
                CountingProbe scalarProbe;
                SiteTallies blockTallies;
                SiteTallies scalarTallies;
                SimOptions blockOptions = base;
                blockOptions.simd = mode;
                blockOptions.siteTallies = &blockTallies;
                blockOptions.probe = probed ? &blockProbe : nullptr;
                SimOptions scalarOptions = blockOptions;
                scalarOptions.scalarReplay = true;
                scalarOptions.siteTallies = &scalarTallies;
                scalarOptions.probe = probed ? &scalarProbe : nullptr;
                const SimResult a =
                    simulateWithOptions(*blockSide, trace, blockOptions);
                const SimResult b = simulateWithOptions(
                    *scalarSide, trace, scalarOptions);
                EXPECT_FALSE(b.topSites.empty());
                EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
                const auto tallies = sortedTallies(blockTallies);
                EXPECT_EQ(tallies, sortedTallies(scalarTallies));
                // The tallies cover warmup branches too.
                u64 branches = 0;
                for (const auto &[pc, counts] : tallies) {
                    branches += counts.first;
                }
                EXPECT_EQ(branches, trace_conditionals);
                EXPECT_EQ(blockProbe.registry().toJson().dump(2),
                          scalarProbe.registry().toJson().dump(2));
            }
        }
    }
}

/**
 * Replay @p trace through replayBlock() in fixed @p block_records
 * chunks, passing @p scratch down (null = fused reference kernel).
 */
ReplayCounters
replayBlocksFixed(Predictor &predictor, const Trace &trace,
                  std::size_t block_records, ReplayScratch *scratch)
{
    ReplayCounters counters;
    const BranchRecord *records = trace.records().data();
    for (std::size_t at = 0; at < trace.size(); at += block_records) {
        const std::size_t n =
            std::min(block_records, trace.size() - at);
        predictor.replayBlock(records + at, n, counters, scratch);
    }
    return counters;
}

/** saveState() bytes, or "" for schemes without snapshot support. */
std::string
snapshotBytes(const Predictor &predictor)
{
    if (!predictor.supportsSnapshot()) {
        return {};
    }
    std::ostringstream os;
    predictor.saveState(os);
    return os.str();
}

TEST(ReplayBlockContract, SimdMatchesScalarAcrossBlockSizesAndModes)
{
    // The phase-split path must be byte-identical to the fused
    // reference for every scheme, at every block size (including
    // size 1, where the vector fill degenerates to its scalar tail)
    // and under both dispatch modes — Scalar exercises the
    // bit-identical fallback kernels, Avx2 the vector fills where
    // the build and host support them. Tallies AND trained state
    // (snapshot bytes) must match.
    const Trace trace = contractTrace(14);
    const std::size_t blockSizes[] = {1, 7, 64, 8192};
    const SimdMode modes[] = {SimdMode::Scalar, SimdMode::Avx2};
    for (const SchemeInfo &scheme : listSchemes()) {
        for (const std::size_t block : blockSizes) {
            for (const SimdMode mode : modes) {
                SCOPED_TRACE(std::string(scheme.example) + " block=" +
                             std::to_string(block) + " mode=" +
                             std::string(simdModeName(mode)));
                auto reference = makePredictor(scheme.example);
                auto simd = makePredictor(scheme.example);
                ReplayScratch scratch;
                scratch.mode = mode;
                const ReplayCounters want = replayBlocksFixed(
                    *reference, trace, block, nullptr);
                const ReplayCounters got =
                    replayBlocksFixed(*simd, trace, block, &scratch);
                EXPECT_EQ(want.conditionals, got.conditionals);
                EXPECT_EQ(want.mispredicts, got.mispredicts);
                EXPECT_EQ(snapshotBytes(*reference),
                          snapshotBytes(*simd));
            }
        }
    }
}

TEST(ReplayBlockContract, SkewedTableMatchesFusedAcrossGeometries)
{
    // The skewed phase-split resolve reads the vote and update
    // policy from a transition table built per (banks, counter
    // width, policy); every geometry it covers must replay exactly
    // like the fused kernel, and every geometry it does not (5
    // banks of 3-bit counters) must fall back to it. Two traces: the
    // contract stream, and a generated workload whose tight loops
    // revisit a counter on back-to-back conditionals. Snapshot bytes
    // include the bank-write count, so a table entry with a wrong
    // write tally fails here even when the counters agree. 12 index
    // bits put the 5-bank group over the counter-prefetch threshold
    // while the 1- and 3-bank groups stay L1-resident.
    WorkloadParams params;
    params.name = "table-sweep";
    params.dynamicConditionalTarget = 20000;
    params.user.staticBranchTarget = 300;
    params.kernel.staticBranchTarget = 100;
    params.userQuantumMean = 2000;
    const Trace traces[] = {contractTrace(16), generateWorkload(params)};
    const unsigned bankCounts[] = {1, 3, 5};
    const unsigned counterWidths[] = {1, 2, 3};
    const UpdatePolicy policies[] = {UpdatePolicy::Total,
                                     UpdatePolicy::Partial,
                                     UpdatePolicy::PartialLazy};
    const char *const indexings[] = {"skewed", "identical",
                                     "enhanced"};
    const std::size_t blockSizes[] = {1, 7, 8192};
    for (const Trace &trace : traces) {
        for (const unsigned banks : bankCounts) {
            for (const unsigned width : counterWidths) {
                for (const UpdatePolicy policy : policies) {
                    for (const std::string indexing : indexings) {
                        SkewedPredictor::Config config;
                        config.numBanks = banks;
                        config.bankIndexBits = 12;
                        config.historyBits = 8;
                        config.counterBits = width;
                        config.updatePolicy = policy;
                        config.indexing = indexing == "identical"
                            ? BankIndexing::IdenticalGshare
                            : BankIndexing::Skewed;
                        config.enhanced = indexing == "enhanced";
                        for (const std::size_t block : blockSizes) {
                            SkewedPredictor reference(config);
                            SkewedPredictor table(config);
                            SCOPED_TRACE(trace.name() + " " +
                                         table.name() + " w" +
                                         std::to_string(width) +
                                         " block=" +
                                         std::to_string(block));
                            ReplayScratch scratch;
                            scratch.mode = SimdMode::Avx2;
                            const ReplayCounters want =
                                replayBlocksFixed(reference, trace,
                                                  block, nullptr);
                            const ReplayCounters got =
                                replayBlocksFixed(table, trace, block,
                                                  &scratch);
                            EXPECT_EQ(want.conditionals,
                                      got.conditionals);
                            EXPECT_EQ(want.mispredicts,
                                      got.mispredicts);
                            EXPECT_EQ(reference.bankWrites(),
                                      table.bankWrites());
                            EXPECT_EQ(snapshotBytes(reference),
                                      snapshotBytes(table));
                        }
                    }
                }
            }
        }
    }
}

TEST(ReplayBlockContract, SessionSimdPathMatchesScalarAtBoundaries)
{
    // Session-level dispatch: SimOptions::simd = Avx2 against the
    // forced-scalar engine, with warmup / flush / window intervals
    // chosen to straddle block boundaries so the phase-split kernel
    // sees partial blocks at every bookkeeping edge.
    const Trace trace = contractTrace(15);
    SimOptions simdOptions;
    simdOptions.warmupBranches = 1234;
    simdOptions.flushInterval = 3456;
    simdOptions.windowSize = 789;
    simdOptions.simd = SimdMode::Avx2;
    SimOptions scalarOptions = simdOptions;
    scalarOptions.simd = SimdMode::Scalar;
    for (const SchemeInfo &scheme : listSchemes()) {
        SCOPED_TRACE(scheme.example);
        auto simdSide = makePredictor(scheme.example);
        auto scalarSide = makePredictor(scheme.example);
        const SimResult a =
            simulateWithOptions(*simdSide, trace, simdOptions);
        const SimResult b =
            simulateWithOptions(*scalarSide, trace, scalarOptions);
        EXPECT_EQ(a.conditionals, b.conditionals);
        EXPECT_EQ(a.mispredicts, b.mispredicts);
        ASSERT_EQ(a.windows.size(), b.windows.size());
        for (std::size_t i = 0; i < a.windows.size(); ++i) {
            EXPECT_EQ(a.windows[i].branches, b.windows[i].branches);
            EXPECT_EQ(a.windows[i].mispredicts,
                      b.windows[i].mispredicts);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PredictorContract, ::testing::ValuesIn(allSpecs),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ':' || c == '-') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace bpred
