/**
 * @file
 * Tests for streaming simulation sessions: feed()-in-chunks must be
 * indistinguishable from the batch loop for every scheme and every
 * telemetry knob, trace sources must agree with their in-memory
 * counterparts, and predictor snapshots must round-trip exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "predictors/gshare.hh"
#include "sim/driver.hh"
#include "sim/factory.hh"
#include "sim/gang.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/rng.hh"
#include "trace/stream.hh"
#include "trace/trace_io.hh"
#include "workloads/process_mix.hh"
#include "workloads/stream_source.hh"

namespace bpred
{
namespace
{

Trace
sessionTrace(u64 seed, int records = 20000)
{
    Trace trace("session");
    Rng rng(seed);
    for (int i = 0; i < records; ++i) {
        const Addr pc = 0x2000 + 4 * rng.uniformInt(400);
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc + 0x20000);
        } else {
            const bool outcome = (pc >> 2) % 3 == 0
                ? rng.chance(0.85)
                : (i & 2) != 0;
            trace.appendConditional(pc, outcome);
        }
    }
    return trace;
}

SimOptions
everyKnob()
{
    SimOptions options;
    options.warmupBranches = 1000;
    options.flushInterval = 3000;
    options.windowSize = 512;
    options.topSites = 4;
    return options;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.predictorName, b.predictorName);
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.conditionals, b.conditionals);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.storageBits, b.storageBits);
    EXPECT_EQ(a.windowSize, b.windowSize);
    // toJson() covers windows and topSites element by element.
    EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
}

std::vector<std::string>
exampleSpecs()
{
    std::vector<std::string> specs;
    for (const SchemeInfo &scheme : listSchemes()) {
        specs.push_back(scheme.example);
    }
    return specs;
}

class SessionEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SessionEquivalence, PlainStreamingMatchesBatch)
{
    const Trace trace = sessionTrace(1);
    auto batch_pred = makePredictor(GetParam());
    auto stream_pred = makePredictor(GetParam());

    const SimResult batch = simulate(*batch_pred, trace);
    MemoryTraceSource source(trace);
    const SimResult streamed =
        simulateSource(*stream_pred, source, SimOptions(), 777);
    expectSameResult(batch, streamed);
}

TEST_P(SessionEquivalence, AllKnobsStreamingMatchesBatch)
{
    const Trace trace = sessionTrace(2);
    auto batch_pred = makePredictor(GetParam());
    auto stream_pred = makePredictor(GetParam());

    CountingProbe batch_probe;
    SimOptions batch_options = everyKnob();
    batch_options.probe = &batch_probe;
    const SimResult batch =
        simulateWithOptions(*batch_pred, trace, batch_options);

    CountingProbe stream_probe;
    SimOptions stream_options = everyKnob();
    stream_options.probe = &stream_probe;
    MemoryTraceSource source(trace);
    const SimResult streamed =
        simulateSource(*stream_pred, source, stream_options, 1009);

    expectSameResult(batch, streamed);
    EXPECT_EQ(batch_probe.registry().toJson().dump(2),
              stream_probe.registry().toJson().dump(2));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SessionEquivalence,
    ::testing::ValuesIn(exampleSpecs()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ':' || c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(SimSession, ChunkBoundariesAreInvisible)
{
    const Trace trace = sessionTrace(3);
    const SimOptions options = everyKnob();

    auto reference_pred = makePredictor("gshare:10:8");
    const SimResult reference =
        simulateWithOptions(*reference_pred, trace, options);

    // One record per feed() — every boundary there is.
    auto drip_pred = makePredictor("gshare:10:8");
    SimSession drip(*drip_pred, options, trace.name());
    for (const BranchRecord &record : trace) {
        drip.feed(&record, 1);
    }
    expectSameResult(reference, drip.finish());

    // Randomized chunk sizes, including empty feeds.
    auto random_pred = makePredictor("gshare:10:8");
    SimSession random(*random_pred, options, trace.name());
    Rng rng(99);
    std::size_t at = 0;
    while (at < trace.size()) {
        const std::size_t n = std::min<std::size_t>(
            rng.uniformInt(300), trace.size() - at);
        random.feed(trace.records().data() + at, n);
        at += n;
    }
    expectSameResult(reference, random.finish());
}

TEST(SimSession, FeedAfterFinishFatals)
{
    auto predictor = makePredictor("bimodal:8");
    SimSession session(*predictor);
    session.finish();
    BranchRecord record{0x100, true, true};
    EXPECT_THROW(session.feed(&record, 1), FatalError);
}

TEST(SimSession, DoubleFinishFatals)
{
    auto predictor = makePredictor("bimodal:8");
    SimSession session(*predictor);
    session.finish();
    EXPECT_THROW(session.finish(), FatalError);
}

TEST(SimSession, AbandonedSessionRestoresProbe)
{
    GSharePredictor predictor(8, 6);
    CountingProbe outer;
    predictor.attachProbe(&outer);
    {
        CountingProbe inner;
        SimOptions options;
        options.probe = &inner;
        SimSession session(predictor, options);
        // Destroyed without finish(): the destructor must put the
        // outer probe back.
    }
    const Trace trace = sessionTrace(4, 100);
    simulate(predictor, trace);
    EXPECT_FALSE(outer.registry().toJson().dump().empty());
}

TEST(SimSession, ConditionalsSeenCountsWarmup)
{
    Trace trace("warm");
    for (int i = 0; i < 100; ++i) {
        trace.appendConditional(0x100, true);
    }
    auto predictor = makePredictor("bimodal:8");
    SimOptions options;
    options.warmupBranches = 60;
    SimSession session(*predictor, options, trace.name());
    session.feed(trace);
    EXPECT_EQ(session.conditionalsSeen(), 100u);
    const SimResult result = session.finish();
    EXPECT_EQ(result.conditionals, 40u);
}

TEST(TraceSources, BinaryStreamMatchesMemory)
{
    const Trace trace = sessionTrace(5);
    std::stringstream encoded;
    writeBinaryTrace(encoded, trace);

    BinaryTraceSource source(encoded);
    EXPECT_EQ(source.name(), trace.name());
    EXPECT_EQ(source.remaining(), trace.size());

    auto stream_pred = makePredictor("egskew:8:6");
    const SimResult streamed =
        simulateSource(*stream_pred, source, everyKnob(), 511);
    EXPECT_EQ(source.remaining(), 0u);

    auto batch_pred = makePredictor("egskew:8:6");
    const SimResult batch =
        simulateWithOptions(*batch_pred, trace, everyKnob());
    expectSameResult(batch, streamed);
}

TEST(TraceSources, DrainRebuildsTheTrace)
{
    const Trace trace = sessionTrace(6, 5000);
    MemoryTraceSource source(trace);
    const Trace drained = drainSource(source, 97);
    ASSERT_EQ(drained.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(drained[i], trace[i]) << "record " << i;
    }
}

TEST(TraceSources, ScratchRefillBoundariesAreInvisible)
{
    // The binary source decodes from one reused scratch buffer.
    // Shrinking it to barely more than one wire record forces a
    // refill (and a partial-record compaction) every few records;
    // the decoded stream must not change. Guards the chunk-boundary
    // handling in BinaryTraceSource::pull()/refill().
    const Trace trace = sessionTrace(7, 8000);
    std::stringstream encoded;
    writeBinaryTrace(encoded, trace);

    for (const std::size_t scratch :
         {std::size_t(1), std::size_t(13), std::size_t(64),
          std::size_t(4096)}) {
        encoded.clear();
        encoded.seekg(0);
        BinaryTraceSource source(encoded);
        source.setScratchBytes(scratch);
        const Trace drained = drainSource(source, 239);
        ASSERT_EQ(drained.size(), trace.size())
            << "scratch " << scratch;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            ASSERT_EQ(drained[i], trace[i])
                << "scratch " << scratch << " record " << i;
        }
    }
}

TEST(TraceSources, SizeHintOnlyWhenLengthValidated)
{
    // drainSource() pre-reserves from sizeHint(), which must report
    // a validated count for seekable binary streams and the exact
    // remainder for memory sources.
    const Trace trace = sessionTrace(8, 300);
    MemoryTraceSource memory(trace);
    EXPECT_EQ(memory.sizeHint(), trace.size());

    std::stringstream encoded;
    writeBinaryTrace(encoded, trace);
    BinaryTraceSource binary(encoded);
    // A stringstream is seekable, so the header's record count is
    // validated against the stream length.
    EXPECT_EQ(binary.sizeHint(), trace.size());
}

TEST(TraceSources, WorkloadStreamMatchesGenerateWorkload)
{
    WorkloadParams params;
    params.name = "stream-check";
    params.seed = 42;
    params.dynamicConditionalTarget = 30'000;
    params.userQuantumMean = 2'000;

    const Trace batch = generateWorkload(params);

    // Tiny pull size forces many refill boundaries mid-quantum.
    WorkloadStream stream(params);
    const Trace streamed = drainSource(stream, 113);
    EXPECT_EQ(stream.conditionalsEmitted(),
              params.dynamicConditionalTarget);

    EXPECT_EQ(streamed.name(), batch.name());
    ASSERT_EQ(streamed.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(streamed[i], batch[i]) << "record " << i;
    }
}

class SnapshotRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SnapshotRoundTrip, ResumeIsBitIdentical)
{
    auto original = makePredictor(GetParam());
    if (!original->supportsSnapshot()) {
        GTEST_SKIP() << GetParam() << " does not snapshot";
    }

    const Trace trace = sessionTrace(7);
    const std::size_t half = trace.size() / 2;

    // Train to the midpoint, checkpoint, resume in a fresh
    // predictor; both must then predict the second half identically
    // and from identical state.
    SimSession first_half(*original);
    first_half.feed(trace.records().data(), half);
    first_half.finish();

    std::stringstream checkpoint;
    savePredictorState(*original, checkpoint);

    auto resumed = makePredictor(GetParam());
    loadPredictorState(*resumed, checkpoint);

    std::stringstream original_state;
    std::stringstream resumed_state;
    savePredictorState(*original, original_state);
    savePredictorState(*resumed, resumed_state);
    EXPECT_EQ(original_state.str(), resumed_state.str());

    SimSession original_rest(*original);
    original_rest.feed(trace.records().data() + half,
                       trace.size() - half);
    const SimResult a = original_rest.finish();

    SimSession resumed_rest(*resumed);
    resumed_rest.feed(trace.records().data() + half,
                      trace.size() - half);
    const SimResult b = resumed_rest.finish();

    EXPECT_EQ(a.conditionals, b.conditionals);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SnapshotRoundTrip,
    ::testing::ValuesIn(exampleSpecs()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ':' || c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(Snapshot, EverySchemeSupportsIt)
{
    // The serving layer checkpoints tenants on eviction, so every
    // registered scheme must be snapshot-capable.
    for (const std::string &spec : exampleSpecs()) {
        EXPECT_TRUE(makePredictor(spec)->supportsSnapshot()) << spec;
    }
}

TEST(Snapshot, RejectsConfigurationMismatch)
{
    auto small = makePredictor("gshare:8:6");
    auto large = makePredictor("gshare:10:6");
    std::stringstream state;
    savePredictorState(*small, state);
    EXPECT_THROW(loadPredictorState(*large, state), FatalError);
}

TEST(Snapshot, RejectsBadMagic)
{
    auto predictor = makePredictor("gshare:8:6");
    std::stringstream garbage("this is not a snapshot");
    EXPECT_THROW(loadPredictorState(*predictor, garbage), FatalError);
}

TEST(Snapshot, RejectsTruncatedState)
{
    auto predictor = makePredictor("gshare:8:6");
    std::stringstream state;
    savePredictorState(*predictor, state);
    std::string bytes = state.str();
    bytes.resize(bytes.size() / 2);
    auto fresh = makePredictor("gshare:8:6");
    std::stringstream truncated(bytes);
    EXPECT_THROW(loadPredictorState(*fresh, truncated), FatalError);
}

namespace
{

/** A predictor that keeps the base-class "no snapshots" default. */
class SnapshotlessPredictor : public Predictor
{
  public:
    bool predict(Addr) const override { return true; }
    Outcome predictAndUpdate(Addr, bool) override { return {true}; }
    void notifyUnconditional(Addr) override {}
    void
    replayBlock(const BranchRecord *, std::size_t, ReplayCounters &,
                ReplayScratch *) override
    {
    }
    std::string name() const override { return "snapshotless"; }
    u64 storageBits() const override { return 0; }
    void reset() override {}
};

} // namespace

TEST(Snapshot, UnsupportedSchemeFatalsCleanly)
{
    SnapshotlessPredictor predictor;
    ASSERT_FALSE(predictor.supportsSnapshot());
    std::stringstream state;
    EXPECT_THROW(savePredictorState(predictor, state), FatalError);
}

TEST(GangSession, MatchesIndependentSessionsBitForBit)
{
    // A gang over one trace must produce exactly the SimResults of
    // N independent per-predictor sessions — including bookkeeping
    // knobs that split blocks mid-way.
    const Trace trace = sessionTrace(41);
    const std::vector<std::string> specs = {
        "bimodal:8", "gshare:8:6", "gskewed:3:8:6", "egskew:8:6"};
    const SimOptions options = everyKnob();

    std::vector<std::unique_ptr<Predictor>> solo;
    std::vector<SimResult> want;
    for (const std::string &spec : specs) {
        solo.push_back(makePredictor(spec));
        want.push_back(
            simulateWithOptions(*solo.back(), trace, options));
    }

    std::vector<std::unique_ptr<Predictor>> ganged;
    GangSession gang;
    for (const std::string &spec : specs) {
        ganged.push_back(makePredictor(spec));
        gang.add(*ganged.back(), options, trace.name());
    }
    gang.feed(trace);
    const std::vector<SimResult> got = gang.finish();

    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].predictorName, got[i].predictorName);
        EXPECT_EQ(want[i].traceName, got[i].traceName);
        EXPECT_EQ(want[i].conditionals, got[i].conditionals);
        EXPECT_EQ(want[i].mispredicts, got[i].mispredicts);
        ASSERT_EQ(want[i].windows.size(), got[i].windows.size());
        for (std::size_t w = 0; w < want[i].windows.size(); ++w) {
            EXPECT_EQ(want[i].windows[w].branches,
                      got[i].windows[w].branches);
            EXPECT_EQ(want[i].windows[w].mispredicts,
                      got[i].windows[w].mispredicts);
        }
        ASSERT_EQ(want[i].topSites.size(), got[i].topSites.size());
        for (std::size_t s = 0; s < want[i].topSites.size(); ++s) {
            EXPECT_EQ(want[i].topSites[s].pc, got[i].topSites[s].pc);
            EXPECT_EQ(want[i].topSites[s].mispredicts,
                      got[i].topSites[s].mispredicts);
        }
    }
}

TEST(GangSession, AttributingMemberSharesScratchWithSimdMembers)
{
    // Member 0 attributes (top sites plus exact site tallies), so it
    // replays through the reference kernels with a null scratch,
    // while the AVX2 members around it run the phase-split kernels
    // on the gang's shared scratch. Every member must match an
    // independent scalar-loop session, tallies included.
    const Trace trace = sessionTrace(44);
    const std::vector<std::string> specs = {
        "gshare:8:6", "gskewed:3:8:6", "egskew:8:6", "bimodal:8"};
    SimOptions simd = everyKnob();
    simd.topSites = 0;
    simd.simd = SimdMode::Avx2;

    SiteTallies ganged_tallies;
    SimOptions attributing = simd;
    attributing.topSites = 6;
    attributing.siteTallies = &ganged_tallies;

    std::vector<std::unique_ptr<Predictor>> ganged;
    GangSession gang(1000);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ganged.push_back(makePredictor(specs[i]));
        gang.add(*ganged.back(), i == 0 ? attributing : simd,
                 trace.name());
    }
    gang.feed(trace);
    const std::vector<SimResult> got = gang.finish();

    SiteTallies solo_tallies;
    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i]);
        ASSERT_FALSE(gang.memberError(i));
        SimOptions scalar = i == 0 ? attributing : simd;
        scalar.scalarReplay = true;
        scalar.siteTallies = i == 0 ? &solo_tallies : nullptr;
        auto solo = makePredictor(specs[i]);
        expectSameResult(simulateWithOptions(*solo, trace, scalar),
                         got[i]);
    }
    EXPECT_FALSE(got[0].topSites.empty());

    auto sorted = [](const SiteTallies &tallies) {
        std::vector<std::tuple<Addr, u64, u64>> rows;
        tallies.forEach([&](Addr pc, const SiteTally &tally) {
            rows.emplace_back(pc, tally.branches, tally.mispredicts);
        });
        std::sort(rows.begin(), rows.end());
        return rows;
    };
    EXPECT_EQ(sorted(ganged_tallies), sorted(solo_tallies));
    EXPECT_GT(ganged_tallies.size(), 0u);
}

TEST(GangSession, ChunkedFeedsAndBlockSizesAreInvisible)
{
    // Feeding a gang in ragged chunks, at any block granularity,
    // must not change any member's result.
    const Trace trace = sessionTrace(42);
    auto a1 = makePredictor("gshare:8:6");
    auto a2 = makePredictor("gskewed:3:8:6");
    GangSession reference;
    reference.add(*a1);
    reference.add(*a2);
    reference.feed(trace);
    const std::vector<SimResult> want = reference.finish();

    for (const std::size_t block : {std::size_t(64),
                                    std::size_t(1000)}) {
        auto b1 = makePredictor("gshare:8:6");
        auto b2 = makePredictor("gskewed:3:8:6");
        GangSession gang(block);
        gang.add(*b1);
        gang.add(*b2);
        const BranchRecord *records = trace.records().data();
        std::size_t at = 0;
        std::size_t chunk = 17;
        while (at < trace.size()) {
            const std::size_t n =
                std::min(chunk, trace.size() - at);
            gang.feed(records + at, n);
            at += n;
            chunk = chunk * 3 + 1;
        }
        const std::vector<SimResult> got = gang.finish();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].mispredicts, got[i].mispredicts)
                << "block " << block << " member " << i;
            EXPECT_EQ(want[i].conditionals, got[i].conditionals);
        }
    }
}

TEST(GangSession, SimulateGangMatchesSimulate)
{
    const Trace trace = sessionTrace(43);
    auto solo1 = makePredictor("bimodal:8");
    auto solo2 = makePredictor("hybrid:8:6");
    const SimResult want1 = simulate(*solo1, trace);
    const SimResult want2 = simulate(*solo2, trace);

    auto g1 = makePredictor("bimodal:8");
    auto g2 = makePredictor("hybrid:8:6");
    const std::vector<SimResult> got =
        simulateGang({g1.get(), g2.get()}, trace);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(want1.mispredicts, got[0].mispredicts);
    EXPECT_EQ(want2.mispredicts, got[1].mispredicts);
    EXPECT_EQ(want1.conditionals, got[0].conditionals);
    EXPECT_EQ(want2.conditionals, got[1].conditionals);
}

TEST(GangSession, LifecycleMisuseFatals)
{
    const Trace trace = sessionTrace(44, 2000);
    auto predictor = makePredictor("gshare:8:6");
    GangSession gang;
    const std::size_t index = gang.add(*predictor);
    gang.feed(trace);
    auto late = makePredictor("bimodal:8");
    EXPECT_THROW(gang.add(*late), FatalError);
    gang.finish();
    EXPECT_EQ(gang.memberError(index), nullptr);
    EXPECT_THROW(gang.feed(trace), FatalError);
    EXPECT_THROW(simulateGang({nullptr}, trace), FatalError);
}

} // namespace
} // namespace bpred
