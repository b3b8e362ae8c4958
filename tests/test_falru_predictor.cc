/**
 * @file
 * Unit tests for the fully-associative LRU predictor (Figure 8's
 * yardstick).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "aliasing/falru_predictor.hh"
#include "support/logging.hh"
#include "support/memmeter.hh"
#include "support/rng.hh"

namespace bpred
{
namespace
{

TEST(FaLruPredictor, MissPredictsTaken)
{
    FaLruPredictor predictor(16, 4);
    EXPECT_TRUE(predictor.predict(0x100));
}

TEST(FaLruPredictor, LearnsResidentSubstream)
{
    FaLruPredictor predictor(16, 0);
    const Addr pc = 0x40;
    predictor.predict(pc);
    predictor.predictAndUpdate(pc, false);
    // Entry now resident, trained strongly not-taken.
    EXPECT_FALSE(predictor.predict(pc));
}

TEST(FaLruPredictor, CapacityEvictionRestoresStaticPrediction)
{
    FaLruPredictor predictor(2, 0);
    predictor.predictAndUpdate(0x10, false);
    predictor.predictAndUpdate(0x20, false);
    predictor.predictAndUpdate(0x30, false); // evicts 0x10's pair
    EXPECT_TRUE(predictor.predict(0x10));  // back to always-taken
    EXPECT_FALSE(predictor.predict(0x30));
}

TEST(FaLruPredictor, HistoryDistinguishesSubstreams)
{
    FaLruPredictor predictor(64, 2);
    const Addr pc = 0x80;
    // Alternating outcome keyed by previous outcome: two
    // substreams with opposite directions.
    bool outcome = false;
    int wrong = 0;
    for (int i = 0; i < 200; ++i) {
        outcome = !outcome;
        if (i >= 100) {
            wrong += predictor.predict(pc) != outcome;
        }
        predictor.predictAndUpdate(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(FaLruPredictor, StorageIncludesTags)
{
    FaLruPredictor predictor(1024, 12, 2);
    // Tag-full structures are expensive: far more than 2 bits/entry.
    EXPECT_GT(predictor.storageBits(), 1024u * 2 * 10);
}

TEST(FaLruPredictor, NameEncodesConfig)
{
    FaLruPredictor predictor(4096, 4);
    EXPECT_EQ(predictor.name(), "fa-lru-4096-h4");
}

TEST(FaLruPredictor, MissRatioExposed)
{
    FaLruPredictor predictor(2, 0);
    predictor.predictAndUpdate(0x10, true);
    predictor.predictAndUpdate(0x10, true);
    EXPECT_NEAR(predictor.missRatio(), 0.5, 1e-12);
}

TEST(FaLruPredictor, ResetForgets)
{
    FaLruPredictor predictor(8, 0);
    predictor.predictAndUpdate(0x10, false);
    EXPECT_FALSE(predictor.predict(0x10));
    predictor.reset();
    EXPECT_TRUE(predictor.predict(0x10));
}

TEST(FaLruPredictor, UnconditionalShiftsHistory)
{
    FaLruPredictor with_uncond(64, 4);
    FaLruPredictor without(64, 4);
    const Addr pc = 0x100;
    // Train under one history context.
    with_uncond.predictAndUpdate(pc, false);
    without.predictAndUpdate(pc, false);
    // Shifting history moves the pair out of context for the
    // predictor that saw the unconditional branch.
    with_uncond.notifyUnconditional(0x200);
    EXPECT_TRUE(with_uncond.predict(pc));   // different key -> miss
    EXPECT_FALSE(without.predict(pc));      // same key -> learned
}

std::string
snapshotOf(const Predictor &predictor)
{
    std::ostringstream os;
    savePredictorState(predictor, os);
    return os.str();
}

TEST(FaLruPredictor, RejectedRestoreLeavesStateUntouched)
{
    FaLruPredictor source(8, 4, 2);
    FaLruPredictor target(8, 4, 2);
    for (int i = 0; i < 40; ++i) {
        source.predictAndUpdate(0x40 + 4 * (i % 11), i % 3 == 0);
    }
    target.predictAndUpdate(0x1000, false);
    const std::string blob = snapshotOf(source);
    const std::string before = snapshotOf(target);
    // Cut off the history word, then also the miss tallies and the
    // tail of the last (9-byte) entry.
    for (const std::size_t cut : {8u, 8u + 16u + 4u}) {
        std::istringstream is(blob.substr(0, blob.size() - cut));
        EXPECT_THROW(loadPredictorState(target, is), FatalError);
        EXPECT_EQ(snapshotOf(target), before) << "cut " << cut;
    }
    std::istringstream is(blob);
    loadPredictorState(target, is);
    EXPECT_EQ(snapshotOf(target), blob);
}

TEST(FaLruPredictor, HugeCapacityAllocatesOnDemand)
{
    const MemUsage start = processMemUsage();
    if (!start.valid) {
        GTEST_SKIP() << "no resident-set numbers on this platform";
    }
    FaLruPredictor predictor(u64(1) << 28, 4, 2);
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        predictor.predictAndUpdate(0x1000 + 4 * rng.uniformInt(2048),
                                   rng.chance(0.5));
    }
    EXPECT_LT(processMemUsage().rssBytes, start.rssBytes + (u64(64) << 20));
}

} // namespace
} // namespace bpred
