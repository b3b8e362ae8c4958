/**
 * @file
 * Unit tests for the bi-mode predictor.
 */

#include <gtest/gtest.h>

#include "predictors/bimode.hh"
#include "predictors/gshare.hh"
#include "sim/driver.hh"
#include "support/rng.hh"

namespace bpred
{
namespace
{

TEST(BiMode, LearnsBiasedBranches)
{
    BiModePredictor predictor(8, 4, 8);
    const Addr taken_pc = 0x100;
    const Addr not_taken_pc = 0x104;
    for (int i = 0; i < 20; ++i) {
        predictor.predictAndUpdate(taken_pc, true);
        predictor.predictAndUpdate(not_taken_pc, false);
    }
    EXPECT_TRUE(predictor.predict(taken_pc));
    EXPECT_FALSE(predictor.predict(not_taken_pc));
}

TEST(BiMode, LearnsAlternatingBranch)
{
    BiModePredictor predictor(8, 4, 8);
    const Addr pc = 0x200;
    bool outcome = false;
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        if (i >= 200) {
            wrong += predictor.predict(pc) != outcome;
        }
        predictor.predictAndUpdate(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(BiMode, SegregationAbsorbsOppositeBiasConflict)
{
    // Two branches with opposite biases whose (pc, history) pairs
    // collide in the direction tables: bi-mode sends them to
    // different direction tables via the choice table, so the
    // collision never materializes. gshare at the same direction
    // geometry ping-pongs.
    BiModePredictor bimode(1, 0, 8); // 2-entry direction tables
    GSharePredictor gshare(1, 0);
    const Addr a = 0x100;
    const Addr b = a + 8; // same direction-table entry

    int bimode_wrong = 0;
    int gshare_wrong = 0;
    for (int i = 0; i < 300; ++i) {
        const bool score = i >= 100;
        bimode_wrong += score && bimode.predict(a) != true;
        bimode.predictAndUpdate(a, true);
        gshare_wrong += score && gshare.predict(a) != true;
        gshare.predictAndUpdate(a, true);

        bimode_wrong += score && bimode.predict(b) != false;
        bimode.predictAndUpdate(b, false);
        gshare_wrong += score && gshare.predict(b) != false;
        gshare.predictAndUpdate(b, false);
    }
    EXPECT_EQ(bimode_wrong, 0);
    EXPECT_GE(gshare_wrong, 180);
}

TEST(BiMode, NameAndStorage)
{
    BiModePredictor predictor(12, 10, 11);
    EXPECT_EQ(predictor.name(), "bimode-2x4K+2K-h10");
    EXPECT_EQ(predictor.storageBits(),
              2u * 4096 * 2 + 2048u * 2);
}

TEST(BiMode, ResetRestoresColdState)
{
    BiModePredictor predictor(8, 4, 8);
    for (int i = 0; i < 20; ++i) {
        predictor.predictAndUpdate(0x40, false);
    }
    EXPECT_FALSE(predictor.predict(0x40));
    predictor.reset();
    // Cold choice is weakly-taken and the taken table leans taken.
    EXPECT_TRUE(predictor.predict(0x40));
}

TEST(BiMode, CompetitiveWithGShareOnBiasedAliasingStream)
{
    Rng rng(21);
    Trace trace("mixed");
    for (int i = 0; i < 40000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(1024);
        const bool dominant = (pc >> 2) % 2 == 0;
        trace.appendConditional(pc,
                                rng.chance(dominant ? 0.97 : 0.03));
    }
    // Equal total storage: bimode 2x256+512 counters = 1.5Kbit +
    // choice vs gshare 1K entries = 2Kbit.
    BiModePredictor bimode(8, 6, 9);
    GSharePredictor gshare(10, 6);
    const double bimode_rate =
        simulate(bimode, trace).mispredictRatio();
    const double gshare_rate =
        simulate(gshare, trace).mispredictRatio();
    EXPECT_LT(bimode_rate, gshare_rate + 0.01);
}

} // namespace
} // namespace bpred
