/**
 * @file
 * Unit tests for static, bimodal, gshare and gselect predictors.
 */

#include <gtest/gtest.h>

#include "predictors/bimodal.hh"
#include "predictors/gselect.hh"
#include "predictors/gshare.hh"
#include "predictors/static_pred.hh"

namespace bpred
{
namespace
{

TEST(StaticPredictor, FixedDirections)
{
    StaticPredictor taken(true);
    StaticPredictor not_taken(false);
    for (Addr pc = 0; pc < 64; pc += 4) {
        EXPECT_TRUE(taken.predict(pc));
        EXPECT_FALSE(not_taken.predict(pc));
    }
    EXPECT_EQ(taken.storageBits(), 0u);
    EXPECT_EQ(taken.name(), "always-taken");
    EXPECT_EQ(not_taken.name(), "always-not-taken");
}

TEST(Bimodal, LearnsPerAddress)
{
    BimodalPredictor predictor(6);
    const Addr loop = 0x100;
    const Addr exit = 0x104; // distinct table entry from `loop`
    for (int i = 0; i < 4; ++i) {
        predictor.predict(loop);
        predictor.predictAndUpdate(loop, true);
        predictor.predict(exit);
        predictor.predictAndUpdate(exit, false);
    }
    EXPECT_TRUE(predictor.predict(loop));
    EXPECT_FALSE(predictor.predict(exit));
}

TEST(Bimodal, AliasesOnLowBits)
{
    BimodalPredictor predictor(4); // 16 entries
    const Addr a = 0x100;
    const Addr b = a + (16 << 2); // same low index bits
    for (int i = 0; i < 4; ++i) {
        predictor.predictAndUpdate(a, true);
    }
    // b shares a's counter, so it inherits a's bias.
    EXPECT_TRUE(predictor.predict(b));
}

TEST(Bimodal, StorageBits)
{
    BimodalPredictor predictor(10, 2);
    EXPECT_EQ(predictor.storageBits(), 1024u * 2);
    BimodalPredictor one_bit(10, 1);
    EXPECT_EQ(one_bit.storageBits(), 1024u);
}

TEST(Bimodal, ResetForgets)
{
    BimodalPredictor predictor(6);
    for (int i = 0; i < 4; ++i) {
        predictor.predictAndUpdate(0x40, true);
    }
    EXPECT_TRUE(predictor.predict(0x40));
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x40));
}

TEST(GShare, LearnsHistoryCorrelatedBranch)
{
    // A branch whose direction equals its previous outcome pattern:
    // alternating T/N. With history, gshare separates the two
    // contexts; bimodal cannot.
    GSharePredictor gshare(10, 4);
    BimodalPredictor bimodal(10);
    const Addr pc = 0x400;

    int gshare_wrong = 0;
    int bimodal_wrong = 0;
    bool outcome = false;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        if (i >= 100) { // after warm-up
            gshare_wrong += gshare.predict(pc) != outcome;
            bimodal_wrong += bimodal.predict(pc) != outcome;
        } else {
            gshare.predict(pc);
            bimodal.predict(pc);
        }
        gshare.predictAndUpdate(pc, outcome);
        bimodal.predictAndUpdate(pc, outcome);
    }
    EXPECT_EQ(gshare_wrong, 0);
    EXPECT_GT(bimodal_wrong, 100);
}

TEST(GShare, UnconditionalShiftsHistory)
{
    GSharePredictor a(10, 4);
    GSharePredictor b(10, 4);
    const Addr pc = 0x800;
    // Train `a` after an unconditional branch polluted its history;
    // `b` sees the same conditional stream without it. The indexes
    // they train differ, which we observe via predictions.
    a.notifyUnconditional(0x100);
    for (int i = 0; i < 3; ++i) {
        a.predictAndUpdate(pc, true);
        b.predictAndUpdate(pc, true);
    }
    // Reset histories to a common state and compare table contents
    // indirectly: with equal history, predictions may differ since
    // training went to different entries.
    // (Just assert both still function.)
    EXPECT_NO_THROW(a.predict(pc));
    EXPECT_NO_THROW(b.predict(pc));
}

TEST(GShare, NameAndStorage)
{
    GSharePredictor predictor(14, 12);
    EXPECT_EQ(predictor.name(), "gshare-16K-h12");
    EXPECT_EQ(predictor.storageBits(), (u64(1) << 14) * 2);
    EXPECT_EQ(predictor.historyBits(), 12u);
}

TEST(GShare, ResetClearsHistoryAndTable)
{
    GSharePredictor predictor(8, 4);
    for (int i = 0; i < 10; ++i) {
        predictor.predictAndUpdate(0x10, true);
    }
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x10));
}

TEST(GSelect, LearnsHistoryCorrelatedBranch)
{
    GSelectPredictor predictor(10, 4);
    const Addr pc = 0x400;
    bool outcome = false;
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        outcome = !outcome;
        if (i >= 100) {
            wrong += predictor.predict(pc) != outcome;
        } else {
            predictor.predict(pc);
        }
        predictor.predictAndUpdate(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(GSelect, NameAndStorage)
{
    GSelectPredictor predictor(12, 6);
    EXPECT_EQ(predictor.name(), "gselect-4K-h6");
    EXPECT_EQ(predictor.storageBits(), (u64(1) << 12) * 2);
}

TEST(GShareVsGSelect, DifferentIndexing)
{
    // Same training stream; different table organizations should,
    // in general, leave different table states. Train two branches
    // that collide in gselect's truncated address bits but not in
    // gshare's XOR.
    GSharePredictor gshare(6, 4);
    GSelectPredictor gselect(6, 4);
    const Addr a = 0x10 << 2;
    const Addr b = (0x10 + (1 << 4)) << 2; // differs above gselect's
                                           // 2 surviving address bits
    for (int i = 0; i < 4; ++i) {
        gshare.predictAndUpdate(a, true);
        gselect.predictAndUpdate(a, true);
    }
    // Both work; detailed aliasing behaviour is exercised in the
    // three-C tests.
    EXPECT_NO_THROW(gshare.predict(b));
    EXPECT_NO_THROW(gselect.predict(b));
}

TEST(OneBitVsTwoBit, LoopBranchAnomaly)
{
    // Classic result: on a loop taken 9 of 10 times, a 1-bit
    // counter mispredicts twice per loop (both the exit and the
    // re-entry), a 2-bit counter once.
    BimodalPredictor one_bit(8, 1);
    BimodalPredictor two_bit(8, 2);
    const Addr pc = 0x40;

    auto run = [&](BimodalPredictor &p) {
        int wrong = 0;
        // warm-up
        for (int i = 0; i < 10; ++i) {
            p.predictAndUpdate(pc, i % 10 != 9);
        }
        for (int i = 0; i < 200; ++i) {
            const bool outcome = i % 10 != 9;
            wrong += p.predict(pc) != outcome;
            p.predictAndUpdate(pc, outcome);
        }
        return wrong;
    };

    const int wrong1 = run(one_bit);
    const int wrong2 = run(two_bit);
    EXPECT_EQ(wrong2, 20); // one mispredict per iteration of 10
    EXPECT_EQ(wrong1, 40); // two mispredicts per iteration
}

} // namespace
} // namespace bpred
