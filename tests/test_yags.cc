/**
 * @file
 * Unit tests for the YAGS predictor.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "predictors/gshare.hh"
#include "predictors/yags.hh"
#include "sim/driver.hh"
#include "support/rng.hh"

namespace bpred
{
namespace
{

TEST(Yags, LearnsBiasedBranches)
{
    YagsPredictor predictor(8, 4, 8);
    const Addr taken_pc = 0x100;
    const Addr not_taken_pc = 0x104;
    for (int i = 0; i < 20; ++i) {
        predictor.predictAndUpdate(taken_pc, true);
        predictor.predictAndUpdate(not_taken_pc, false);
    }
    EXPECT_TRUE(predictor.predict(taken_pc));
    EXPECT_FALSE(predictor.predict(not_taken_pc));
}

TEST(Yags, ChoiceTrainsWhenTheExceptionEntryMispredicts)
{
    // One site, no history. N, N, T, N leave the choice counter at
    // 0 (bias not-taken) and a taken-cache exception entry at 1
    // (weakly not-taken). The fifth branch is taken: bias and entry
    // both predict not-taken, a miss. Bi-mode's rule skips the
    // choice update only when the consulted entry was right, so the
    // choice counter moves 0 -> 1 — even though training the entry
    // has just moved it to 2, which reads as "taken".
    YagsPredictor predictor(4, 0, 4, 6);
    const Addr pc = 0x40; // choice index 0
    for (const bool taken : {false, false, true, false}) {
        predictor.predictAndUpdate(pc, taken);
    }
    EXPECT_FALSE(predictor.predictAndUpdate(pc, true).prediction);

    std::ostringstream os;
    predictor.saveState(os);
    const std::string bytes = os.str();
    // Two caches of 16 four-byte entries, each behind a u64 count,
    // then the choice table's u64 count and u8 width.
    const std::size_t choice_at = 2 * (8 + 16 * 4) + 8 + 1;
    ASSERT_GT(bytes.size(), choice_at);
    EXPECT_EQ(int(u8(bytes[choice_at])), 1);
}

TEST(Yags, ExceptionCacheCatchesBiasViolations)
{
    // A branch biased taken with a periodic not-taken exception in
    // a recognizable history context: the exception cache learns
    // the context, the choice table keeps the bias.
    // With an 8-bit history the period-8 pattern gives every
    // position a unique context, so the single not-taken exception
    // is fully learnable by the exception cache while the choice
    // table holds the taken bias.
    YagsPredictor predictor(8, 8, 8);
    const Addr pc = 0x200;
    int wrong = 0;
    for (int i = 0; i < 800; ++i) {
        const bool outcome = i % 8 != 7; // TTTTTTTN pattern
        if (i >= 400) {
            wrong += predictor.predict(pc) != outcome;
        }
        predictor.predictAndUpdate(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(Yags, OnlyExceptionsAllocate)
{
    // A perfectly biased branch never allocates a cache entry, so
    // an always-taken branch prediction flows from the choice
    // table alone (cold caches).
    YagsPredictor predictor(6, 4, 6);
    const Addr pc = 0x300;
    for (int i = 0; i < 50; ++i) {
        predictor.predictAndUpdate(pc, true);
    }
    EXPECT_TRUE(predictor.predict(pc));
}

TEST(Yags, TagsIsolateUnrelatedBranches)
{
    // Two branches whose (pc, history) hash to the same cache set
    // but have different tags: the second cannot silently use the
    // first's exception counter.
    YagsPredictor yags(1, 0, 8); // 2-entry caches: forced sets
    GSharePredictor gshare(1, 0);
    const Addr a = 0x100;
    const Addr b = a + 8;

    int yags_wrong = 0;
    int gshare_wrong = 0;
    for (int i = 0; i < 300; ++i) {
        const bool score = i >= 100;
        yags_wrong += score && yags.predict(a) != true;
        yags.predictAndUpdate(a, true);
        gshare_wrong += score && gshare.predict(a) != true;
        gshare.predictAndUpdate(a, true);

        yags_wrong += score && yags.predict(b) != false;
        yags.predictAndUpdate(b, false);
        gshare_wrong += score && gshare.predict(b) != false;
        gshare.predictAndUpdate(b, false);
    }
    EXPECT_EQ(yags_wrong, 0);
    EXPECT_GE(gshare_wrong, 180);
}

TEST(Yags, NameAndStorage)
{
    YagsPredictor predictor(10, 8, 11, 6);
    EXPECT_EQ(predictor.name(), "yags-2x1K+2K-h8");
    // 2 caches x 1024 x (2+6+1) + choice 2048 x 2.
    EXPECT_EQ(predictor.storageBits(), 2u * 1024 * 9 + 2048u * 2);
}

TEST(Yags, ResetRestoresColdState)
{
    YagsPredictor predictor(8, 4, 8);
    for (int i = 0; i < 30; ++i) {
        predictor.predictAndUpdate(0x40, false);
    }
    EXPECT_FALSE(predictor.predict(0x40));
    predictor.reset();
    EXPECT_TRUE(predictor.predict(0x40)); // weakly-taken choice
}

TEST(Yags, CompetitiveUnderAliasing)
{
    Rng rng(33);
    Trace trace("aliasing");
    for (int i = 0; i < 40000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(1024);
        const bool dominant = (pc >> 2) % 2 == 0;
        trace.appendConditional(pc,
                                rng.chance(dominant ? 0.95 : 0.05));
    }
    // Comparable storage: yags 2x256x9 + 1K choice ~ 6.6Kbit vs
    // gshare 4K entries = 8Kbit.
    YagsPredictor yags(8, 6, 10);
    GSharePredictor gshare(12, 6);
    const double yags_rate =
        simulate(yags, trace).mispredictRatio();
    const double gshare_rate =
        simulate(gshare, trace).mispredictRatio();
    EXPECT_LT(yags_rate, gshare_rate + 0.02);
}

} // namespace
} // namespace bpred
