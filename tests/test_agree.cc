/**
 * @file
 * Unit tests for the agree predictor.
 */

#include <gtest/gtest.h>

#include "predictors/agree.hh"
#include "predictors/gshare.hh"
#include "sim/driver.hh"
#include "support/rng.hh"

namespace bpred
{
namespace
{

TEST(Agree, ColdPredictsTaken)
{
    AgreePredictor predictor(8, 4, 8);
    // Unset bias defaults taken; agree counter initialized to
    // weakly-agree.
    EXPECT_TRUE(predictor.predict(0x100));
}

TEST(Agree, BiasSetOnFirstEncounter)
{
    AgreePredictor predictor(8, 4, 8);
    predictor.predictAndUpdate(0x100, false); // bias becomes not-taken
    // Weakly-agree + not-taken bias -> predicts not-taken.
    EXPECT_FALSE(predictor.predict(0x100));
}

TEST(Agree, FollowsBiasOnStronglyBiasedBranch)
{
    AgreePredictor predictor(8, 4, 8);
    const Addr pc = 0x200;
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        const bool outcome = i % 20 != 19; // 95% taken
        if (i >= 100) {
            wrong += predictor.predict(pc) != outcome;
        }
        predictor.predictAndUpdate(pc, outcome);
    }
    // Near the bias floor: ~5% misprediction on 300 scored.
    EXPECT_LT(wrong, 40);
}

TEST(Agree, OppositeBiasBranchesShareCounterHarmlessly)
{
    // The design goal: an always-taken and an always-not-taken
    // branch forced onto the SAME agree counter both want "agree",
    // so neither disturbs the other. A plain gshare counter would
    // ping-pong.
    AgreePredictor agree(1, 0, 8);   // a 2-entry agree table
    GSharePredictor gshare(1, 0);    // a 2-entry direction table
    const Addr a = 0x100;
    const Addr b = a + 8; // same entry as `a` in a 1-bit index

    int agree_wrong = 0;
    int gshare_wrong = 0;
    for (int i = 0; i < 200; ++i) {
        const bool score = i >= 50;
        agree_wrong += score && agree.predict(a) != true;
        agree.predictAndUpdate(a, true);
        gshare_wrong += score && gshare.predict(a) != true;
        gshare.predictAndUpdate(a, true);

        agree_wrong += score && agree.predict(b) != false;
        agree.predictAndUpdate(b, false);
        gshare_wrong += score && gshare.predict(b) != false;
        gshare.predictAndUpdate(b, false);
    }
    EXPECT_EQ(agree_wrong, 0);
    // The oscillating shared counter settles into a state that is
    // always wrong for one of the two branches: 150 of 300 scored.
    EXPECT_GE(gshare_wrong, 140);
}

TEST(Agree, NameStorageReset)
{
    AgreePredictor predictor(12, 10, 10);
    EXPECT_EQ(predictor.name(), "agree-4K-h10");
    EXPECT_EQ(predictor.storageBits(), 4096u * 2 + 1024u);
    predictor.predictAndUpdate(0x100, false);
    EXPECT_FALSE(predictor.predict(0x100));
    predictor.reset();
    EXPECT_TRUE(predictor.predict(0x100));
}

TEST(Agree, BiasTableAliasingDegradesGracefully)
{
    // Two branches sharing a bias entry (tiny bias table): the
    // second to arrive inherits the first's bias; the agree
    // counters must then learn "disagree" for it.
    AgreePredictor predictor(10, 4, 1);
    const Addr a = 0x100;
    const Addr b = a + (2 << 2); // same bias entry (1-bit table)
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        const bool score = i >= 200;
        wrong += score && predictor.predict(a) != true;
        predictor.predictAndUpdate(a, true);
        wrong += score && predictor.predict(b) != false;
        predictor.predictAndUpdate(b, false);
    }
    // Learnable despite the shared bias bit.
    EXPECT_LT(wrong, 40);
}

TEST(Agree, BeatsGShareUnderAliasingWithGoodBiases)
{
    // The agree predictor's premise assumes reasonably correct
    // bias bits (profile- or first-encounter-set). Visit every
    // site once in its dominant direction first (a warm/profiled
    // start), then run an aliasing-heavy stream: opposing-bias
    // sites crammed onto a small counter table. gshare's counters
    // fight; agree's counters all pull toward "agree".
    Rng rng(9);
    Trace trace("mixed");
    for (u64 site = 0; site < 512; ++site) {
        const Addr pc = 0x1000 + 4 * site;
        trace.appendConditional(pc, (pc >> 2) % 2 == 0);
    }
    for (int i = 0; i < 30000; ++i) {
        const Addr pc = 0x1000 + 4 * rng.uniformInt(512);
        const bool dominant = (pc >> 2) % 2 == 0;
        trace.appendConditional(pc,
                                rng.chance(dominant ? 0.97 : 0.03));
    }
    AgreePredictor agree(8, 6, 10);
    GSharePredictor gshare(8, 6);
    const double agree_rate =
        simulate(agree, trace).mispredictRatio();
    const double gshare_rate =
        simulate(gshare, trace).mispredictRatio();
    EXPECT_LT(agree_rate, gshare_rate);
}

} // namespace
} // namespace bpred
