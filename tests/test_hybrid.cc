/**
 * @file
 * Unit tests for the McFarling combining predictor.
 */

#include <gtest/gtest.h>

#include <memory>

#include "predictors/bimodal.hh"
#include "predictors/gshare.hh"
#include "predictors/hybrid.hh"
#include "predictors/static_pred.hh"

namespace bpred
{
namespace
{

std::unique_ptr<HybridPredictor>
makeStandardHybrid()
{
    return std::make_unique<HybridPredictor>(
        std::make_unique<GSharePredictor>(10, 6),
        std::make_unique<BimodalPredictor>(10), 10);
}

TEST(Hybrid, ChoosesBetterComponentPerBranch)
{
    // Branch A alternates (gshare wins); branch B is strongly
    // biased and the alternating noise of A pollutes nothing for
    // bimodal. After training, the hybrid should predict both well.
    auto hybrid = makeStandardHybrid();
    const Addr a = 0x100;
    const Addr b = 0x200;

    bool a_outcome = false;
    int wrong = 0;
    for (int i = 0; i < 2000; ++i) {
        a_outcome = !a_outcome;
        const bool score = i >= 1000;

        wrong += score && hybrid->predict(a) != a_outcome;
        hybrid->predictAndUpdate(a, a_outcome);

        wrong += score && hybrid->predict(b) != true;
        hybrid->predictAndUpdate(b, true);
    }
    // 2000 scored predictions in total; near-perfect is expected.
    EXPECT_LT(wrong, 20);
}

TEST(Hybrid, BeatsWorseComponentAlone)
{
    // Static not-taken paired with bimodal on an always-taken
    // branch: the chooser must learn to trust bimodal.
    HybridPredictor hybrid(std::make_unique<StaticPredictor>(false),
                           std::make_unique<BimodalPredictor>(8), 8);
    const Addr pc = 0x40;
    for (int i = 0; i < 50; ++i) {
        hybrid.predict(pc);
        hybrid.predictAndUpdate(pc, true);
    }
    EXPECT_TRUE(hybrid.predict(pc));
}

TEST(Hybrid, StorageSumsComponentsAndChooser)
{
    auto hybrid = makeStandardHybrid();
    const u64 expected = (u64(1) << 10) * 2 // gshare
        + (u64(1) << 10) * 2                // bimodal
        + (u64(1) << 10) * 2;               // chooser
    EXPECT_EQ(hybrid->storageBits(), expected);
}

TEST(Hybrid, NameListsComponents)
{
    auto hybrid = makeStandardHybrid();
    EXPECT_EQ(hybrid->name(), "hybrid(gshare-1K-h6,bimodal-1K)");
}

TEST(Hybrid, ResetRestoresColdBehaviour)
{
    auto hybrid = makeStandardHybrid();
    for (int i = 0; i < 100; ++i) {
        hybrid->predictAndUpdate(0x10, true);
    }
    EXPECT_TRUE(hybrid->predict(0x10));
    hybrid->reset();
    EXPECT_FALSE(hybrid->predict(0x10));
}

TEST(Hybrid, ForwardsUnconditionalNotifications)
{
    // gshare inside the hybrid shifts history on unconditional
    // branches; this must not crash and must keep determinism.
    auto hybrid = makeStandardHybrid();
    for (int i = 0; i < 10; ++i) {
        hybrid->notifyUnconditional(0x500);
        hybrid->predictAndUpdate(0x100, true);
    }
    EXPECT_NO_THROW(hybrid->predict(0x100));
}

} // namespace
} // namespace bpred
