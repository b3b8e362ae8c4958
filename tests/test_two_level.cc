/**
 * @file
 * Unit tests for the PAg local two-level predictor.
 */

#include <gtest/gtest.h>

#include "predictors/local_two_level.hh"
#include "support/logging.hh"

namespace bpred
{
namespace
{

TEST(LocalTwoLevel, LearnsShortLocalPattern)
{
    // Period-3 pattern T T N: local history disambiguates perfectly.
    LocalTwoLevelPredictor predictor(8, 8);
    const Addr pc = 0x40;
    const bool pattern[3] = {true, true, false};

    int wrong = 0;
    for (int i = 0; i < 600; ++i) {
        const bool outcome = pattern[i % 3];
        if (i >= 300) {
            wrong += predictor.predict(pc) != outcome;
        } else {
            predictor.predict(pc);
        }
        predictor.predictAndUpdate(pc, outcome);
    }
    EXPECT_EQ(wrong, 0);
}

TEST(LocalTwoLevel, IndependentOfOtherBranches)
{
    LocalTwoLevelPredictor predictor(8, 6);
    const Addr a = 0x100;
    const Addr noise = 0x104;

    // Train `a` strongly taken while peppering the stream with a
    // different branch; PAg's first level keeps their local
    // histories separate (distinct BHT entries).
    for (int i = 0; i < 50; ++i) {
        predictor.predictAndUpdate(a, true);
        predictor.predictAndUpdate(noise, i % 2 == 0);
    }
    EXPECT_TRUE(predictor.predict(a));
}

TEST(LocalTwoLevel, StorageBitsAccountsBothLevels)
{
    LocalTwoLevelPredictor predictor(10, 8, 2);
    // BHT: 2^10 entries x 8 bits; PHT: 2^8 entries x 2 bits.
    EXPECT_EQ(predictor.storageBits(), 1024u * 8 + 256u * 2);
}

TEST(LocalTwoLevel, RejectsLocalHistoryOutOfRange)
{
    // Local histories live in u16 entries; the bound holds in every
    // build type, not only where assert() is compiled in.
    EXPECT_THROW(LocalTwoLevelPredictor(8, 0), FatalError);
    EXPECT_THROW(LocalTwoLevelPredictor(8, 17), FatalError);
}

TEST(LocalTwoLevel, Name)
{
    LocalTwoLevelPredictor predictor(10, 8);
    EXPECT_EQ(predictor.name(), "pag-1Kx8");
}

TEST(LocalTwoLevel, ResetForgets)
{
    LocalTwoLevelPredictor predictor(6, 4);
    for (int i = 0; i < 20; ++i) {
        predictor.predictAndUpdate(0x10, true);
    }
    EXPECT_TRUE(predictor.predict(0x10));
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x10));
}

TEST(LocalTwoLevel, BhtAliasingSharesHistory)
{
    LocalTwoLevelPredictor predictor(4, 8); // 16-entry BHT
    const Addr a = 0x100;
    const Addr b = a + (16 << 2); // same BHT entry
    for (int i = 0; i < 30; ++i) {
        predictor.predictAndUpdate(a, true);
    }
    // b inherits a's saturated local history and thus its pattern
    // table entry.
    EXPECT_EQ(predictor.predict(b), predictor.predict(a));
}

} // namespace
} // namespace bpred
