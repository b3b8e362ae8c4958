/**
 * @file
 * Unit tests for the skewed update policies, including the
 * PartialLazy write-reduction policy (§7 extension).
 */

#include <gtest/gtest.h>

#include "core/skewed_predictor.hh"
#include "sim/driver.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

SkewedPredictor::Config
policyConfig(UpdatePolicy policy)
{
    SkewedPredictor::Config config;
    config.numBanks = 3;
    config.bankIndexBits = 8;
    config.historyBits = 6;
    config.updatePolicy = policy;
    return config;
}

/** Deterministic pseudo-random branch stream for policy tests. */
template <typename Fn>
void
driveStream(Fn &&step, int count = 20000)
{
    u64 lcg = 42;
    for (int i = 0; i < count; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr pc = 4 * ((lcg >> 33) % 600);
        const bool outcome = ((lcg >> 13) & 7) != 0; // ~87% taken
        step(pc, outcome);
    }
}

TEST(UpdatePolicies, LazyPredictsExactlyLikePartial)
{
    // Skipping a saturated-counter write never changes the value
    // written, so the two policies must be behaviourally identical.
    SkewedPredictor partial(policyConfig(UpdatePolicy::Partial));
    SkewedPredictor lazy(policyConfig(UpdatePolicy::PartialLazy));
    driveStream([&](Addr pc, bool outcome) {
        ASSERT_EQ(partial.predict(pc), lazy.predict(pc));
        partial.predictAndUpdate(pc, outcome);
        lazy.predictAndUpdate(pc, outcome);
    });
}

TEST(UpdatePolicies, LazyWritesStrictlyFewer)
{
    SkewedPredictor partial(policyConfig(UpdatePolicy::Partial));
    SkewedPredictor lazy(policyConfig(UpdatePolicy::PartialLazy));
    driveStream([&](Addr pc, bool outcome) {
        partial.predictAndUpdate(pc, outcome);
        lazy.predictAndUpdate(pc, outcome);
    });
    EXPECT_LT(lazy.bankWrites(), partial.bankWrites());
    // On a strongly biased stream most updates strengthen an
    // already-saturated counter: expect a large reduction.
    EXPECT_LT(lazy.bankWrites() * 2, partial.bankWrites());
}

TEST(UpdatePolicies, TotalWritesEveryBankEveryUpdate)
{
    SkewedPredictor total(policyConfig(UpdatePolicy::Total));
    const int branches = 5000;
    driveStream(
        [&](Addr pc, bool outcome) { total.predictAndUpdate(pc, outcome); },
        branches);
    EXPECT_EQ(total.bankWrites(), u64(branches) * 3);
}

TEST(UpdatePolicies, PartialWritesAtMostTotal)
{
    SkewedPredictor partial(policyConfig(UpdatePolicy::Partial));
    const int branches = 5000;
    driveStream(
        [&](Addr pc, bool outcome) { partial.predictAndUpdate(pc, outcome); },
        branches);
    EXPECT_LE(partial.bankWrites(), u64(branches) * 3);
    EXPECT_GT(partial.bankWrites(), 0u);
}

TEST(UpdatePolicies, ResetClearsWriteCounter)
{
    SkewedPredictor predictor(policyConfig(UpdatePolicy::Partial));
    predictor.predictAndUpdate(0x100, true);
    EXPECT_GT(predictor.bankWrites(), 0u);
    predictor.reset();
    EXPECT_EQ(predictor.bankWrites(), 0u);
}

TEST(UpdatePolicies, NamesDistinguishPolicies)
{
    EXPECT_EQ(
        SkewedPredictor(policyConfig(UpdatePolicy::Total)).name(),
        "gskewed-3x256-h6-total");
    EXPECT_EQ(
        SkewedPredictor(policyConfig(UpdatePolicy::Partial)).name(),
        "gskewed-3x256-h6-partial");
    EXPECT_EQ(SkewedPredictor(policyConfig(UpdatePolicy::PartialLazy))
                  .name(),
              "gskewed-3x256-h6-partial-lazy");
}

TEST(UpdatePolicies, LazyMatchesPartialOnRealWorkload)
{
    const Trace trace = makeIbsTrace("groff", 0.01);
    SkewedPredictor partial(policyConfig(UpdatePolicy::Partial));
    SkewedPredictor lazy(policyConfig(UpdatePolicy::PartialLazy));
    const SimResult a = simulate(partial, trace);
    const SimResult b = simulate(lazy, trace);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_LT(lazy.bankWrites(), partial.bankWrites());
}

} // namespace
} // namespace bpred
