/**
 * @file
 * Unit tests for the flat per-PC site table.
 */

#include <gtest/gtest.h>

#include <map>

#include "support/rng.hh"
#include "support/site_table.hh"

namespace bpred
{
namespace
{

/** Every entry of @p table, ordered by PC. */
template <typename Value>
std::map<Addr, Value>
contents(const SiteTable<Value> &table)
{
    std::map<Addr, Value> entries;
    std::size_t visits = 0;
    table.forEach([&](Addr pc, const Value &value) {
        entries[pc] = value;
        ++visits;
    });
    // forEach visits each key exactly once.
    EXPECT_EQ(visits, entries.size());
    return entries;
}

TEST(SiteTable, StartsEmptyAndValueInitializes)
{
    SiteTable<u64> table;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table[0x400], 0u);
    EXPECT_EQ(table.size(), 1u);
    table[0x400] += 3;
    EXPECT_EQ(table[0x400], 3u);
    EXPECT_EQ(table.size(), 1u);
}

TEST(SiteTable, SentinelAndZeroKeysAreOrdinaryKeys)
{
    // ~0 marks empty slots internally and 0 is the default key
    // value; both must behave like any other PC.
    SiteTable<u64> table;
    table[~Addr(0)] = 7;
    table[0] = 5;
    EXPECT_EQ(table.size(), 2u);
    table[~Addr(0)] += 1;
    EXPECT_EQ(table.size(), 2u);
    const auto entries = contents(table);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries.at(0), 5u);
    EXPECT_EQ(entries.at(~Addr(0)), 8u);
}

TEST(SiteTable, GrowsAcrossDoublingsWithoutLosingEntries)
{
    // From 1024 slots to tens of thousands of keys: several
    // doublings, each rehashing every live entry. Aligned PCs
    // (shared low bits) plus random 64-bit ones, checked against
    // std::map after every insert batch.
    SiteTable<SiteTally> table;
    std::map<Addr, SiteTally> want;
    Rng rng(7);
    for (int i = 0; i < 60000; ++i) {
        const Addr pc = (i & 1) ? 0x10000 + 64 * rng.uniformInt(20000)
                                : rng.next();
        SiteTally &tally = table[pc];
        ++tally.branches;
        tally.mispredicts += i % 3 == 0 ? 1 : 0;
        SiteTally &reference = want[pc];
        ++reference.branches;
        reference.mispredicts += i % 3 == 0 ? 1 : 0;
        if (i % 10000 == 9999) {
            ASSERT_EQ(table.size(), want.size());
        }
    }
    table[~Addr(0)].branches = 1;
    want[~Addr(0)].branches = 1;

    const auto got = contents(table);
    ASSERT_EQ(table.size(), want.size());
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[pc, tally] : want) {
        const auto it = got.find(pc);
        ASSERT_NE(it, got.end()) << pc;
        EXPECT_EQ(it->second.branches, tally.branches) << pc;
        EXPECT_EQ(it->second.mispredicts, tally.mispredicts) << pc;
    }
}

} // namespace
} // namespace bpred
