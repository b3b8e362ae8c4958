/**
 * @file
 * Unit tests for the fully-associative LRU table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aliasing/fa_lru_table.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/site_table.hh"

namespace bpred
{
namespace
{

/** The obvious LRU: a vector of (key, payload), MRU first. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(u64 capacity) : capacity(capacity) {}

    const u8 *
    peek(u64 key) const
    {
        const std::size_t at = position(key);
        return at == entries.size() ? nullptr : &entries[at].second;
    }

    u8 *
    access(u64 key, u8 initial)
    {
        ++total;
        const auto it = entries.begin() + position(key);
        if (it != entries.end()) {
            std::rotate(entries.begin(), it, it + 1);
            return &entries.front().second;
        }
        ++missCount;
        if (entries.size() == capacity) {
            entries.pop_back();
        }
        entries.insert(entries.begin(), {key, initial});
        return nullptr;
    }

    void
    setPayload(u64 key, u8 payload)
    {
        entries[position(key)].second = payload;
    }

    u64 size() const { return entries.size(); }
    u64 missCount = 0;
    u64 total = 0;

    /** FullyAssociativeLruTable::saveState()'s documented layout. */
    std::string
    snapshot() const
    {
        std::ostringstream os;
        putU64(os, capacity);
        putU64(os, entries.size());
        for (const auto &[key, payload] : entries) {
            putU64(os, key);
            putU8(os, payload);
        }
        putU64(os, missCount);
        putU64(os, total);
        return os.str();
    }

  private:
    /** Index of @p key in entries, or entries.size(). */
    std::size_t
    position(u64 key) const
    {
        std::size_t at = 0;
        while (at < entries.size() && entries[at].first != key) {
            ++at;
        }
        return at;
    }

    std::vector<std::pair<u64, u8>> entries;
    u64 capacity;
};

std::string
snapshotOf(const FullyAssociativeLruTable &table)
{
    std::ostringstream os;
    table.saveState(os);
    return os.str();
}

/** The inverse of @p odd mod 2^64 (Newton's iteration). */
constexpr u64
inverseOf(u64 odd)
{
    u64 inverse = odd; // correct to 3 bits; each step doubles that
    for (int i = 0; i < 5; ++i) {
        inverse *= 2 - odd * inverse;
    }
    return inverse;
}

static_assert(hashMultiplier * inverseOf(hashMultiplier) == 1);

/**
 * Keys that pile into the first and the last index slot at every
 * index size (their hash products share all-zero or all-one high
 * bits), so probe runs wrap around the end of the index and
 * backward-shift deletion has to move keys across it. Plus 0 and
 * the all-ones key.
 */
std::vector<u64>
collidingKeys(u64 count)
{
    std::vector<u64> keys = {0, ~u64(0)};
    for (u64 i = 1; keys.size() < count; ++i) {
        keys.push_back(i * inverseOf(hashMultiplier));
        keys.push_back((~u64(0) - i) * inverseOf(hashMultiplier));
    }
    keys.resize(count);
    return keys;
}

/**
 * Drive the table and the reference with the same stream over
 * @p keys and compare every observable after each step. Halfway, a
 * second table restored from the first one's snapshot joins in.
 */
void
checkAgainstReference(u64 capacity, const std::vector<u64> &keys,
                      u64 seed)
{
    SCOPED_TRACE("capacity " + std::to_string(capacity) + ", " +
                 std::to_string(keys.size()) + " keys, seed " +
                 std::to_string(seed));
    const int steps = 6000;
    std::vector<FullyAssociativeLruTable> tables;
    tables.emplace_back(capacity);
    ReferenceLru reference(capacity);
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const u64 key = keys[rng.uniformInt(keys.size())];
        const u8 initial = u8(rng.uniformInt(4));
        const u64 other = keys[rng.uniformInt(keys.size())];
        const u8 payload = u8(rng.uniformInt(4));

        // On a hit, bump the payload through the returned pointer;
        // then overwrite another key's payload if it is resident.
        u8 *hit = reference.access(key, initial);
        const int hit_payload = hit == nullptr ? -1 : *hit;
        if (hit != nullptr) {
            *hit = u8(*hit + 1);
        }
        const u8 *resident = reference.peek(other);
        const int other_payload = resident == nullptr ? -1 : *resident;
        if (resident != nullptr) {
            reference.setPayload(other, payload);
        }

        for (FullyAssociativeLruTable &table : tables) {
            u8 *got = table.access(key, initial);
            ASSERT_EQ(got == nullptr ? -1 : *got, hit_payload);
            if (got != nullptr) {
                *got = u8(*got + 1);
            }
            const u8 *peeked = table.peek(other);
            ASSERT_EQ(peeked == nullptr ? -1 : *peeked, other_payload);
            if (peeked != nullptr) {
                table.setPayload(other, payload);
            }
            ASSERT_EQ(table.size(), reference.size());
            ASSERT_EQ(table.missStat().events(), reference.missCount);
            ASSERT_EQ(table.missStat().total(), reference.total);
            if (step % 250 == 0) {
                ASSERT_EQ(snapshotOf(table), reference.snapshot());
            }
        }
        if (step == steps / 2) {
            std::istringstream is(snapshotOf(tables.front()));
            tables.emplace_back(capacity);
            tables.back().loadState(is);
        }
    }
    for (const FullyAssociativeLruTable &table : tables) {
        EXPECT_EQ(snapshotOf(table), reference.snapshot());
    }
}

TEST(FaLru, MatchesReferenceLru)
{
    u64 seed = 1;
    for (const u64 capacity : {1u, 2u, 3u, 64u, 1000u}) {
        for (const u64 universe : {capacity / 2 + 1, 4 * capacity + 3}) {
            std::vector<u64> keys;
            Rng rng(seed);
            for (u64 i = 0; i < universe; ++i) {
                keys.push_back(rng.next());
            }
            checkAgainstReference(capacity, keys, seed++);
            checkAgainstReference(capacity, collidingKeys(universe),
                                  seed++);
        }
    }
}

TEST(FaLru, ColdMiss)
{
    FullyAssociativeLruTable table(4);
    EXPECT_EQ(table.access(1), nullptr);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.missStat().events(), 1u);
}

TEST(FaLru, HitReturnsPayload)
{
    FullyAssociativeLruTable table(4);
    table.access(1, 9);
    u8 *payload = table.access(1);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, 9);
}

TEST(FaLru, PayloadMutableThroughPointer)
{
    FullyAssociativeLruTable table(4);
    table.access(1, 0);
    u8 *payload = table.access(1);
    ASSERT_NE(payload, nullptr);
    *payload = 7;
    EXPECT_EQ(*table.peek(1), 7);
}

TEST(FaLru, EvictsLeastRecentlyUsed)
{
    FullyAssociativeLruTable table(3);
    table.access(1);
    table.access(2);
    table.access(3);
    table.access(1);     // 1 becomes MRU; LRU is now 2
    table.access(4);     // evicts 2
    EXPECT_NE(table.peek(1), nullptr);
    EXPECT_EQ(table.peek(2), nullptr);
    EXPECT_NE(table.peek(3), nullptr);
    EXPECT_NE(table.peek(4), nullptr);
    EXPECT_EQ(table.size(), 3u);
}

TEST(FaLru, PeekDoesNotTouch)
{
    FullyAssociativeLruTable table(2);
    table.access(1);
    table.access(2);
    table.peek(1);       // must NOT refresh 1
    table.access(3);     // evicts 1 (the true LRU)
    EXPECT_EQ(table.peek(1), nullptr);
    EXPECT_NE(table.peek(2), nullptr);
}

TEST(FaLru, SetPayload)
{
    FullyAssociativeLruTable table(2);
    table.access(5, 1);
    table.setPayload(5, 3);
    EXPECT_EQ(*table.peek(5), 3);
}

TEST(FaLru, CapacityOne)
{
    FullyAssociativeLruTable table(1);
    table.access(1);
    table.access(2);
    EXPECT_EQ(table.peek(1), nullptr);
    EXPECT_NE(table.peek(2), nullptr);
}

TEST(FaLru, MissStatTracksRatio)
{
    FullyAssociativeLruTable table(2);
    table.access(1); // miss
    table.access(1); // hit
    table.access(2); // miss
    table.access(1); // hit
    EXPECT_DOUBLE_EQ(table.missStat().ratio(), 0.5);
}

TEST(FaLru, Reset)
{
    FullyAssociativeLruTable table(2);
    table.access(1);
    table.reset();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.missStat().total(), 0u);
    EXPECT_EQ(table.peek(1), nullptr);
}

TEST(FaLru, StackDistanceSemantics)
{
    // A key is retained iff fewer than `capacity` distinct keys
    // intervene — the property that makes this table measure
    // capacity aliasing.
    FullyAssociativeLruTable table(3);
    table.access(100);
    table.access(1);
    table.access(2);
    EXPECT_NE(table.peek(100), nullptr); // distance 2 < 3: resident
    table.access(3);
    EXPECT_EQ(table.peek(100), nullptr); // distance 3 >= 3: evicted
}

TEST(FaLru, LongSequenceConsistency)
{
    // Cross-check size bound and hit behaviour over a pseudo-random
    // stream.
    FullyAssociativeLruTable table(16);
    u64 lcg = 9;
    for (int i = 0; i < 10000; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1;
        table.access((lcg >> 40) % 64);
        ASSERT_LE(table.size(), 16u);
    }
    EXPECT_GT(table.missStat().events(), 0u);
    EXPECT_LT(table.missStat().ratio(), 1.0);
}

TEST(FaLru, RejectsBadCapacity)
{
    EXPECT_THROW(FullyAssociativeLruTable(0), FatalError);
    EXPECT_THROW(FullyAssociativeLruTable(u64(1) << 32), FatalError);
}

/** A snapshot stream with the given fields. */
std::string
handmadeSnapshot(u64 capacity, u64 count,
                 const std::vector<std::pair<u64, u8>> &entries,
                 u64 miss_events, u64 miss_total)
{
    std::ostringstream os;
    putU64(os, capacity);
    putU64(os, count);
    for (const auto &[key, payload] : entries) {
        putU64(os, key);
        putU8(os, payload);
    }
    putU64(os, miss_events);
    putU64(os, miss_total);
    return os.str();
}

TEST(FaLru, RejectedLoadLeavesTableUntouched)
{
    FullyAssociativeLruTable table(3);
    table.access(7, 1);
    table.access(8, 2);
    table.access(7);
    const std::string before = snapshotOf(table);

    const std::string good =
        handmadeSnapshot(3, 2, {{1, 0}, {2, 1}}, 2, 5);
    const std::vector<std::string> bad = {
        handmadeSnapshot(4, 2, {{1, 0}, {2, 1}}, 2, 5), // capacity
        handmadeSnapshot(3, 4, {{1, 0}, {2, 1}, {3, 0}, {4, 0}}, 4, 4),
        handmadeSnapshot(3, 2, {{1, 0}, {1, 1}}, 2, 5), // duplicate
        handmadeSnapshot(3, 2, {{1, 0}, {2, 1}}, 6, 5), // tallies
        good.substr(0, good.size() - 1),                // truncated
        good.substr(0, 16 + 9 + 4),                     // mid-entry
    };
    for (const std::string &blob : bad) {
        std::istringstream is(blob);
        EXPECT_THROW(table.loadState(is), FatalError);
        EXPECT_EQ(snapshotOf(table), before);
    }
    std::istringstream is(good);
    table.loadState(is);
    EXPECT_EQ(snapshotOf(table), good);
}

} // namespace
} // namespace bpred
