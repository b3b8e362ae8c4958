/**
 * @file
 * Tagged shadow tables for measuring aliasing.
 *
 * Following §2 of the paper: "instead of storing 1-bit or 2-bit
 * predictors in the structure, we store the identity of the last
 * (address, history) pair that accessed the entry. Aliasing occurs
 * when the indexing pair is different from the stored pair."
 */

#pragma once

#include <cassert>
#include <vector>

#include "support/stats.hh"
#include "support/types.hh"

namespace bpred
{

/**
 * A direct-mapped tagged table: each entry remembers the identity
 * (the full information vector) of the last reference that indexed
 * it. Probing with a different identity is an aliasing occurrence —
 * the analogue of a cache miss with a one-datum line.
 */
class TaggedDirectMappedTable
{
  public:
    /** What a tagged-table reference found. */
    enum class Outcome : u8
    {
        Hit,      ///< Entry held the same identity.
        Cold,     ///< Entry was empty (compulsory).
        Conflict, ///< Entry held a different identity.
    };

    /** @param index_bits log2 of the number of entries. */
    explicit TaggedDirectMappedTable(unsigned index_bits);

    /**
     * Reference entry @p index with identity @p key; the entry then
     * holds @p key.
     *
     * @return true when this reference aliased (miss): the entry was
     *         empty or held a different identity.
     */
    bool
    access(u64 index, u64 key)
    {
        return probe(index, key) != Outcome::Hit;
    }

    /**
     * As access(), but distinguishing a cold (first-touch) entry
     * from a genuine identity conflict.
     */
    Outcome
    probe(u64 index, u64 key)
    {
        assert(index < tags.size());
        Outcome outcome = Outcome::Hit;
        if (!valid[index]) {
            outcome = Outcome::Cold;
        } else if (tags[index] != key) {
            outcome = Outcome::Conflict;
        }
        tags[index] = key;
        valid[index] = true;
        aliasStat.sample(outcome != Outcome::Hit);
        return outcome;
    }

    /** Number of entries. */
    u64 size() const { return u64(1) << indexBits; }

    /** Aliasing occurrences / references so far. */
    const RatioStat &aliasing() const { return aliasStat; }

    /** Clear all entries and statistics. */
    void reset();

  private:
    std::vector<u64> tags;
    std::vector<bool> valid;
    RatioStat aliasStat;
    unsigned indexBits;
};

} // namespace bpred

