/**
 * @file
 * A fully-associative table with LRU replacement.
 *
 * Probing it with (address, history) identities measures
 * compulsory + capacity aliasing (§3.2): a fully-associative table
 * has no conflicts by construction, and LRU is the reference
 * hardware-realizable replacement policy the paper uses.
 *
 * Layout: every entry is a node in one vector, and the nodes form a
 * doubly-linked recency list through u32 node ids. Node 0 is the
 * list's anchor (its next is the MRU entry, its prev the LRU one),
 * so id 0 also marks an empty slot of the key index. The index is a
 * power-of-two array of node ids, probed linearly from the HIGH bits
 * of a multiplicative hash (see SiteTable for why the high bits) and
 * kept at most a quarter full; a removed key is taken out by
 * backward-shift deletion, so no tombstones build up under steady
 * eviction.
 *
 * Nodes and index grow on demand, never beyond the capacity:
 * memory follows the distinct keys seen, not the capacity a spec
 * allows. An eviction reuses the LRU node in place.
 *
 * The snapshot lists entries MRU to LRU, whatever node ids they
 * occupy, so it depends only on the reference sequence.
 */

#pragma once

#include <iosfwd>
#include <vector>

#include "support/stats.hh"
#include "support/types.hh"

namespace bpred
{

/**
 * Fully-associative LRU table mapping 64-bit identities to a small
 * payload (a saturating-counter value when used as a predictor, or
 * nothing meaningful when used purely as an aliasing meter).
 */
class FullyAssociativeLruTable
{
  public:
    /**
     * @param capacity Maximum number of resident entries.
     * @throws FatalError when @p capacity is 0 or exceeds what a
     *         u32 node id can address.
     */
    explicit FullyAssociativeLruTable(u64 capacity);

    /**
     * Look up @p key without changing table state.
     *
     * @return Pointer to the payload, or nullptr on miss.
     */
    const u8 *peek(u64 key) const;

    /**
     * Reference @p key: on a hit, move it to MRU position and return
     * a pointer to its payload, valid until the next access(). On a
     * miss, insert it (evicting the LRU entry if the table is full)
     * with payload @p initial and return nullptr. The miss/hit is
     * recorded in missStat().
     */
    u8 *access(u64 key, u8 initial = 0);

    /** Update the payload of a resident key (asserts residency). */
    void setPayload(u64 key, u8 payload);

    /** Maximum entries. */
    u64 capacity() const { return capacity_; }

    /** Current resident entries. */
    u64 size() const { return nodes.size() - 1; }

    /** Miss ratio statistics over all access() calls. */
    const RatioStat &missStat() const { return misses; }

    /** Drop all entries and statistics. */
    void reset();

    /**
     * Serialize capacity, the resident entries in MRU-to-LRU order,
     * and the miss statistics. The recency order is part of the
     * observable state (it decides future victims), so the byte
     * stream is canonical: two tables that saw the same reference
     * sequence serialize identically.
     */
    void saveState(std::ostream &os) const;

    /**
     * Restore a saveState() stream into this table. The stream is
     * checked in full before this table changes.
     *
     * @throws FatalError on a capacity mismatch, an entry count
     *         over capacity, a duplicate key, inconsistent miss
     *         tallies, or truncation.
     */
    void loadState(std::istream &is);

  private:
    struct Node
    {
        u64 key = 0;
        u32 prev = 0;
        u32 next = 0;
        u8 payload = 0;
    };

    /** Id of the node holding @p key, or 0. */
    u32 find(u64 key) const;

    /** Put node @p id in the first free slot of its probe run. */
    void indexInsert(u32 id);

    /** Take node @p id out of the index by backward shift. */
    void indexErase(u32 id);

    /** A new unlinked node, indexed; the index doubles as needed. */
    u32 addNode(u64 key, u8 payload);

    /** Link unlinked node @p id into the recency list after @p at. */
    void linkAfter(u32 at, u32 id);

    /** Take node @p id out of the recency list. */
    void unlink(u32 id);

    /** nodes[0] anchors the recency list; entries are 1..size(). */
    std::vector<Node> nodes;
    /** Node ids by key hash; 0 is an empty slot. */
    std::vector<u32> index;
    /** 64 - log2(index.size()), for hashSlot(). */
    unsigned shift;
    RatioStat misses;
    u64 capacity_;
};

} // namespace bpred
