#include "aliasing/fa_lru_table.hh"

#include <cassert>
#include <limits>

#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/site_table.hh"

namespace bpred
{

namespace
{

/** log2 of the index slots of an empty table. */
constexpr unsigned minIndexBits = 4;

} // namespace

FullyAssociativeLruTable::FullyAssociativeLruTable(u64 capacity)
    : nodes(1), index(std::size_t(1) << minIndexBits),
      shift(64 - minIndexBits), capacity_(capacity)
{
    if (capacity == 0) {
        fatal("fa-lru table: capacity must be positive");
    }
    if (capacity > std::numeric_limits<u32>::max()) {
        fatal("fa-lru table: capacity " + std::to_string(capacity) +
              " exceeds the u32 node ids");
    }
}

u32
FullyAssociativeLruTable::find(u64 key) const
{
    const std::size_t mask = index.size() - 1;
    for (std::size_t at = hashSlot(key, shift);; at = (at + 1) & mask) {
        const u32 id = index[at];
        if (id == 0 || nodes[id].key == key) {
            return id;
        }
    }
}

void
FullyAssociativeLruTable::indexInsert(u32 id)
{
    const std::size_t mask = index.size() - 1;
    std::size_t at = hashSlot(nodes[id].key, shift);
    while (index[at] != 0) {
        at = (at + 1) & mask;
    }
    index[at] = id;
}

void
FullyAssociativeLruTable::indexErase(u32 id)
{
    const std::size_t mask = index.size() - 1;
    std::size_t hole = hashSlot(nodes[id].key, shift);
    while (index[hole] != id) {
        hole = (hole + 1) & mask;
    }
    // Pull back every later key of the run whose probe would
    // otherwise cross the hole.
    for (std::size_t at = (hole + 1) & mask; index[at] != 0;
         at = (at + 1) & mask) {
        const std::size_t from = hashSlot(nodes[index[at]].key, shift);
        if (((at - from) & mask) >= ((at - hole) & mask)) {
            index[hole] = index[at];
            hole = at;
        }
    }
    index[hole] = 0;
}

u32
FullyAssociativeLruTable::addNode(u64 key, u8 payload)
{
    const u32 id = u32(nodes.size());
    nodes.push_back({key, 0, 0, payload});
    // id is also the entry count. Keep the index at most a quarter
    // full: at half load, the probe runs and the backward shifts of
    // every eviction cost a third of access() throughput at 1K-4K
    // entries.
    if (4 * std::size_t(id) > index.size()) {
        index.assign(2 * index.size(), 0);
        --shift;
        for (u32 other = 1; other < id; ++other) {
            indexInsert(other);
        }
    }
    indexInsert(id);
    return id;
}

void
FullyAssociativeLruTable::linkAfter(u32 at, u32 id)
{
    const u32 next = nodes[at].next;
    nodes[id].prev = at;
    nodes[id].next = next;
    nodes[next].prev = id;
    nodes[at].next = id;
}

void
FullyAssociativeLruTable::unlink(u32 id)
{
    const Node &node = nodes[id];
    nodes[node.prev].next = node.next;
    nodes[node.next].prev = node.prev;
}

const u8 *
FullyAssociativeLruTable::peek(u64 key) const
{
    const u32 id = find(key);
    return id == 0 ? nullptr : &nodes[id].payload;
}

u8 *
FullyAssociativeLruTable::access(u64 key, u8 initial)
{
    u32 id = find(key);
    misses.sample(id == 0);
    if (id != 0) {
        unlink(id);
        linkAfter(0, id);
        return &nodes[id].payload;
    }

    if (size() < capacity_) {
        id = addNode(key, initial);
    } else {
        // Reuse the LRU node for the new key.
        id = nodes[0].prev;
        indexErase(id);
        unlink(id);
        nodes[id].key = key;
        nodes[id].payload = initial;
        indexInsert(id);
    }
    linkAfter(0, id);
    return nullptr;
}

void
FullyAssociativeLruTable::setPayload(u64 key, u8 payload)
{
    const u32 id = find(key);
    assert(id != 0);
    nodes[id].payload = payload;
}

void
FullyAssociativeLruTable::reset()
{
    *this = FullyAssociativeLruTable(capacity_);
}

void
FullyAssociativeLruTable::saveState(std::ostream &os) const
{
    putU64(os, capacity_);
    putU64(os, size());
    for (u32 id = nodes[0].next; id != 0; id = nodes[id].next) {
        putU64(os, nodes[id].key);
        putU8(os, nodes[id].payload);
    }
    putU64(os, misses.events());
    putU64(os, misses.total());
}

void
FullyAssociativeLruTable::loadState(std::istream &is)
{
    const u64 stored_capacity = getU64(is);
    if (stored_capacity != capacity_) {
        fatal("fa-lru snapshot: capacity mismatch (stored " +
              std::to_string(stored_capacity) + ", table has " +
              std::to_string(capacity_) + ")");
    }
    const u64 count = getU64(is);
    if (count > capacity_) {
        fatal("fa-lru snapshot: entry count exceeds capacity");
    }
    FullyAssociativeLruTable restored(capacity_);
    for (u64 i = 0; i < count; ++i) {
        const u64 key = getU64(is);
        const u8 payload = getU8(is);
        if (restored.find(key) != 0) {
            fatal("fa-lru snapshot: duplicate key");
        }
        // MRU first in the stream, so each entry goes to the LRU end.
        const u32 id = restored.addNode(key, payload);
        restored.linkAfter(restored.nodes[0].prev, id);
    }
    const u64 miss_events = getU64(is);
    const u64 miss_total = getU64(is);
    if (miss_events > miss_total) {
        fatal("fa-lru snapshot: inconsistent miss tallies");
    }
    restored.misses.restore(miss_events, miss_total);
    *this = std::move(restored);
}

} // namespace bpred
