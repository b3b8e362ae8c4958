/**
 * @file
 * A flat open-addressing table keyed by branch PC.
 *
 * The corpus path does per-site bookkeeping once per record (static
 * site flags) or once per resolved conditional (exact per-site
 * outcome counts). A node-based std::unordered_map pays an
 * allocation per new site and a pointer chase per lookup there;
 * this table keeps every key and value inline in one power-of-two
 * slot array, probes linearly from a multiplicative hash and doubles
 * before it is half full.
 *
 * The hash takes the HIGH bits of the product: branch PCs share
 * their low (alignment) bits, and the low bits of a product depend
 * only on the low bits of its factors, so masking them would pile
 * aligned PCs into a fraction of the slots.
 *
 * The all-ones PC marks an empty slot, so that key lives in a side
 * slot of its own; every PC, including 0 and ~0, is a valid key.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <vector>

#include "support/types.hh"

namespace bpred
{

/** Map from branch PC to a default-constructible @p Value. */
template <typename Value>
class SiteTable
{
  public:
    SiteTable() { resize(1024); }

    /** The entry for @p pc, value-initialized on first sight. */
    Value &
    operator[](Addr pc)
    {
        if (pc == emptyKey) [[unlikely]] {
            hasEmptyKey = true;
            return emptyKeyValue;
        }
        std::size_t at = home(pc);
        for (; slots[at].key != emptyKey; at = (at + 1) & mask) {
            if (slots[at].key == pc) {
                return slots[at].value;
            }
        }
        if (2 * (used + 1) > slots.size()) [[unlikely]] {
            resize(2 * slots.size());
            at = home(pc);
            while (slots[at].key != emptyKey) {
                at = (at + 1) & mask;
            }
        }
        ++used;
        slots[at].key = pc;
        return slots[at].value;
    }

    /** Number of distinct keys. */
    std::size_t size() const { return used + (hasEmptyKey ? 1 : 0); }

    /** Call @p visit(pc, value) once per key, in no set order. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Slot &slot : slots) {
            if (slot.key != emptyKey) {
                visit(slot.key, slot.value);
            }
        }
        if (hasEmptyKey) {
            visit(emptyKey, emptyKeyValue);
        }
    }

  private:
    static constexpr Addr emptyKey = ~Addr(0);

    struct Slot
    {
        Addr key = emptyKey;
        Value value{};
    };

    std::size_t
    home(Addr pc) const
    {
        return std::size_t((pc * 0x9e3779b97f4a7c15ull) >> shift);
    }

    /** Rehash into @p capacity slots (a power of two). */
    void
    resize(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots);
        mask = capacity - 1;
        shift = 64 - unsigned(std::countr_zero(capacity));
        for (const Slot &slot : old) {
            if (slot.key == emptyKey) {
                continue;
            }
            std::size_t at = home(slot.key);
            while (slots[at].key != emptyKey) {
                at = (at + 1) & mask;
            }
            slots[at] = slot;
        }
    }

    std::vector<Slot> slots;
    std::size_t mask = 0;
    unsigned shift = 64;
    std::size_t used = 0;
    bool hasEmptyKey = false;
    Value emptyKeyValue{};
};

/** Exact outcome counts for one conditional branch site. */
struct SiteTally
{
    u64 branches = 0;
    u64 mispredicts = 0;

    /** Count one resolved branch, mispredicted or not. */
    void
    add(bool mispredicted)
    {
        ++branches;
        mispredicts += mispredicted ? 1 : 0;
    }
};

/** Exact per-site outcome counts (see SimOptions::siteTallies). */
using SiteTallies = SiteTable<SiteTally>;

} // namespace bpred
