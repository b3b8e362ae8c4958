#include "support/topk.hh"

#include <algorithm>

#include "support/logging.hh"

namespace bpred
{

TopKCounter::TopKCounter(std::size_t capacity) : capacity_(capacity)
{
    if (capacity == 0) {
        fatal("TopKCounter: capacity must be positive");
    }
    // Eager for the usual handful of slots; a huge capacity grows
    // on demand instead of costing its full table up front.
    slots.reserve(std::min<std::size_t>(capacity, 1024));
}

void
TopKCounter::add(u64 key, u64 weight)
{
    total += weight;
    auto it = slots.find(key);
    if (it != slots.end()) {
        it->second.count += weight;
        return;
    }
    if (slots.size() < capacity_) {
        slots.emplace(key, Slot{weight, 0});
        return;
    }
    // Space-saving eviction: the new key replaces the smallest
    // slot and inherits its count as an overcount bound.
    auto victim = slots.begin();
    for (auto candidate = slots.begin(); candidate != slots.end();
         ++candidate) {
        if (candidate->second.count < victim->second.count) {
            victim = candidate;
        }
    }
    const u64 floor = victim->second.count;
    slots.erase(victim);
    slots.emplace(key, Slot{floor + weight, floor});
}

std::vector<TopKCounter::Item>
TopKCounter::items() const
{
    std::vector<Item> result;
    result.reserve(slots.size());
    for (const auto &[key, slot] : slots) {
        result.push_back({key, slot.count, slot.overcount});
    }
    std::sort(result.begin(), result.end(),
              [](const Item &a, const Item &b) {
                  return a.count != b.count ? a.count > b.count
                                            : a.key < b.key;
              });
    return result;
}

void
TopKCounter::reset()
{
    slots.clear();
    total = 0;
}

} // namespace bpred
