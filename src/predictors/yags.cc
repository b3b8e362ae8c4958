#include "predictors/yags.hh"

#include <utility>

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

/** YAGS state lifted into locals (see block_kernel.hh). */
struct YagsPredictor::State
{
    CacheEntry *takenCache;    // consulted on NT bias
    CacheEntry *notTakenCache; // consulted on T bias
    SatCounterArray::View choiceTable;
    GlobalHistory history;
    unsigned cacheIndexBits;
    unsigned historyBits;
    unsigned choiceIndexBits;
    unsigned tagBits;
    GlobalHistory *historyOut;

    /** The bias, and the cache entry consulted under it. */
    std::pair<bool, CacheEntry *>
    lookup(Addr pc) const
    {
        const bool bias =
            choiceTable.predictTaken(addressIndex(pc, choiceIndexBits));
        // A taken bias consults the "not-taken cache" (the
        // exceptions to taken), and vice versa.
        CacheEntry *cache = bias ? notTakenCache : takenCache;
        return {bias, &cache[gshareIndex(pc, history.raw(), historyBits,
                                         cacheIndexBits)]};
    }

    u16
    tagOf(Addr pc) const
    {
        return static_cast<u16>((pc >> 2) & mask(tagBits));
    }

    bool
    predict(Addr pc) const
    {
        const auto [bias, entry] = lookup(pc);
        return entry->valid && entry->tag == tagOf(pc)
            ? entry->counter >= 2
            : bias;
    }

    // Forced inline: GCC otherwise calls it once per branch from the
    // block kernel, spilling the lifted state.
    template <typename Sink>
    [[gnu::always_inline]] bool
    step(Addr pc, bool taken, Sink &)
    {
        const auto [bias, entry] = lookup(pc);
        const bool tag_hit = entry->valid && entry->tag == tagOf(pc);
        const bool prediction = tag_hit ? entry->counter >= 2 : bias;

        if (tag_hit) {
            // Train the exception entry.
            if (taken) {
                if (entry->counter < 3) {
                    ++entry->counter;
                }
            } else {
                if (entry->counter > 0) {
                    --entry->counter;
                }
            }
        } else if (taken != bias) {
            // A new exception: allocate (replacing whatever was
            // there).
            entry->valid = true;
            entry->tag = tagOf(pc);
            entry->counter = taken ? 2 : 1; // weak toward the outcome
        }

        // Choice table trains like bi-mode: skip the update when the
        // bias was wrong but the exception entry, as consulted before
        // it trained, predicted correctly. (A miss predicts the
        // bias, so a right prediction against a wrong bias implies a
        // tag hit.)
        if (!(bias != taken && prediction == taken)) {
            choiceTable.update(addressIndex(pc, choiceIndexBits), taken);
        }
        history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }
    void commit() { *historyOut = history; }
};

YagsPredictor::YagsPredictor(unsigned cache_index_bits,
                             unsigned history_bits,
                             unsigned choice_index_bits,
                             unsigned tag_bits)
    : takenCache(u64(1) << cache_index_bits),
      notTakenCache(u64(1) << cache_index_bits),
      choiceTable(u64(1) << choice_index_bits, 2,
                  2 /* weakly taken */),
      cacheIndexBits(cache_index_bits),
      historyBits(history_bits),
      choiceIndexBits(choice_index_bits),
      tagBits(tag_bits)
{
}

YagsPredictor::State
YagsPredictor::state()
{
    return {takenCache.data(), notTakenCache.data(), choiceTable.view(),
            history,           cacheIndexBits,       historyBits,
            choiceIndexBits,   tagBits,              &history};
}

std::string
YagsPredictor::name() const
{
    return "yags-2x" + formatEntries(takenCache.size()) + "+" +
        formatEntries(choiceTable.size()) + "-h" +
        std::to_string(historyBits);
}

u64
YagsPredictor::storageBits() const
{
    // Each cache entry: 2-bit counter + tag + valid bit.
    const u64 entry_bits = 2 + tagBits + 1;
    return (takenCache.size() + notTakenCache.size()) * entry_bits +
        choiceTable.storageBits();
}

void
YagsPredictor::reset()
{
    std::fill(takenCache.begin(), takenCache.end(), CacheEntry{});
    std::fill(notTakenCache.begin(), notTakenCache.end(),
              CacheEntry{});
    choiceTable.reset(2);
    history.reset();
}

void
YagsPredictor::saveState(std::ostream &os) const
{
    for (const auto *cache : {&takenCache, &notTakenCache}) {
        putU64(os, cache->size());
        for (const CacheEntry &entry : *cache) {
            putU16(os, entry.tag);
            putU8(os, entry.counter);
            putU8(os, entry.valid ? 1 : 0);
        }
    }
    choiceTable.saveState(os);
    putU64(os, history.raw());
}

void
YagsPredictor::loadState(std::istream &is)
{
    for (auto *cache : {&takenCache, &notTakenCache}) {
        const u64 count = getU64(is);
        if (count != cache->size()) {
            fatal("yags snapshot: cache size mismatch (stored " +
                  std::to_string(count) + ", predictor has " +
                  std::to_string(cache->size()) + ")");
        }
        std::vector<CacheEntry> restored(cache->size());
        for (CacheEntry &entry : restored) {
            entry.tag = getU16(is);
            entry.counter = getU8(is);
            const u8 valid = getU8(is);
            if (entry.tag > mask(tagBits) || entry.counter > 3 ||
                valid > 1) {
                fatal("yags snapshot: invalid cache entry");
            }
            entry.valid = valid != 0;
        }
        *cache = std::move(restored);
    }
    choiceTable.loadState(is);
    history.set(getU64(is));
}

template class BlockPredictor<YagsPredictor>;

} // namespace bpred
