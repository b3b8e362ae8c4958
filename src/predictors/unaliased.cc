#include "predictors/unaliased.hh"

#include <algorithm>
#include <vector>

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

UnaliasedPredictor::UnaliasedPredictor(unsigned history_bits,
                                       unsigned counter_bits)
    : historyBits(history_bits), counterBits(counter_bits)
{
}

u64
UnaliasedPredictor::keyOf(Addr pc) const
{
    return packInfoVector(pc, history.raw(), historyBits);
}

/**
 * The unaliased predictor's state is hash tables, not counter
 * arrays, so its State works on the predictor directly.
 */
struct UnaliasedPredictor::State
{
    UnaliasedPredictor &self;

    bool
    predict(Addr pc) const
    {
        const auto it = self.counters.find(self.keyOf(pc));
        // Cold entries have no information; predict taken (the
        // static fallback), but the miss will not be charged as a
        // misprediction.
        return it == self.counters.end() || it->second.predictTaken();
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &)
    {
        const u64 key = self.keyOf(pc);
        const auto it = self.counters.find(key);
        const bool cold = it == self.counters.end();
        const bool prediction = cold || it->second.predictTaken();

        ++self.dynamicCount;
        self.staticBranches.insert(pc);
        if (cold) {
            ++self.compulsoryCount;
            SatCounter counter(self.counterBits);
            counter.setStrong(taken);
            self.counters.emplace(key, counter);
        } else {
            self.warmMispredicts.sample(prediction != taken);
            it->second.update(taken);
        }
        self.history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { self.history.shiftIn(true); }
};

UnaliasedPredictor::State
UnaliasedPredictor::state()
{
    return {*this};
}

std::string
UnaliasedPredictor::name() const
{
    return "unaliased-h" + std::to_string(historyBits) + "-" +
        std::to_string(counterBits) + "bit";
}

u64
UnaliasedPredictor::storageBits() const
{
    return counters.size() * counterBits;
}

void
UnaliasedPredictor::reset()
{
    counters.clear();
    staticBranches.clear();
    history.reset();
    warmMispredicts.reset();
    dynamicCount = 0;
    compulsoryCount = 0;
}

void
UnaliasedPredictor::saveState(std::ostream &os) const
{
    std::vector<std::pair<u64, u8>> sorted_counters;
    sorted_counters.reserve(counters.size());
    for (const auto &[key, counter] : counters) {
        sorted_counters.emplace_back(key, counter.value());
    }
    std::sort(sorted_counters.begin(), sorted_counters.end());
    putU64(os, sorted_counters.size());
    for (const auto &[key, value] : sorted_counters) {
        putU64(os, key);
        putU8(os, value);
    }

    std::vector<Addr> sorted_branches(staticBranches.begin(),
                                      staticBranches.end());
    std::sort(sorted_branches.begin(), sorted_branches.end());
    putU64(os, sorted_branches.size());
    for (const Addr pc : sorted_branches) {
        putU64(os, pc);
    }

    putU64(os, warmMispredicts.events());
    putU64(os, warmMispredicts.total());
    putU64(os, dynamicCount);
    putU64(os, compulsoryCount);
    putU64(os, history.raw());
}

void
UnaliasedPredictor::loadState(std::istream &is)
{
    const u64 counter_count = getU64(is);
    std::unordered_map<u64, SatCounter> restored_counters;
    restored_counters.reserve(
        static_cast<std::size_t>(counter_count));
    for (u64 i = 0; i < counter_count; ++i) {
        const u64 key = getU64(is);
        const u8 value = getU8(is);
        if (value > mask(counterBits)) {
            fatal("unaliased snapshot: counter value exceeds " +
                  std::to_string(counterBits) + " bits");
        }
        const bool inserted =
            restored_counters.emplace(key, SatCounter(counterBits, value))
                .second;
        if (!inserted) {
            fatal("unaliased snapshot: duplicate counter key");
        }
    }

    const u64 branch_count = getU64(is);
    std::unordered_set<Addr> restored_branches;
    restored_branches.reserve(
        static_cast<std::size_t>(branch_count));
    for (u64 i = 0; i < branch_count; ++i) {
        if (!restored_branches.insert(getU64(is)).second) {
            fatal("unaliased snapshot: duplicate branch address");
        }
    }

    const u64 warm_events = getU64(is);
    const u64 warm_total = getU64(is);
    if (warm_events > warm_total) {
        fatal("unaliased snapshot: inconsistent misprediction "
              "tallies");
    }
    const u64 dynamic_count = getU64(is);
    const u64 compulsory_count = getU64(is);
    const u64 history_raw = getU64(is);

    counters = std::move(restored_counters);
    staticBranches = std::move(restored_branches);
    warmMispredicts.restore(warm_events, warm_total);
    dynamicCount = dynamic_count;
    compulsoryCount = compulsory_count;
    history.set(history_raw);
}

double
UnaliasedPredictor::substreamRatio() const
{
    return staticBranches.empty()
        ? 0.0
        : static_cast<double>(counters.size()) /
            static_cast<double>(staticBranches.size());
}

double
UnaliasedPredictor::compulsoryAliasingRatio() const
{
    return dynamicCount == 0
        ? 0.0
        : static_cast<double>(compulsoryCount) /
            static_cast<double>(dynamicCount);
}

template class BlockPredictor<UnaliasedPredictor>;

} // namespace bpred
