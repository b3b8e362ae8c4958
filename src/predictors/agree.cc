#include "predictors/agree.hh"

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{
constexpr u8 biasUnset = 2;
} // namespace

/** Agree state lifted into locals (see block_kernel.hh). */
struct AgreePredictor::State
{
    SatCounterArray::View agreeTable;
    u8 *biasTable;
    GlobalHistory history;
    unsigned indexBits;
    unsigned historyBits;
    unsigned biasIndexBits;
    GlobalHistory *historyOut;

    u64
    agreeIndex(Addr pc) const
    {
        return gshareIndex(pc, history.raw(), historyBits, indexBits);
    }

    bool
    predict(Addr pc) const
    {
        // An unset bias (2) reads as taken (static heuristic).
        const bool bias = biasTable[addressIndex(pc, biasIndexBits)] != 0;
        return agreeTable.predictTaken(agreeIndex(pc)) == bias;
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &sink)
    {
        const bool prediction = predict(pc);
        if constexpr (publishes<Sink>) {
            sink.onResolved({pc, prediction, taken});
        }
        u8 &bias = biasTable[addressIndex(pc, biasIndexBits)];
        if (bias == biasUnset) {
            // First encounter: the observed outcome becomes the bias.
            bias = taken ? 1 : 0;
        }
        trainCounter(agreeTable, agreeIndex(pc), taken == (bias != 0),
                     sink);
        history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }
    void commit() { *historyOut = history; }
};

AgreePredictor::AgreePredictor(unsigned index_bits,
                               unsigned history_bits,
                               unsigned bias_index_bits,
                               unsigned counter_bits)
    : agreeTable(u64(1) << index_bits, counter_bits,
                 // Initialize weakly "agree": cold branches follow
                 // their bias, the design's whole premise.
                 static_cast<u8>(u8(1) << (counter_bits - 1))),
      biasTable(u64(1) << bias_index_bits, biasUnset),
      indexBits(index_bits),
      historyBits(history_bits),
      biasIndexBits(bias_index_bits)
{
}

AgreePredictor::State
AgreePredictor::state()
{
    return {agreeTable.view(), biasTable.data(), history, indexBits,
            historyBits, biasIndexBits, &history};
}

std::string
AgreePredictor::name() const
{
    return "agree-" + formatEntries(agreeTable.size()) + "-h" +
        std::to_string(historyBits);
}

u64
AgreePredictor::storageBits() const
{
    // Counter bits plus one bias bit per bias entry.
    return agreeTable.storageBits() + biasTable.size();
}

void
AgreePredictor::reset()
{
    agreeTable.reset(
        static_cast<u8>(u8(1) << (agreeTable.width() - 1)));
    std::fill(biasTable.begin(), biasTable.end(), biasUnset);
    history.reset();
}

void
AgreePredictor::saveState(std::ostream &os) const
{
    agreeTable.saveState(os);
    putU64(os, biasTable.size());
    for (const u8 entry : biasTable) {
        putU8(os, entry);
    }
    putU64(os, history.raw());
}

void
AgreePredictor::loadState(std::istream &is)
{
    agreeTable.loadState(is);
    const u64 count = getU64(is);
    if (count != biasTable.size()) {
        fatal("agree snapshot: bias table size mismatch (stored " +
              std::to_string(count) + ", predictor has " +
              std::to_string(biasTable.size()) + ")");
    }
    std::vector<u8> restored(biasTable.size());
    for (u8 &entry : restored) {
        entry = getU8(is);
        if (entry > biasUnset) {
            fatal("agree snapshot: invalid bias value");
        }
    }
    biasTable = std::move(restored);
    history.set(getU64(is));
}

template class BlockPredictor<AgreePredictor>;

} // namespace bpred
