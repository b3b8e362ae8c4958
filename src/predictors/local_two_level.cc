#include "predictors/local_two_level.hh"

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

LocalTwoLevelPredictor::LocalTwoLevelPredictor(unsigned bht_index_bits,
                                               unsigned local_history_bits,
                                               unsigned counter_bits)
    : historyTable(u64(1) << bht_index_bits, 0),
      patternTable(u64(1) << local_history_bits, counter_bits),
      bhtIndexBits(bht_index_bits),
      localHistoryBits(local_history_bits)
{
    if (local_history_bits < 1 || local_history_bits > 16) {
        fatal("pag: local history length out of range");
    }
}

/** PAg state lifted into locals (see block_kernel.hh). */
struct LocalTwoLevelPredictor::State
{
    u16 *historyTable;
    SatCounterArray::View patternTable;
    unsigned bhtIndexBits;
    unsigned localHistoryBits;

    bool
    predict(Addr pc) const
    {
        return patternTable.predictTaken(
            historyTable[addressIndex(pc, bhtIndexBits)]);
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &)
    {
        u16 &local_history = historyTable[addressIndex(pc, bhtIndexBits)];
        const bool prediction = patternTable.predictTaken(local_history);
        patternTable.update(local_history, taken);
        local_history = static_cast<u16>(
            ((local_history << 1) | (taken ? 1 : 0)) &
            mask(localHistoryBits));
        return prediction;
    }
};

LocalTwoLevelPredictor::State
LocalTwoLevelPredictor::state()
{
    return {historyTable.data(), patternTable.view(), bhtIndexBits,
            localHistoryBits};
}

std::string
LocalTwoLevelPredictor::name() const
{
    return "pag-" + formatEntries(historyTable.size()) + "x" +
        std::to_string(localHistoryBits);
}

u64
LocalTwoLevelPredictor::storageBits() const
{
    return historyTable.size() * localHistoryBits +
        patternTable.storageBits();
}

void
LocalTwoLevelPredictor::reset()
{
    std::fill(historyTable.begin(), historyTable.end(), 0);
    patternTable.reset();
}

void
LocalTwoLevelPredictor::saveState(std::ostream &os) const
{
    putU64(os, historyTable.size());
    for (const u16 entry : historyTable) {
        putU16(os, entry);
    }
    patternTable.saveState(os);
}

void
LocalTwoLevelPredictor::loadState(std::istream &is)
{
    const u64 count = getU64(is);
    if (count != historyTable.size()) {
        fatal("pag snapshot: history table size mismatch (stored " +
              std::to_string(count) + ", predictor has " +
              std::to_string(historyTable.size()) + ")");
    }
    std::vector<u16> restored(historyTable.size());
    for (u16 &entry : restored) {
        entry = getU16(is);
        if (entry > mask(localHistoryBits)) {
            fatal("pag snapshot: local history exceeds " +
                  std::to_string(localHistoryBits) + " bits");
        }
    }
    patternTable.loadState(is);
    historyTable = std::move(restored);
}

template class BlockPredictor<LocalTwoLevelPredictor>;

} // namespace bpred
