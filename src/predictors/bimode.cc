#include "predictors/bimode.hh"

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

/** Bi-mode state lifted into locals (see block_kernel.hh). */
struct BiModePredictor::State
{
    SatCounterArray::View takenTable;
    SatCounterArray::View notTakenTable;
    SatCounterArray::View choiceTable;
    GlobalHistory history;
    unsigned directionIndexBits;
    unsigned historyBits;
    unsigned choiceIndexBits;
    GlobalHistory *historyOut;

    bool
    predict(Addr pc) const
    {
        const bool choose_taken =
            choiceTable.predictTaken(addressIndex(pc, choiceIndexBits));
        return (choose_taken ? takenTable : notTakenTable)
            .predictTaken(gshareIndex(pc, history.raw(), historyBits,
                                      directionIndexBits));
    }

    // Forced inline: GCC otherwise calls it once per branch from the
    // block kernel, spilling the lifted state.
    template <typename Sink>
    [[gnu::always_inline]] bool
    step(Addr pc, bool taken, Sink &)
    {
        const u64 choice_index = addressIndex(pc, choiceIndexBits);
        const bool choose_taken = choiceTable.predictTaken(choice_index);
        const u64 index = gshareIndex(pc, history.raw(), historyBits,
                                      directionIndexBits);
        SatCounterArray::View selected =
            choose_taken ? takenTable : notTakenTable;
        const bool prediction = selected.predictTaken(index);

        // Only the selected direction table trains — the segregation
        // that keeps each table's population like-minded.
        selected.update(index, taken);

        // Choice partial update: leave the choice alone when it
        // "mischose" but the selected table still got the branch
        // right.
        if (!(choose_taken != taken && prediction == taken)) {
            choiceTable.update(choice_index, taken);
        }
        history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }
    void commit() { *historyOut = history; }
};

BiModePredictor::BiModePredictor(unsigned direction_index_bits,
                                 unsigned history_bits,
                                 unsigned choice_index_bits,
                                 unsigned counter_bits)
    : takenTable(u64(1) << direction_index_bits, counter_bits,
                 // Direction tables start leaning their way.
                 static_cast<u8>(mask(counter_bits))),
      notTakenTable(u64(1) << direction_index_bits, counter_bits, 0),
      choiceTable(u64(1) << choice_index_bits, counter_bits,
                  static_cast<u8>(u8(1) << (counter_bits - 1))),
      directionIndexBits(direction_index_bits),
      historyBits(history_bits),
      choiceIndexBits(choice_index_bits)
{
}

BiModePredictor::State
BiModePredictor::state()
{
    return {takenTable.view(), notTakenTable.view(), choiceTable.view(),
            history,           directionIndexBits,   historyBits,
            choiceIndexBits,   &history};
}

std::string
BiModePredictor::name() const
{
    return "bimode-2x" + formatEntries(takenTable.size()) + "+" +
        formatEntries(choiceTable.size()) + "-h" +
        std::to_string(historyBits);
}

u64
BiModePredictor::storageBits() const
{
    return takenTable.storageBits() + notTakenTable.storageBits() +
        choiceTable.storageBits();
}

void
BiModePredictor::reset()
{
    takenTable.reset(static_cast<u8>(mask(takenTable.width())));
    notTakenTable.reset(0);
    choiceTable.reset(
        static_cast<u8>(u8(1) << (choiceTable.width() - 1)));
    history.reset();
}

void
BiModePredictor::saveState(std::ostream &os) const
{
    takenTable.saveState(os);
    notTakenTable.saveState(os);
    choiceTable.saveState(os);
    putU64(os, history.raw());
}

void
BiModePredictor::loadState(std::istream &is)
{
    takenTable.loadState(is);
    notTakenTable.loadState(is);
    choiceTable.loadState(is);
    history.set(getU64(is));
}

template class BlockPredictor<BiModePredictor>;

} // namespace bpred
