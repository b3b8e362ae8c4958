/**
 * @file
 * The bi-mode predictor (Lee, Chen & Mudge, MICRO 1997) — the
 * third contemporaneous attack on predictor-table interference,
 * alongside agree (conversion) and gskewed (dispersal): bi-mode
 * *segregates* branches by bias so that entries in each direction
 * table are shared only by branches that mostly agree.
 */

#pragma once

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * Bi-mode: a PC-indexed *choice* table picks one of two
 * gshare-indexed *direction* tables (a taken-leaning and a
 * not-taken-leaning one). Only the selected direction table
 * trains; the choice table trains toward the outcome except when
 * it disagreed but the selected table was nevertheless correct
 * (the bi-mode partial-update rule).
 */
class BiModePredictor : public BlockPredictor<BiModePredictor>
{
  public:
    /**
     * @param direction_index_bits log2 of each direction table.
     * @param history_bits Global-history length.
     * @param choice_index_bits log2 of the choice table.
     * @param counter_bits Counter width for all tables.
     */
    BiModePredictor(unsigned direction_index_bits,
                    unsigned history_bits,
                    unsigned choice_index_bits,
                    unsigned counter_bits = 2);

    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

  private:
    friend class BlockPredictor<BiModePredictor>;
    struct State;

    State state();

    SatCounterArray takenTable;
    SatCounterArray notTakenTable;
    SatCounterArray choiceTable;
    GlobalHistory history;
    unsigned directionIndexBits;
    unsigned historyBits;
    unsigned choiceIndexBits;
};

} // namespace bpred

