/**
 * @file
 * Bimodal (Smith) predictor: a PC-indexed table of saturating
 * counters.
 */

#pragma once

#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * The classic Smith predictor [Smith '81]: 2^n saturating counters
 * indexed by low-order branch-address bits. It uses no history, so
 * it anchors the baseline comparisons and serves as the bimodal
 * component of the McFarling hybrid.
 */
class BimodalPredictor : public BlockPredictor<BimodalPredictor>
{
  public:
    /**
     * @param index_bits log2 of the table size.
     * @param counter_bits Counter width (1 or 2 in the paper).
     */
    BimodalPredictor(unsigned index_bits, unsigned counter_bits = 2);

    std::string name() const override;
    u64 storageBits() const override { return table.storageBits(); }
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

  private:
    friend class BlockPredictor<BimodalPredictor>;
    struct State;

    State state();
    bool replayPhaseSplit(const BranchRecord *records,
                          std::size_t count, ReplayCounters &counters,
                          ReplayScratch &scratch);

    SatCounterArray table;
    unsigned indexBits;
};

} // namespace bpred

