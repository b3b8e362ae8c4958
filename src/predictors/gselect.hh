/**
 * @file
 * gselect (GAs) global-history predictor.
 */

#pragma once

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * gselect: a tag-less counter table indexed by the *concatenation*
 * of global-history bits (high) and branch-address bits (low) —
 * GAs in Yeh and Patt's taxonomy. With a history length >= the
 * index width, no address bits survive, the degenerate case behind
 * its poor 12-bit-history results in the paper.
 */
class GSelectPredictor : public BlockPredictor<GSelectPredictor>
{
  public:
    /**
     * @param index_bits log2 of the table size.
     * @param history_bits Global-history length k.
     * @param counter_bits Counter width (1 or 2).
     */
    GSelectPredictor(unsigned index_bits, unsigned history_bits,
                     unsigned counter_bits = 2);

    std::string name() const override;
    u64 storageBits() const override { return table.storageBits(); }
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

    /** History length in bits. */
    unsigned historyBits() const { return historyBits_; }

  private:
    friend class BlockPredictor<GSelectPredictor>;
    struct State;

    State state();
    bool replayPhaseSplit(const BranchRecord *records,
                          std::size_t count, ReplayCounters &counters,
                          ReplayScratch &scratch);

    SatCounterArray table;
    GlobalHistory history;
    unsigned indexBits;
    unsigned historyBits_;
};

} // namespace bpred

