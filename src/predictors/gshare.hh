/**
 * @file
 * gshare global-history predictor [McFarling '93].
 */

#pragma once

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * gshare: one tag-less table of 2^n saturating counters indexed by
 * XOR of low-order branch-address bits with the global history
 * (history aligned to the high-order end of the index when shorter
 * than it). This is the paper's reference single-bank organization.
 */
class GSharePredictor : public BlockPredictor<GSharePredictor>
{
  public:
    /**
     * @param index_bits log2 of the table size.
     * @param history_bits Global-history length k.
     * @param counter_bits Counter width (1 or 2).
     */
    GSharePredictor(unsigned index_bits, unsigned history_bits,
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
    friend class BlockPredictor<GSharePredictor>;
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

