/**
 * @file
 * Per-address two-level adaptive predictor (PAg) [Yeh & Patt].
 */

#pragma once

#include <vector>

#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * PAg two-level predictor: a first-level table of per-address local
 * histories (indexed by PC) feeding a shared second-level pattern
 * table of saturating counters (indexed by the local history).
 *
 * The paper discusses per-address schemes as the other major family
 * its technique applies to; this implementation backs the baseline
 * comparison bench and the hybrid predictor.
 */
class LocalTwoLevelPredictor
    : public BlockPredictor<LocalTwoLevelPredictor>
{
  public:
    /**
     * @param bht_index_bits log2 of the branch-history-table size.
     * @param local_history_bits Local history length (also the
     *        pattern-table index width).
     * @param counter_bits Pattern-table counter width.
     */
    LocalTwoLevelPredictor(unsigned bht_index_bits,
                           unsigned local_history_bits,
                           unsigned counter_bits = 2);

    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

  private:
    friend class BlockPredictor<LocalTwoLevelPredictor>;
    struct State;

    State state();

    std::vector<u16> historyTable;
    SatCounterArray patternTable;
    unsigned bhtIndexBits;
    unsigned localHistoryBits;
};

} // namespace bpred

