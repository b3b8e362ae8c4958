/**
 * @file
 * Skewing applied to a per-address two-level scheme (§7: "the same
 * technique could be applied to remove aliasing in other prediction
 * methods, including per-address history schemes").
 *
 * A PAg predictor's shared pattern table aliases exactly like a
 * global predictor table: different branches with the same local
 * history fight over one counter. Here the pattern table is
 * replaced by an odd number of skewed banks indexed by independent
 * hashes of the (address, local-history) vector, combined by
 * majority vote with partial update.
 */

#pragma once

#include <vector>

#include "core/skewed_predictor.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * Skewed per-address two-level predictor ("pskew"): a first-level
 * table of per-address local histories feeding skewed second-level
 * banks.
 */
class SkewedLocalPredictor
    : public BlockPredictor<SkewedLocalPredictor>
{
  public:
    /**
     * @param bht_index_bits log2 of the local-history-table size.
     * @param local_history_bits Local history length.
     * @param num_banks Odd bank count (1..maxSkewBanks).
     * @param bank_index_bits log2 of each pattern bank's size.
     * @param policy Partial or total update across banks.
     * @param counter_bits Pattern counter width.
     */
    SkewedLocalPredictor(unsigned bht_index_bits,
                         unsigned local_history_bits,
                         unsigned num_banks,
                         unsigned bank_index_bits,
                         UpdatePolicy policy = UpdatePolicy::Partial,
                         unsigned counter_bits = 2);

    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

  private:
    friend class BlockPredictor<SkewedLocalPredictor>;
    struct State;

    State state();
    u64 bankIndexOf(unsigned bank, Addr pc, u16 local_history) const;

    std::vector<u16> historyTable;
    std::vector<SatCounterArray> banks;
    unsigned bhtIndexBits;
    unsigned localHistoryBits;
    unsigned bankIndexBits;
    UpdatePolicy updatePolicy;
};

} // namespace bpred

