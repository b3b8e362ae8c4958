/**
 * @file
 * The agree predictor (Sprangle, Chappell, Alsup & Patt, ISCA
 * 1997) — the contemporaneous *other* attack on the same aliasing
 * problem this paper solves with skewing.
 */

#pragma once

#include <vector>

#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * Agree prediction: a per-branch *bias bit* (set to the branch's
 * first observed outcome) plus a gshare-indexed table of counters
 * that predict whether the branch will AGREE with its bias.
 * Because most branches agree with their bias most of the time,
 * two substreams aliased onto one counter usually both want it to
 * say "agree" — converting destructive interference into neutral
 * or constructive interference rather than removing the collision
 * itself (the skewed predictor's approach).
 *
 * Implemented as in the original proposal, with the bias bits held
 * in a direct-mapped, PC-indexed table (standing in for bias
 * storage alongside a BTB entry).
 */
class AgreePredictor : public BlockPredictor<AgreePredictor>
{
  public:
    /**
     * @param index_bits log2 of the agree-counter table size.
     * @param history_bits Global-history length for the index.
     * @param bias_index_bits log2 of the bias-bit table size.
     * @param counter_bits Agree-counter width.
     */
    AgreePredictor(unsigned index_bits, unsigned history_bits,
                   unsigned bias_index_bits, unsigned counter_bits = 2);

    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;
    bool supportsSnapshot() const override { return true; }
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

  private:
    friend class BlockPredictor<AgreePredictor>;
    struct State;

    State state();

    SatCounterArray agreeTable;
    /** Bias bit per entry; 2 = unset (first encounter pending). */
    std::vector<u8> biasTable;
    GlobalHistory history;
    unsigned indexBits;
    unsigned historyBits;
    unsigned biasIndexBits;
};

} // namespace bpred

