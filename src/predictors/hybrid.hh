/**
 * @file
 * McFarling combining (hybrid) predictor.
 */

#pragma once

#include <memory>

#include "predictors/predictor.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/**
 * McFarling's combining predictor: two component predictors plus a
 * PC-indexed chooser table of 2-bit counters that learns, per
 * branch, which component to trust. The chooser trains only when
 * the components disagree.
 *
 * Listed by the paper as one of the hybrid schemes its skewing
 * technique composes with; used here as a baseline.
 */
class HybridPredictor : public BlockPredictor<HybridPredictor>
{
  public:
    /**
     * @param first First component (chooser counter high = trust it).
     * @param second Second component.
     * @param chooser_index_bits log2 of the chooser-table size.
     */
    HybridPredictor(std::unique_ptr<Predictor> first,
                    std::unique_ptr<Predictor> second,
                    unsigned chooser_index_bits);

    std::string name() const override;
    u64 storageBits() const override;
    void reset() override;

    /** Snapshots compose: supported when both components support it. */
    bool supportsSnapshot() const override;
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

  private:
    friend class BlockPredictor<HybridPredictor>;
    struct State;

    State state();

    std::unique_ptr<Predictor> firstComponent;
    std::unique_ptr<Predictor> secondComponent;
    SatCounterArray chooser;
    unsigned chooserIndexBits;
};

} // namespace bpred

