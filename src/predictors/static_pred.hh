/**
 * @file
 * Trivial static predictors: always-taken and always-not-taken.
 */

#pragma once

#include "predictors/predictor.hh"

namespace bpred
{

/**
 * A stateless static predictor.
 *
 * "Always taken" is the fallback the paper assumes on misses in the
 * fully-associative tagged table of Figure 8; it also serves as a
 * floor baseline in the comparison benches.
 */
class StaticPredictor : public BlockPredictor<StaticPredictor>
{
  public:
    /** @param predict_taken Direction predicted for every branch. */
    explicit StaticPredictor(bool predict_taken = true)
        : direction(predict_taken)
    {}

    std::string
    name() const override
    {
        return direction ? "always-taken" : "always-not-taken";
    }

    u64 storageBits() const override { return 0; }
    void reset() override {}

    // Stateless: a snapshot is trivially supported with an empty
    // payload (the direction is configuration, carried by name()).
    bool supportsSnapshot() const override { return true; }
    void saveState(std::ostream &) const override {}
    void loadState(std::istream &) override {}

  private:
    friend class BlockPredictor<StaticPredictor>;
    struct State;

    State state() const;

    bool direction;
};

} // namespace bpred

