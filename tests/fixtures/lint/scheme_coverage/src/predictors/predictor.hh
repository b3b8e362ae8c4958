#pragma once

namespace bpred
{

// The scheme base: generates every entry point, block replay
// included, from the derived scheme's State.
template <typename Derived>
class BlockPredictor : public Predictor
{
  public:
    void replayBlock(const BranchRecord *records, std::size_t n,
                     ReplayCounters &counters,
                     ReplayScratch *scratch) final;
};

} // namespace bpred
