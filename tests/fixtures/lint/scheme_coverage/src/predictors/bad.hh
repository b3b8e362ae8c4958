#pragma once

namespace bpred
{

// Half-registered on purpose: loadState without saveState, no
// block kernel, not in the contract sweep.
class BadPredictor : public Predictor
{
  public:
    void loadState(std::istream &is) override;
};

} // namespace bpred
