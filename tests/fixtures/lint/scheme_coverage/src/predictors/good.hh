#pragma once

#include "predictors/predictor.hh"

namespace bpred
{

// Gets its block kernel through the template base.
class GoodPredictor : public BlockPredictor<GoodPredictor>
{
  public:
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is) override;

  private:
    struct State;
};

} // namespace bpred
