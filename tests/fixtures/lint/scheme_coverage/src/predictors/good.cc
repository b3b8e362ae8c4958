#include "predictors/good.hh"

namespace bpred
{

// An out-of-class nested definition: it defines State, not a
// second GoodPredictor.
struct GoodPredictor::State
{
    bool predict(Addr pc) const;
};

} // namespace bpred
