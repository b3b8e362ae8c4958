#include "predictors/static_pred.hh"

#include "predictors/block_kernel.hh"

namespace bpred
{

/** Stateless: every branch resolves to the configured direction. */
struct StaticPredictor::State
{
    bool direction;

    bool predict(Addr) const { return direction; }

    template <typename Sink>
    bool
    step(Addr, bool, Sink &)
    {
        return direction;
    }
};

StaticPredictor::State
StaticPredictor::state() const
{
    return {direction};
}

template class BlockPredictor<StaticPredictor>;

} // namespace bpred
