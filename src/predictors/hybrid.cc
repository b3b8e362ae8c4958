#include "predictors/hybrid.hh"

#include <cassert>

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

/**
 * Hybrid hot state (see block_kernel.hh): the chooser view and its
 * index width stay in registers; the type-erased components remain
 * virtual calls — one fused dispatch per component per branch.
 */
struct HybridPredictor::State
{
    SatCounterArray::View chooser;
    unsigned chooserIndexBits;
    Predictor *first;
    Predictor *second;

    bool
    predict(Addr pc) const
    {
        return chooser.predictTaken(addressIndex(pc, chooserIndexBits))
            ? first->predict(pc)
            : second->predict(pc);
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &sink)
    {
        // The chooser table is independent of both components, so
        // reading it before or after they train sees the same value.
        const u64 chooser_index = addressIndex(pc, chooserIndexBits);
        const bool use_first = chooser.predictTaken(chooser_index);
        const bool first_prediction =
            first->predictAndUpdate(pc, taken).prediction;
        const bool second_prediction =
            second->predictAndUpdate(pc, taken).prediction;
        const bool prediction =
            use_first ? first_prediction : second_prediction;
        if constexpr (publishes<Sink>) {
            sink.onResolved({pc, prediction, taken});
            sink.onChoice({use_first,
                           first_prediction != second_prediction,
                           prediction == taken});
        }
        if (first_prediction != second_prediction) {
            // Strengthen toward the component that was right.
            chooser.update(chooser_index, first_prediction == taken);
        }
        return prediction;
    }

    void
    unconditional(Addr pc)
    {
        first->notifyUnconditional(pc);
        second->notifyUnconditional(pc);
    }
};

HybridPredictor::HybridPredictor(std::unique_ptr<Predictor> first,
                                 std::unique_ptr<Predictor> second,
                                 unsigned chooser_index_bits)
    : firstComponent(std::move(first)),
      secondComponent(std::move(second)),
      chooser(u64(1) << chooser_index_bits, 2,
              2 /* weakly prefer first */),
      chooserIndexBits(chooser_index_bits)
{
    assert(firstComponent && secondComponent);
}

HybridPredictor::State
HybridPredictor::state()
{
    return {chooser.view(), chooserIndexBits, firstComponent.get(),
            secondComponent.get()};
}

std::string
HybridPredictor::name() const
{
    return "hybrid(" + firstComponent->name() + "," +
        secondComponent->name() + ")";
}

u64
HybridPredictor::storageBits() const
{
    return firstComponent->storageBits() +
        secondComponent->storageBits() + chooser.storageBits();
}

void
HybridPredictor::reset()
{
    firstComponent->reset();
    secondComponent->reset();
    chooser.reset(2);
}

bool
HybridPredictor::supportsSnapshot() const
{
    return firstComponent->supportsSnapshot() &&
        secondComponent->supportsSnapshot();
}

void
HybridPredictor::saveState(std::ostream &os) const
{
    firstComponent->saveState(os);
    secondComponent->saveState(os);
    chooser.saveState(os);
}

void
HybridPredictor::loadState(std::istream &is)
{
    firstComponent->loadState(is);
    secondComponent->loadState(is);
    chooser.loadState(is);
}

template class BlockPredictor<HybridPredictor>;

} // namespace bpred
