#include "predictors/bimodal.hh"

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/probe.hh"
#include "support/table.hh"

namespace bpred
{

/**
 * Bimodal hot state lifted into locals (see block_kernel.hh): the
 * raw counter view and index width live in registers for a whole
 * block instead of being re-loaded after every counter store.
 */
struct BimodalPredictor::State
{
    SatCounterArray::View table;
    unsigned indexBits;

    bool
    predict(Addr pc) const
    {
        return table.predictTaken(addressIndex(pc, indexBits));
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &sink)
    {
        const u64 index = addressIndex(pc, indexBits);
        const bool prediction = table.predictTaken(index);
        if constexpr (publishes<Sink>) {
            sink.onResolved({pc, prediction, taken});
        }
        trainCounter(table, index, taken, sink);
        return prediction;
    }
};

BimodalPredictor::BimodalPredictor(unsigned index_bits,
                                   unsigned counter_bits)
    : table(u64(1) << index_bits, counter_bits),
      indexBits(index_bits)
{
}

BimodalPredictor::State
BimodalPredictor::state()
{
    return {table.view(), indexBits};
}

bool
BimodalPredictor::replayPhaseSplit(const BranchRecord *records,
                                   std::size_t count,
                                   ReplayCounters &counters,
                                   ReplayScratch &scratch)
{
    if (!simdIndexWidthOk(indexBits) ||
        resolveSimdMode(scratch.mode) != SimdMode::Avx2) {
        return false;
    }
    // Phase-split path (block_kernel_simd.hh): the address index has
    // no history dependence at all, so each tile's indices vectorize
    // up front.
    const bool prefetch = simdWantsCounterPrefetch(table.size());
    replayTiled(records, count, 0, scratch, 1,
                [&](std::size_t conditionals) {
                    fillAddressIndices(SimdMode::Avx2,
                                       scratch.pc.data(), conditionals,
                                       indexBits,
                                       scratch.indices[0].data());
                    resolveSingleTable(
                        table.view(), scratch.indices[0].data(),
                        scratch.taken.data(), conditionals, prefetch,
                        counters, [&](std::size_t j) {
                            return u64(addressIndex(scratch.pc[j],
                                                    indexBits));
                        });
                });
    return true;
}

std::string
BimodalPredictor::name() const
{
    return "bimodal-" + formatEntries(table.size());
}

void
BimodalPredictor::reset()
{
    table.reset();
}

void
BimodalPredictor::saveState(std::ostream &os) const
{
    table.saveState(os);
}

void
BimodalPredictor::loadState(std::istream &is)
{
    table.loadState(is);
}

template class BlockPredictor<BimodalPredictor>;

} // namespace bpred
