#include "predictors/gselect.hh"

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

/**
 * gselect hot state lifted into locals (see block_kernel.hh);
 * mirrors gshare's State with the concatenating index function.
 */
struct GSelectPredictor::State
{
    SatCounterArray::View table;
    GlobalHistory history;
    unsigned historyBits;
    unsigned indexBits;
    GlobalHistory *historyOut;

    u64
    indexOf(Addr pc) const
    {
        return gselectIndex(pc, history.raw(), historyBits, indexBits);
    }

    bool
    predict(Addr pc) const
    {
        return table.predictTaken(indexOf(pc));
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &)
    {
        const u64 index = indexOf(pc);
        const bool prediction = table.predictTaken(index);
        table.update(index, taken);
        history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }
    void commit() { *historyOut = history; }
};

GSelectPredictor::GSelectPredictor(unsigned index_bits,
                                   unsigned history_bits,
                                   unsigned counter_bits)
    : table(u64(1) << index_bits, counter_bits),
      indexBits(index_bits),
      historyBits_(history_bits)
{
}

GSelectPredictor::State
GSelectPredictor::state()
{
    return {table.view(), history, historyBits_, indexBits, &history};
}

bool
GSelectPredictor::replayPhaseSplit(const BranchRecord *records,
                                   std::size_t count,
                                   ReplayCounters &counters,
                                   ReplayScratch &scratch)
{
    if (!simdIndexWidthOk(indexBits) ||
        resolveSimdMode(scratch.mode) != SimdMode::Avx2) {
        return false;
    }
    // Phase-split path (block_kernel_simd.hh); see gshare.cc for why
    // the speculative history advance is exact.
    const bool prefetch = simdWantsCounterPrefetch(table.size());
    const u64 history_out = replayTiled(
        records, count, history.raw(), scratch, 1,
        [&](std::size_t conditionals) {
            fillGselectIndices(SimdMode::Avx2, scratch.pc.data(),
                               scratch.history.data(), conditionals,
                               historyBits_, indexBits,
                               scratch.indices[0].data());
            resolveSingleTable(
                table.view(), scratch.indices[0].data(),
                scratch.taken.data(), conditionals, prefetch,
                counters, [&](std::size_t j) {
                    return u64(gselectIndex(scratch.pc[j],
                                            scratch.history[j],
                                            historyBits_, indexBits));
                });
        });
    history.set(history_out);
    return true;
}

std::string
GSelectPredictor::name() const
{
    return "gselect-" + formatEntries(table.size()) + "-h" +
        std::to_string(historyBits_);
}

void
GSelectPredictor::reset()
{
    table.reset();
    history.reset();
}

void
GSelectPredictor::saveState(std::ostream &os) const
{
    table.saveState(os);
    putU64(os, history.raw());
}

void
GSelectPredictor::loadState(std::istream &is)
{
    table.loadState(is);
    history.set(getU64(is));
}

template class BlockPredictor<GSelectPredictor>;

} // namespace bpred
