#include "predictors/gshare.hh"

#include "predictors/block_kernel.hh"
#include "predictors/block_kernel_simd.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

/**
 * gshare hot state lifted into locals (see block_kernel.hh): the
 * counter view, a by-value copy of the history register, and the
 * index geometry stay in registers across a block; commit()
 * publishes the advanced history back to the predictor.
 */
struct GSharePredictor::State
{
    SatCounterArray::View table;
    GlobalHistory history;
    unsigned historyBits;
    unsigned indexBits;
    GlobalHistory *historyOut;

    u64
    indexOf(Addr pc) const
    {
        return gshareIndex(pc, history.raw(), historyBits, indexBits);
    }

    bool
    predict(Addr pc) const
    {
        return table.predictTaken(indexOf(pc));
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &sink)
    {
        const u64 index = indexOf(pc);
        const bool prediction = table.predictTaken(index);
        if constexpr (publishes<Sink>) {
            sink.onResolved({pc, prediction, taken});
        }
        trainCounter(table, index, taken, sink);
        history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { history.shiftIn(true); }
    void commit() { *historyOut = history; }
};

GSharePredictor::GSharePredictor(unsigned index_bits,
                                 unsigned history_bits,
                                 unsigned counter_bits)
    : table(u64(1) << index_bits, counter_bits),
      indexBits(index_bits),
      historyBits_(history_bits)
{
}

GSharePredictor::State
GSharePredictor::state()
{
    return {table.view(), history, historyBits_, indexBits, &history};
}

bool
GSharePredictor::replayPhaseSplit(const BranchRecord *records,
                                  std::size_t count,
                                  ReplayCounters &counters,
                                  ReplayScratch &scratch)
{
    if (!simdIndexWidthOk(indexBits) ||
        resolveSimdMode(scratch.mode) != SimdMode::Avx2) {
        return false;
    }
    // Phase-split path (block_kernel_simd.hh): history is
    // outcome-determined, so compaction's speculative advance is
    // exact and each tile's indices vectorize up front.
    const bool prefetch = simdWantsCounterPrefetch(table.size());
    const u64 history_out = replayTiled(
        records, count, history.raw(), scratch, 1,
        [&](std::size_t conditionals) {
            fillGshareIndices(SimdMode::Avx2, scratch.pc.data(),
                              scratch.history.data(), conditionals,
                              historyBits_, indexBits,
                              scratch.indices[0].data());
            resolveSingleTable(
                table.view(), scratch.indices[0].data(),
                scratch.taken.data(), conditionals, prefetch,
                counters, [&](std::size_t j) {
                    return u64(gshareIndex(scratch.pc[j],
                                           scratch.history[j],
                                           historyBits_, indexBits));
                });
        });
    history.set(history_out);
    return true;
}

std::string
GSharePredictor::name() const
{
    return "gshare-" + formatEntries(table.size()) + "-h" +
        std::to_string(historyBits_);
}

void
GSharePredictor::reset()
{
    table.reset();
    history.reset();
}

void
GSharePredictor::saveState(std::ostream &os) const
{
    table.saveState(os);
    putU64(os, history.raw());
}

void
GSharePredictor::loadState(std::istream &is)
{
    table.loadState(is);
    history.set(getU64(is));
}

template class BlockPredictor<GSharePredictor>;

} // namespace bpred
