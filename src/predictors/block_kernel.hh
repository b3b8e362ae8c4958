/**
 * @file
 * The shared per-block replay kernel behind every
 * Predictor::replayBlock() override.
 *
 * Each concrete predictor defines a private BlockState: its hot
 * state (history register, raw counter pointers, config fields)
 * lifted into plain locals whose addresses never escape. The kernel
 * template instantiates once per state type and inlines its step,
 * so the inner loop runs with zero virtual calls — the block's
 * single replayBlock() dispatch is the only one — AND the compiler
 * can keep the lifted state in registers across the whole block:
 * counter stores are char-typed and would otherwise force every
 * member field to be re-loaded from memory after each branch.
 *
 * A BlockState provides:
 *   bool step(Addr pc, bool taken)  — the fused resolve, returning
 *                                     the pre-update prediction;
 *   void unconditional(Addr pc)     — the notifyUnconditional
 *                                     equivalent;
 *   void commit()                   — write mutated state back to
 *                                     the predictor.
 * step()/unconditional() must mirror the scalar fused path exactly;
 * test_predictor_contract pins block replay to the scalar loop for
 * every registered scheme.
 *
 * Overrides must run the kernel only on the no-probe path (a probed
 * predictor delegates to the scalar Predictor::replayBlock() so
 * event streams stay identical, mirroring the fused-path contract).
 */

#pragma once

#include <cstddef>

#include "predictors/predictor.hh"

namespace bpred
{

/**
 * Replay @p count records through @p state (a predictor's
 * BlockState, constructed fresh for this block), committing the
 * state back and adding the block's tallies to @p counters — and
 * writing counters.mispredicted, when set.
 */
template <typename BlockState>
void
replayBlockWithState(BlockState state, const BranchRecord *records,
                     std::size_t count, ReplayCounters &counters)
{
    u8 *const mask = counters.mispredicted;
    u64 conditionals = 0;
    u64 mispredicts = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const BranchRecord &record = records[i];
        if (!record.conditional) {
            state.unconditional(record.pc);
            continue;
        }
        // Arithmetic, not a branch: whether a prediction was right
        // is data, and maximally unpredictable data for exactly the
        // records that make a predictor study interesting. The mask
        // test is loop-invariant, so it predicts perfectly.
        const bool wrong = state.step(record.pc, record.taken) !=
            record.taken;
        if (mask) {
            mask[conditionals] = u8(wrong);
        }
        ++conditionals;
        mispredicts += u64(wrong);
    }
    state.commit();
    counters.conditionals += conditionals;
    counters.mispredicts += mispredicts;
}

} // namespace bpred
