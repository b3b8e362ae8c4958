/**
 * @file
 * One step definition per scheme: the State contract, and the
 * BlockPredictor members that derive every Predictor entry point
 * from it.
 *
 * Each scheme defines its resolve logic once, in a private State:
 * its hot state (history register, raw counter views, config
 * fields) lifted into plain locals — or, for schemes whose state is
 * containers rather than counter arrays, a reference to the
 * predictor itself. A State provides
 *
 *   bool predict(Addr pc) const      — the prediction, no effects;
 *   template <typename Sink>
 *   bool step(Addr pc, bool taken, Sink &sink)
 *                                    — resolve one conditional
 *                                      branch, returning the
 *                                      pre-update prediction;
 *   void unconditional(Addr pc)      — optional: observe an
 *                                      unconditional branch;
 *   void commit()                    — optional: write lifted state
 *                                      back to the predictor;
 *
 * and Derived provides `State state()` (or shadows withState() when
 * the State is a template, e.g. one per bank count). From these,
 * BlockPredictor<Derived> builds predict(), predictAndUpdate(),
 * notifyUnconditional() and replayBlock():
 *
 *  - Sinks. step() runs with a NullSink when no probe is attached,
 *    or with the attached ProbeSink itself. Every publishing site
 *    sits under `if constexpr (publishes<Sink>)`, so the plain
 *    instantiation carries no sink code at all and the probed one
 *    publishes exactly where the scheme's step says.
 *  - Block replay. replayBlock() runs one kernel template with the
 *    State's step() inlined into the record loop: zero virtual
 *    calls per branch, and the State, taken by value, never has
 *    its address escape, so the compiler keeps the lifted fields in
 *    registers across the block (counter stores are char-typed and
 *    would otherwise force every member field to be re-loaded after
 *    each branch). The probed replay is the same kernel with the
 *    ProbeSink. Without a probe, a scheme may first claim the block
 *    for its phase-split kernel (block_kernel_simd.hh) by defining
 *      bool replayPhaseSplit(const BranchRecord *, std::size_t,
 *                            ReplayCounters &, ReplayScratch &);
 *    which returns false to decline (wrong mode or geometry).
 *
 * Each scheme's .cc includes this header and ends with
 * `template class BlockPredictor<Scheme>;`. Include it from nowhere
 * else: a translation unit that sees these definitions and
 * constructs some other scheme would instantiate that scheme's
 * members without its (private, .cc-local) State.
 */

#pragma once

#include <cstddef>
#include <type_traits>

#include "predictors/predictor.hh"
#include "support/probe.hh"
#include "support/sat_counter.hh"

namespace bpred
{

/** The sink a State steps with when no probe is attached. */
struct NullSink
{
};

/** True when a step instantiated for @p Sink publishes events. */
template <typename Sink>
inline constexpr bool publishes = !std::is_same_v<Sink, NullSink>;

/**
 * Train counter @p index of @p table toward @p taken; a publishing
 * @p sink also sees the change, if any, as bank @p bank's
 * CounterWriteEvent.
 */
template <typename Sink>
inline void
trainCounter(SatCounterArray::View table, u64 index, bool taken,
             Sink &sink, unsigned bank = 0)
{
    if constexpr (publishes<Sink>) {
        const u8 before = table.value(index);
        table.update(index, taken);
        const u8 after = table.value(index);
        if (before != after) {
            sink.onCounterWrite({bank, before, after});
        }
    } else {
        table.update(index, taken);
    }
}

namespace detail
{

template <typename State>
inline void
commitState(State &state)
{
    if constexpr (requires { state.commit(); }) {
        state.commit();
    }
}

template <typename State>
inline void
stepUnconditional(State &state, Addr pc)
{
    if constexpr (requires { state.unconditional(pc); }) {
        state.unconditional(pc);
    }
}

/**
 * Replay @p count records through @p state, committing it
 * afterwards and adding the block's tallies to @p counters — and
 * writing counters.mispredicted, when set.
 */
template <typename State, typename Sink>
void
replayWithState(State state, const BranchRecord *records,
                std::size_t count, ReplayCounters &counters,
                Sink &sink)
{
    u8 *const mask = counters.mispredicted;
    u64 conditionals = 0;
    u64 mispredicts = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const BranchRecord &record = records[i];
        if (!record.conditional) {
            stepUnconditional(state, record.pc);
            continue;
        }
        // Arithmetic, not a branch: whether a prediction was right
        // is data, and maximally unpredictable data for exactly the
        // records that make a predictor study interesting. The mask
        // test is loop-invariant, so it predicts perfectly.
        const bool wrong =
            state.step(record.pc, record.taken, sink) != record.taken;
        if (mask) {
            mask[conditionals] = u8(wrong);
        }
        ++conditionals;
        mispredicts += u64(wrong);
    }
    commitState(state);
    counters.conditionals += conditionals;
    counters.mispredicts += mispredicts;
}

} // namespace detail

template <typename Derived>
template <typename Fn>
decltype(auto)
BlockPredictor<Derived>::withState(Fn &&fn)
{
    auto state = self().state();
    return fn(state);
}

template <typename Derived>
bool
BlockPredictor<Derived>::predict(Addr pc) const
{
    // A State borrows mutable counter views, but State::predict()
    // is const and only reads through them.
    return const_cast<BlockPredictor &>(*this).self().withState(
        [&](const auto &state) { return state.predict(pc); });
}

template <typename Derived>
Outcome
BlockPredictor<Derived>::predictAndUpdate(Addr pc, bool taken)
{
    const auto resolve = [&](auto &sink) {
        return self().withState([&](auto &state) {
            const bool prediction = state.step(pc, taken, sink);
            detail::commitState(state);
            return Outcome{prediction};
        });
    };
    if (probeSink) [[unlikely]] {
        return resolve(*probeSink);
    }
    NullSink none;
    return resolve(none);
}

template <typename Derived>
void
BlockPredictor<Derived>::notifyUnconditional(Addr pc)
{
    self().withState([&](auto &state) {
        detail::stepUnconditional(state, pc);
        detail::commitState(state);
    });
}

template <typename Derived>
void
BlockPredictor<Derived>::replayBlock(const BranchRecord *records,
                                     std::size_t count,
                                     ReplayCounters &counters,
                                     ReplayScratch *scratch)
{
    const auto replay = [&](auto &sink) {
        self().withState([&](auto &state) {
            detail::replayWithState(state, records, count, counters,
                                    sink);
        });
    };
    if (probeSink) [[unlikely]] {
        replay(*probeSink);
        return;
    }
    if constexpr (requires(Derived &scheme, ReplayScratch &lent) {
                      scheme.replayPhaseSplit(records, count,
                                              counters, lent);
                  }) {
        if (scratch &&
            self().replayPhaseSplit(records, count, counters,
                                    *scratch)) {
            return;
        }
    }
    NullSink none;
    replay(none);
}

} // namespace bpred
