#include "core/skewed_predictor.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "core/skew.hh"
#include "core/skewed_kernel_simd.hh"
#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

namespace
{

/**
 * What one resolved conditional does to a skewed predictor's
 * @p NumBanks banks: every bank's vote, the majority, and per bank
 * the policy's decision and the counter's next value.
 */
template <unsigned NumBanks>
struct SkewedResolve
{
    bool overall;
    bool bankPredictions[NumBanks];
    bool skipPartial[NumBanks];
    bool skipLazy[NumBanks];
    u8 next[NumBanks];
    unsigned writes;
};

/**
 * The majority vote and the Total / Partial / PartialLazy update
 * policy over the banks' counter @p values for outcome @p taken —
 * their one definition. The fused step calls it per branch; the
 * phase-split resolve reads a table built by calling it for every
 * combination of counter values and outcome.
 *
 * The skips are decided by data, so they are straight-line ALU
 * arithmetic (bitwise bool combination, write-enable folded into
 * the next value) and the fused loop carries no data-dependent
 * branch the host CPU could mispredict. A skipped bank keeps its
 * value and does not count as a bank write. Partial: a bank that
 * disagreed while the vote was right likely serves another
 * substream, so it is left alone. PartialLazy: also skip a write
 * that would not change a counter already saturated toward the
 * outcome.
 */
template <unsigned NumBanks>
[[gnu::always_inline]] inline SkewedResolve<NumBanks>
resolveSkewed(const u8 (&values)[NumBanks], bool taken, u8 max,
              u8 threshold, UpdatePolicy policy)
{
    SkewedResolve<NumBanks> resolved;
    unsigned votes_taken = 0;
#pragma GCC unroll 8
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        resolved.bankPredictions[bank] = values[bank] >= threshold;
        votes_taken += unsigned(resolved.bankPredictions[bank]);
    }
    resolved.overall = votes_taken * 2 > NumBanks;
    const bool overall_correct = resolved.overall == taken;
    const bool partial = policy == UpdatePolicy::Partial ||
        policy == UpdatePolicy::PartialLazy;
    const bool lazy = policy == UpdatePolicy::PartialLazy;
    const u8 saturated = static_cast<u8>(max * int(taken));
    resolved.writes = 0;
#pragma GCC unroll 8
    for (unsigned bank = 0; bank < NumBanks; ++bank) {
        const bool bank_correct =
            resolved.bankPredictions[bank] == taken;
        const u8 value = values[bank];
        const int skip_partial = int(partial) & int(overall_correct) &
            int(!bank_correct);
        const int skip_lazy = int(lazy) & int(bank_correct) &
            int(value == saturated);
        const int write = 1 & ~(skip_partial | skip_lazy);
        const int up = int(taken) & int(value < max);
        const int down = int(!taken) & int(value > 0);
        resolved.next[bank] =
            static_cast<u8>(value + write * (up - down));
        resolved.skipPartial[bank] = skip_partial != 0;
        resolved.skipLazy[bank] = skip_lazy != 0;
        resolved.writes += unsigned(write);
    }
    return resolved;
}

/**
 * resolveSkewed() over every key of the phase-split transition
 * table for @p NumBanks banks of @p width-bit counters under
 * @p policy (key and entry layout in resolveSkewedBanks).
 */
template <unsigned NumBanks>
std::vector<u16>
buildTransitionTable(unsigned width, UpdatePolicy policy)
{
    const unsigned value_bits = NumBanks * width;
    const u8 max = static_cast<u8>(mask(width));
    const u8 threshold = static_cast<u8>(1u << (width - 1));
    std::vector<u16> table(std::size_t(2) << value_bits);
    for (unsigned key = 0; key < table.size(); ++key) {
        u8 values[NumBanks];
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            values[bank] = static_cast<u8>((key >> (bank * width)) & max);
        }
        const bool taken = (key >> value_bits) != 0;
        const SkewedResolve<NumBanks> resolved =
            resolveSkewed(values, taken, max, threshold, policy);
        unsigned entry = (unsigned(resolved.overall != taken) |
                          resolved.writes << 1)
            << value_bits;
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            entry |= unsigned(resolved.next[bank]) << (bank * width);
        }
        BP_CHECK(entry <= 0xffff, "transition entry overflows u16");
        table[key] = static_cast<u16>(entry);
    }
    return table;
}

/**
 * The transition table for @p NumBanks banks of @p width-bit
 * counters under @p policy; the group must fit one (skewTableFits).
 * A bank count's tables are built together on first use, once per
 * process, and never change; the function-local static makes that
 * safe from any thread and costs a predictor nothing to construct.
 */
template <unsigned NumBanks>
const u16 *
transitionTable(unsigned width, UpdatePolicy policy)
{
    BP_DCHECK(skewTableFits(NumBanks, width),
              "transitionTable: group too wide for a table");
    // Counter widths stop at 8 bits (u8 storage); one table per
    // width and policy, indexed by the policy's enum value.
    constexpr unsigned maxWidth =
        std::min((skewTableMaxKeyBits - 1) / NumBanks, 8u);
    constexpr std::size_t policies = 3;
    static const auto tables = [] {
        std::array<std::array<std::vector<u16>, policies>,
                   maxWidth + 1>
            built;
        for (unsigned w = 1; w <= maxWidth; ++w) {
            for (std::size_t p = 0; p < policies; ++p) {
                built[w][p] = buildTransitionTable<NumBanks>(
                    w, static_cast<UpdatePolicy>(p));
            }
        }
        return built;
    }();
    return tables[width][static_cast<std::size_t>(policy)].data();
}

} // namespace

/**
 * Skewed-predictor hot state (see block_kernel.hh): per-bank counter
 * views, a by-value Config, a by-value history register, and a local
 * write tally, so the vote/update loop runs entirely out of
 * registers and the (inlined) skewing hashes. The bank count is a
 * template parameter — withState() dispatches over the odd counts
 * the skewing family admits — so the bank loops fully unroll and
 * the skewH/skewHInverse subexpressions the f0/f1/f2 functions
 * share are computed once per branch, not once per bank.
 */
template <unsigned NumBanks>
struct SkewedPredictor::State
{
    static_assert(NumBanks >= 1 && NumBanks <= maxSkewBanks);

    SatCounterArray::View banks[NumBanks];
    Config config;
    GlobalHistory history;
    u64 bankWrites = 0;
    SkewedPredictor *owner;

    bool
    predict(Addr pc) const
    {
        unsigned votes_taken = 0;
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            votes_taken += unsigned(banks[bank].predictTaken(
                skewedBankIndex(config, bank, pc, history.raw())));
        }
        return votes_taken * 2 > NumBanks;
    }

    // Forced inline: at one bank GCC otherwise keeps this as a call
    // per branch, spilling the lifted state the kernel relies on.
    template <typename Sink>
    [[gnu::always_inline]] bool
    step(Addr pc, bool taken, Sink &sink)
    {
        // Per-bank indices and counter reads with the pre-branch
        // history, then the vote and the update policy.
        u64 indices[NumBanks];
        u8 values[NumBanks];
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            indices[bank] =
                skewedBankIndex(config, bank, pc, history.raw());
            values[bank] = banks[bank].value(indices[bank]);
        }
        const SkewedResolve<NumBanks> resolved =
            resolveSkewed(values, taken, banks[0].max,
                          banks[0].threshold, config.updatePolicy);
        if constexpr (publishes<Sink>) {
            sink.onResolved({pc, resolved.overall, taken});
            for (unsigned bank = 0; bank < NumBanks; ++bank) {
                sink.onBankVote({pc, bank,
                                 resolved.bankPredictions[bank],
                                 resolved.overall, taken});
            }
        }
#pragma GCC unroll 8
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            const u8 next = resolved.next[bank];
            banks[bank].at(indices[bank]) = next;
            if constexpr (publishes<Sink>) {
                if (resolved.skipPartial[bank]) {
                    sink.onUpdateSkip(
                        {bank, UpdateSkipEvent::Reason::PartialProtect});
                } else if (resolved.skipLazy[bank]) {
                    sink.onUpdateSkip(
                        {bank, UpdateSkipEvent::Reason::LazySaturated});
                } else if (next != values[bank]) {
                    sink.onCounterWrite({bank, values[bank], next});
                }
            }
        }
        bankWrites += resolved.writes;
        history.shiftIn(taken);
        return resolved.overall;
    }

    void unconditional(Addr) { history.shiftIn(true); }

    void
    commit()
    {
        owner->history = history;
        owner->bankWriteCount += bankWrites;
    }
};

template <typename Fn>
decltype(auto)
SkewedPredictor::withState(Fn &&fn)
{
    const auto run = [&]<unsigned NumBanks>() -> decltype(auto) {
        State<NumBanks> state{};
        for (unsigned bank = 0; bank < NumBanks; ++bank) {
            state.banks[bank] = banks.bankView(bank);
        }
        state.config = config;
        state.history = history;
        state.owner = this;
        return fn(state);
    };
    // The constructor admits only the family's odd bank counts.
    switch (config.numBanks) {
      case 1:
        return run.template operator()<1>();
      case 3:
        return run.template operator()<3>();
      case 5:
        return run.template operator()<5>();
    }
    panic("gskewed: bank count outside the skewing family");
}

const SkewedPredictor::Config &
SkewedPredictor::validated(const Config &config)
{
    if (config.numBanks % 2 == 0 || config.numBanks == 0 ||
        config.numBanks > maxSkewBanks) {
        fatal("gskewed: bank count must be odd and within the "
              "skewing family (got " +
              std::to_string(config.numBanks) + ")");
    }
    if (config.bankIndexBits < 1 || config.bankIndexBits > 28) {
        fatal("gskewed: unreasonable bank index width");
    }
    if (config.counterBits < 1 || config.counterBits > 8) {
        fatal("gskewed: bad counter width");
    }
    return config;
}

SkewedPredictor::SkewedPredictor(const Config &cfg)
    : config(validated(cfg)),
      banks(config.numBanks, u64(1) << config.bankIndexBits,
            config.counterBits, BankLayout::Interleaved)
{
}

SkewedPredictor::SkewedPredictor(unsigned num_banks,
                                 unsigned bank_index_bits,
                                 unsigned history_bits,
                                 UpdatePolicy policy,
                                 unsigned counter_bits)
    : SkewedPredictor(Config{num_banks, bank_index_bits, history_bits,
                             counter_bits, policy,
                             BankIndexing::Skewed, false})
{
}

std::vector<u64>
SkewedPredictor::bankIndices(Addr pc) const
{
    std::vector<u64> indices(config.numBanks);
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        indices[bank] = skewedBankIndex(config, bank, pc, history.raw());
    }
    return indices;
}

bool
SkewedPredictor::replayPhaseSplit(const BranchRecord *records,
                                  std::size_t count,
                                  ReplayCounters &counters,
                                  ReplayScratch &scratch)
{
    if (!simdSkewGeometryOk(config.bankIndexBits, config.historyBits) ||
        !skewTableFits(config.numBanks, config.counterBits) ||
        resolveSimdMode(scratch.mode) != SimdMode::Avx2) {
        return false;
    }
    // Covers both gskewed and e-gskew, one instantiation per bank
    // count: precompute every bank's indices for the block with the
    // vectorized f0..f4 kernels first (skewed_kernel_simd.hh) —
    // exact, because history advances on outcomes, never
    // predictions — then resolve fed by them, one transition-table
    // lookup per conditional, with cross-bank prefetch.
    return withState([&]<unsigned NumBanks>(State<NumBanks> &state) {
        const u16 *table = transitionTable<NumBanks>(
            config.counterBits, config.updatePolicy);
        const bool identical =
            config.indexing == BankIndexing::IdenticalGshare;
        // One u8 counter per entry per bank: the group's total
        // footprint decides whether the resolve pass prefetches.
        const bool prefetch = simdWantsCounterPrefetch(
            u64(NumBanks) << config.bankIndexBits);
        const u64 history_out = replayTiled(
            records, count, history.raw(), scratch, NumBanks,
            [&](std::size_t conditionals) {
                const u64 *pcs = scratch.pc.data();
                const u64 *hists = scratch.history.data();
                if (identical) {
                    // Pure replication: one shared index set.
                    fillGshareIndices(SimdMode::Avx2, pcs, hists,
                                      conditionals,
                                      config.historyBits,
                                      config.bankIndexBits,
                                      scratch.indices[0].data());
                } else {
                    // One fused pass: the banks share the packed
                    // vector and the four H permutation values,
                    // and e-gskew's address-only bank 0 rides
                    // along on the loaded pc lanes.
                    u32 *outs[NumBanks];
                    for (unsigned bank = 0; bank < NumBanks;
                         ++bank) {
                        outs[bank] = (config.enhanced && bank == 0)
                            ? nullptr
                            : scratch.indices[bank].data();
                    }
                    fillSkewIndexGroup(
                        SimdMode::Avx2, pcs, hists, conditionals,
                        config.historyBits, config.bankIndexBits,
                        NumBanks, outs,
                        config.enhanced
                            ? scratch.indices[0].data()
                            : nullptr);
                }
                u32 *idx[NumBanks];
                for (unsigned bank = 0; bank < NumBanks; ++bank) {
                    idx[bank] = identical
                        ? scratch.indices[0].data()
                        : scratch.indices[bank].data();
                }
                resolveSkewedBanks(
                    state.banks, idx, scratch.taken.data(),
                    conditionals, table, prefetch, counters,
                    bankWriteCount,
                    [&](unsigned bank, std::size_t j) -> u64 {
                        return skewedBankIndex(config, bank, pcs[j],
                                               hists[j]);
                    });
            });
        history.set(history_out);
        return true;
    });
}

std::string
SkewedPredictor::name() const
{
    std::string label = config.enhanced ? "e-gskew" : "gskewed";
    label += "-" + std::to_string(config.numBanks) + "x" +
        formatEntries(entriesPerBank());
    label += "-h" + std::to_string(config.historyBits);
    switch (config.updatePolicy) {
      case UpdatePolicy::Total:
        label += "-total";
        break;
      case UpdatePolicy::Partial:
        label += "-partial";
        break;
      case UpdatePolicy::PartialLazy:
        label += "-partial-lazy";
        break;
    }
    if (config.indexing == BankIndexing::IdenticalGshare) {
        label += "-identical";
    }
    return label;
}

u64
SkewedPredictor::storageBits() const
{
    return banks.storageBits();
}

void
SkewedPredictor::reset()
{
    banks.reset();
    history.reset();
    bankWriteCount = 0;
}

void
SkewedPredictor::saveState(std::ostream &os) const
{
    // Bank-by-bank framing, byte-identical to the pre-bank-group
    // stream of standalone SatCounterArray snapshots.
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        banks.saveBankState(bank, os);
    }
    putU64(os, history.raw());
    putU64(os, bankWriteCount);
}

void
SkewedPredictor::loadState(std::istream &is)
{
    for (unsigned bank = 0; bank < config.numBanks; ++bank) {
        banks.loadBankState(bank, is);
    }
    history.set(getU64(is));
    bankWriteCount = getU64(is);
}

template class BlockPredictor<SkewedPredictor>;

SkewedPredictor::Config
makeEnhancedConfig(unsigned bank_index_bits, unsigned history_bits,
                   unsigned counter_bits)
{
    SkewedPredictor::Config config;
    config.numBanks = 3;
    config.bankIndexBits = bank_index_bits;
    config.historyBits = history_bits;
    config.counterBits = counter_bits;
    config.updatePolicy = UpdatePolicy::Partial;
    config.indexing = BankIndexing::Skewed;
    config.enhanced = true;
    return config;
}

} // namespace bpred
