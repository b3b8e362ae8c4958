#include "core/skewed_local.hh"

#include <cassert>

#include "core/skew.hh"
#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

SkewedLocalPredictor::SkewedLocalPredictor(unsigned bht_index_bits,
                                           unsigned local_history_bits,
                                           unsigned num_banks,
                                           unsigned bank_index_bits,
                                           UpdatePolicy policy,
                                           unsigned counter_bits)
    : historyTable(u64(1) << bht_index_bits, 0),
      bhtIndexBits(bht_index_bits),
      localHistoryBits(local_history_bits),
      bankIndexBits(bank_index_bits),
      updatePolicy(policy)
{
    if (num_banks % 2 == 0 || num_banks == 0 ||
        num_banks > maxSkewBanks) {
        fatal("pskew: bank count must be odd and within the skewing "
              "family");
    }
    if (local_history_bits < 1 || local_history_bits > 16) {
        fatal("pskew: local history length out of range");
    }
    banks.reserve(num_banks);
    for (unsigned bank = 0; bank < num_banks; ++bank) {
        banks.emplace_back(u64(1) << bank_index_bits, counter_bits);
    }
}

u64
SkewedLocalPredictor::bankIndexOf(unsigned bank, Addr pc,
                                  u16 local_history) const
{
    // The information vector is (address, local history) — the
    // same packing as the global schemes, with the local history
    // in the low bits.
    const u64 v = packInfoVector(pc, local_history, localHistoryBits);
    return skewIndex(bank, v, bankIndexBits);
}

/**
 * pskew's banks and history table are containers of its own, so
 * the State works on the predictor directly.
 */
struct SkewedLocalPredictor::State
{
    SkewedLocalPredictor &self;

    bool
    predict(Addr pc) const
    {
        const u16 local_history =
            self.historyTable[addressIndex(pc, self.bhtIndexBits)];
        unsigned votes_taken = 0;
        for (unsigned bank = 0; bank < self.banks.size(); ++bank) {
            votes_taken += unsigned(self.banks[bank].predictTaken(
                self.bankIndexOf(bank, pc, local_history)));
        }
        return votes_taken * 2 > self.banks.size();
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &)
    {
        u16 &local_history =
            self.historyTable[addressIndex(pc, self.bhtIndexBits)];
        const unsigned num_banks = unsigned(self.banks.size());
        unsigned votes_taken = 0;
        u64 indices[maxSkewBanks];
        bool bank_predictions[maxSkewBanks];
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            indices[bank] = self.bankIndexOf(bank, pc, local_history);
            bank_predictions[bank] =
                self.banks[bank].predictTaken(indices[bank]);
            votes_taken += unsigned(bank_predictions[bank]);
        }
        const bool overall = votes_taken * 2 > num_banks;
        const bool partial = self.updatePolicy != UpdatePolicy::Total;
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (partial && overall == taken &&
                bank_predictions[bank] != taken) {
                continue;
            }
            self.banks[bank].update(indices[bank], taken);
        }
        local_history = static_cast<u16>(
            ((local_history << 1) | (taken ? 1 : 0)) &
            mask(self.localHistoryBits));
        return overall;
    }
};

SkewedLocalPredictor::State
SkewedLocalPredictor::state()
{
    return {*this};
}

std::string
SkewedLocalPredictor::name() const
{
    return "pskew-" + formatEntries(historyTable.size()) + "x" +
        std::to_string(localHistoryBits) + "-" +
        std::to_string(banks.size()) + "x" +
        formatEntries(u64(1) << bankIndexBits);
}

u64
SkewedLocalPredictor::storageBits() const
{
    u64 total = historyTable.size() * localHistoryBits;
    for (const auto &bank : banks) {
        total += bank.storageBits();
    }
    return total;
}

void
SkewedLocalPredictor::reset()
{
    std::fill(historyTable.begin(), historyTable.end(), 0);
    for (auto &bank : banks) {
        bank.reset();
    }
}

void
SkewedLocalPredictor::saveState(std::ostream &os) const
{
    putU64(os, historyTable.size());
    for (const u16 entry : historyTable) {
        putU16(os, entry);
    }
    for (const auto &bank : banks) {
        bank.saveState(os);
    }
}

void
SkewedLocalPredictor::loadState(std::istream &is)
{
    const u64 count = getU64(is);
    if (count != historyTable.size()) {
        fatal("pskew snapshot: history table size mismatch (stored " +
              std::to_string(count) + ", predictor has " +
              std::to_string(historyTable.size()) + ")");
    }
    std::vector<u16> restored(historyTable.size());
    for (u16 &entry : restored) {
        entry = getU16(is);
        if (entry > mask(localHistoryBits)) {
            fatal("pskew snapshot: local history exceeds " +
                  std::to_string(localHistoryBits) + " bits");
        }
    }
    for (auto &bank : banks) {
        bank.loadState(is);
    }
    historyTable = std::move(restored);
}

template class BlockPredictor<SkewedLocalPredictor>;

} // namespace bpred
