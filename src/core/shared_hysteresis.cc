#include "core/shared_hysteresis.hh"

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace bpred
{

SharedHysteresisSkewedPredictor::SharedHysteresisSkewedPredictor(
    const SkewedPredictor::Config &cfg)
    : config(cfg)
{
    if (config.numBanks % 2 == 0 || config.numBanks == 0 ||
        config.numBanks > maxSkewBanks) {
        fatal("gskewed-sh: bank count must be odd and within the "
              "skewing family");
    }
    if (config.bankIndexBits < 1 || config.bankIndexBits > 28) {
        fatal("gskewed-sh: unreasonable bank index width");
    }
    if (config.counterBits != 2) {
        fatal("gskewed-sh: the shared-hysteresis encoding splits "
              "2-bit counters; counterBits must be 2");
    }
    banks.resize(config.numBanks);
    const u64 entries = u64(1) << config.bankIndexBits;
    for (Bank &bank : banks) {
        bank.prediction.assign(entries, 0);
        bank.hysteresis.assign(std::max<u64>(1, entries / 2), 1);
    }
}

/**
 * Shared-hysteresis banks are byte vectors, not counter arrays, so
 * the State works on the predictor directly.
 */
struct SharedHysteresisSkewedPredictor::State
{
    SharedHysteresisSkewedPredictor &self;

    u64
    bankIndexOf(unsigned bank, Addr pc) const
    {
        return skewedBankIndex(self.config, bank, pc, self.history.raw());
    }

    bool
    predict(Addr pc) const
    {
        unsigned votes_taken = 0;
        for (unsigned bank = 0; bank < self.config.numBanks; ++bank) {
            votes_taken += unsigned(
                self.banks[bank].prediction[bankIndexOf(bank, pc)] != 0);
        }
        return votes_taken * 2 > self.config.numBanks;
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &)
    {
        const unsigned num_banks = self.config.numBanks;
        unsigned votes_taken = 0;
        u64 indices[maxSkewBanks];
        bool bank_predictions[maxSkewBanks];
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            indices[bank] = bankIndexOf(bank, pc);
            bank_predictions[bank] =
                self.banks[bank].prediction[indices[bank]] != 0;
            votes_taken += unsigned(bank_predictions[bank]);
        }
        const bool overall = votes_taken * 2 > num_banks;
        const bool partial =
            self.config.updatePolicy != UpdatePolicy::Total;
        for (unsigned bank = 0; bank < num_banks; ++bank) {
            if (partial && overall == taken &&
                bank_predictions[bank] != taken) {
                continue;
            }
            bankTrain(self.banks[bank], indices[bank], taken);
        }
        self.history.shiftIn(taken);
        return overall;
    }

    void unconditional(Addr) { self.history.shiftIn(true); }
};

SharedHysteresisSkewedPredictor::State
SharedHysteresisSkewedPredictor::state()
{
    return {*this};
}

void
SharedHysteresisSkewedPredictor::bankTrain(Bank &bank, u64 index,
                                           bool taken)
{
    // Reassemble the virtual 2-bit counter, step it, write back.
    const u64 hyst_index = index >> 1;
    u8 counter = static_cast<u8>((bank.prediction[index] << 1) |
                                 bank.hysteresis[hyst_index]);
    if (taken) {
        if (counter < 3) {
            ++counter;
        }
    } else {
        if (counter > 0) {
            --counter;
        }
    }
    bank.prediction[index] = static_cast<u8>(counter >> 1);
    bank.hysteresis[hyst_index] = static_cast<u8>(counter & 1);
}

std::string
SharedHysteresisSkewedPredictor::name() const
{
    std::string label =
        config.enhanced ? "e-gskew-sh" : "gskewed-sh";
    label += "-" + std::to_string(config.numBanks) + "x" +
        formatEntries(entriesPerBank());
    label += "-h" + std::to_string(config.historyBits);
    label += config.updatePolicy == UpdatePolicy::Total ? "-total"
                                                        : "-partial";
    return label;
}

u64
SharedHysteresisSkewedPredictor::storageBits() const
{
    u64 total = 0;
    for (const Bank &bank : banks) {
        total += bank.prediction.size() + bank.hysteresis.size();
    }
    return total;
}

void
SharedHysteresisSkewedPredictor::saveState(std::ostream &os) const
{
    for (const Bank &bank : banks) {
        putU64(os, bank.prediction.size());
        putBytes(os, bank.prediction.data(), bank.prediction.size());
        putU64(os, bank.hysteresis.size());
        putBytes(os, bank.hysteresis.data(), bank.hysteresis.size());
    }
    putU64(os, history.raw());
}

void
SharedHysteresisSkewedPredictor::loadState(std::istream &is)
{
    for (Bank &bank : banks) {
        if (getU64(is) != bank.prediction.size()) {
            fatal("gskewed-sh: snapshot geometry mismatch");
        }
        getBytes(is, bank.prediction.data(), bank.prediction.size());
        if (getU64(is) != bank.hysteresis.size()) {
            fatal("gskewed-sh: snapshot geometry mismatch");
        }
        getBytes(is, bank.hysteresis.data(), bank.hysteresis.size());
        for (const u8 bit : bank.prediction) {
            if (bit > 1) {
                fatal("gskewed-sh: snapshot bit out of range");
            }
        }
        for (const u8 bit : bank.hysteresis) {
            if (bit > 1) {
                fatal("gskewed-sh: snapshot bit out of range");
            }
        }
    }
    history.set(getU64(is));
}

void
SharedHysteresisSkewedPredictor::reset()
{
    for (Bank &bank : banks) {
        std::fill(bank.prediction.begin(), bank.prediction.end(), 0);
        std::fill(bank.hysteresis.begin(), bank.hysteresis.end(), 1);
    }
    history.reset();
}

template class BlockPredictor<SharedHysteresisSkewedPredictor>;

} // namespace bpred
