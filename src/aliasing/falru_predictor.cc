#include "aliasing/falru_predictor.hh"

#include "predictors/block_kernel.hh"
#include "predictors/info_vector.hh"
#include "support/serialize.hh"

namespace bpred
{

FaLruPredictor::FaLruPredictor(u64 capacity, unsigned history_bits,
                               unsigned counter_bits)
    : table(capacity),
      prototype(counter_bits),
      historyBits(history_bits),
      counterBits(counter_bits)
{
}

u64
FaLruPredictor::keyOf(Addr pc) const
{
    return packInfoVector(pc, history.raw(), historyBits);
}

/**
 * The FA-LRU predictor's state is an LRU tag store, not a counter
 * array, so its State works on the predictor directly.
 */
struct FaLruPredictor::State
{
    FaLruPredictor &self;

    bool
    predict(Addr pc) const
    {
        const u8 *payload = self.table.peek(self.keyOf(pc));
        // A miss falls back to the static always-taken prediction.
        return payload == nullptr ||
            SatCounter(self.counterBits, *payload).predictTaken();
    }

    template <typename Sink>
    bool
    step(Addr pc, bool taken, Sink &)
    {
        const u64 key = self.keyOf(pc);
        u8 *payload = self.table.access(key);
        bool prediction = true; // a miss predicts always-taken
        if (payload == nullptr) {
            // Fresh entry: initialize strongly toward the outcome.
            SatCounter counter(self.counterBits);
            counter.setStrong(taken);
            self.table.setPayload(key, counter.value());
        } else {
            SatCounter counter(self.counterBits, *payload);
            prediction = counter.predictTaken();
            counter.update(taken);
            *payload = counter.value();
        }
        self.history.shiftIn(taken);
        return prediction;
    }

    void unconditional(Addr) { self.history.shiftIn(true); }
};

FaLruPredictor::State
FaLruPredictor::state()
{
    return {*this};
}

std::string
FaLruPredictor::name() const
{
    return "fa-lru-" + std::to_string(table.capacity()) + "-h" +
        std::to_string(historyBits);
}

u64
FaLruPredictor::storageBits() const
{
    // Identity tag: address bits (conservatively 30) + history bits.
    const u64 tag_bits = 30 + historyBits;
    return table.capacity() * (counterBits + tag_bits);
}

void
FaLruPredictor::reset()
{
    table.reset();
    history.reset();
}

void
FaLruPredictor::saveState(std::ostream &os) const
{
    table.saveState(os);
    putU64(os, history.raw());
}

void
FaLruPredictor::loadState(std::istream &is)
{
    // Read everything before committing any of it, so a rejected
    // stream leaves this predictor as it was.
    FullyAssociativeLruTable restored(table.capacity());
    restored.loadState(is);
    const u64 raw_history = getU64(is);
    table = std::move(restored);
    history.set(raw_history);
}

template class BlockPredictor<FaLruPredictor>;

} // namespace bpred
