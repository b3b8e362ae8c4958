#include "model/extrapolation.hh"

#include <unordered_map>

#include "aliasing/stack_distance.hh"
#include "model/formulas.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "predictors/unaliased.hh"

namespace bpred
{

TraceModelInputs
measureModelInputs(const Trace &trace, unsigned history_bits)
{
    // Per-substream taken/total counts for the bias density, and an
    // unaliased 1-bit predictor for the baseline rate, in one pass.
    struct PairCounts
    {
        u64 taken = 0;
        u64 total = 0;
    };
    std::unordered_map<u64, PairCounts> pairs;
    UnaliasedPredictor unaliased(history_bits, 1);
    GlobalHistory history;
    u64 dynamic_branches = 0;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            unaliased.notifyUnconditional(record.pc);
            continue;
        }
        ++dynamic_branches;
        const u64 key =
            packInfoVector(record.pc, history.raw(), history_bits);
        PairCounts &counts = pairs[key];
        ++counts.total;
        if (record.taken) {
            ++counts.taken;
        }
        unaliased.predictAndUpdate(record.pc, record.taken);
        history.shiftIn(record.taken);
    }

    u64 biased_taken = 0;
    for (const auto &[key, counts] : pairs) {
        (void)key;
        if (2 * counts.taken >= counts.total) {
            ++biased_taken;
        }
    }

    TraceModelInputs inputs;
    inputs.biasTaken = pairs.empty()
        ? 0.5
        : static_cast<double>(biased_taken) /
            static_cast<double>(pairs.size());
    inputs.unaliasedMispredict = unaliased.mispredictionRatio();
    inputs.numSubstreams = pairs.size();
    inputs.dynamicBranches = dynamic_branches;
    return inputs;
}

ExtrapolationResult
extrapolateMispredictions(const Trace &trace, unsigned history_bits,
                          u64 bank_entries, u64 dm_entries,
                          const TraceModelInputs &inputs)
{
    StackDistanceTracker distances;
    GlobalHistory history;
    const double b = inputs.biasTaken;

    double skew_overhead = 0.0;
    double dm_overhead = 0.0;
    double p_sum = 0.0;
    u64 dynamic_branches = 0;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            continue;
        }
        ++dynamic_branches;
        const u64 key =
            packInfoVector(record.pc, history.raw(), history_bits);
        const u64 distance = distances.reference(key);

        const double p_bank = aliasingProbability(bank_entries, distance);
        const double p_dm = aliasingProbability(dm_entries, distance);
        skew_overhead += destructiveProbabilitySkewed3(p_bank, b);
        dm_overhead += destructiveProbabilityDirectMapped(p_dm, b);
        p_sum += p_bank;

        history.shiftIn(record.taken);
    }

    ExtrapolationResult result;
    result.inputs = inputs;
    if (dynamic_branches > 0) {
        const double n = static_cast<double>(dynamic_branches);
        result.skewedExtrapolated =
            skew_overhead / n + inputs.unaliasedMispredict;
        result.directMappedExtrapolated =
            dm_overhead / n + inputs.unaliasedMispredict;
        result.meanBankAliasingProbability = p_sum / n;
    }
    return result;
}

} // namespace bpred
