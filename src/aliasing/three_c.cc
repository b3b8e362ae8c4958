#include "aliasing/three_c.hh"

#include "aliasing/fa_lru_table.hh"
#include "aliasing/tagged_table.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "support/logging.hh"
#include "support/site_table.hh"

namespace bpred
{

ThreeCsResult
measureThreeCs(const Trace &trace, const IndexFunction &function)
{
    return measureThreeCsMulti(trace, {function}).front();
}

std::vector<ThreeCsResult>
measureThreeCsMulti(const Trace &trace,
                    const std::vector<IndexFunction> &functions,
                    u64 fa_entries)
{
    if (functions.empty()) {
        fatal("measureThreeCsMulti: no index functions given");
    }
    const unsigned history_bits = functions.front().historyBits;
    for (const IndexFunction &function : functions) {
        if (function.historyBits != history_bits) {
            fatal("measureThreeCsMulti: functions must share "
                  "historyBits");
        }
    }
    if (fa_entries == 0) {
        fa_entries = u64(1) << functions.front().indexBits;
    }

    std::vector<TaggedDirectMappedTable> dm_tables;
    dm_tables.reserve(functions.size());
    for (const IndexFunction &function : functions) {
        dm_tables.emplace_back(function.indexBits);
    }

    FullyAssociativeLruTable fa_table(fa_entries);
    // Keyed by information vector, not PC: one key per first
    // reference.
    SiteTable<u8> seen;
    GlobalHistory history;
    u64 dynamic_branches = 0;

    for (const BranchRecord &record : trace) {
        if (!record.conditional) {
            history.shiftIn(true);
            continue;
        }
        ++dynamic_branches;
        const u64 key =
            packInfoVector(record.pc, history.raw(), history_bits);

        for (std::size_t i = 0; i < functions.size(); ++i) {
            const u64 index = functions[i](record.pc, history.raw());
            dm_tables[i].access(index, key);
        }
        if (fa_table.access(key) == nullptr) {
            // Only a miss can be a first reference.
            seen[key] = 1;
        }
        history.shiftIn(record.taken);
    }

    std::vector<ThreeCsResult> results;
    results.reserve(functions.size());
    const double compulsory_ratio = dynamic_branches == 0
        ? 0.0
        : static_cast<double>(seen.size()) /
            static_cast<double>(dynamic_branches);
    for (std::size_t i = 0; i < functions.size(); ++i) {
        ThreeCsResult result;
        result.function = functions[i];
        result.dynamicBranches = dynamic_branches;
        result.totalAliasing = dm_tables[i].aliasing().ratio();
        result.faMissRatio = fa_table.missStat().ratio();
        result.compulsory = compulsory_ratio;
        results.push_back(result);
    }
    return results;
}

} // namespace bpred
