#include "trace/trace.hh"

namespace bpred
{

double
TraceStats::takenRatio() const
{
    return dynamicConditional == 0
        ? 0.0
        : static_cast<double>(takenConditional) /
            static_cast<double>(dynamicConditional);
}

double
TraceStats::dynamicPerStatic() const
{
    return staticConditional == 0
        ? 0.0
        : static_cast<double>(dynamicConditional) /
            static_cast<double>(staticConditional);
}

void
TraceStatsAccumulator::add(const BranchRecord *records,
                           std::size_t count)
{
    u64 conditionals = 0;
    u64 taken = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const BranchRecord &record = records[i];
        sites[record.pc] |= record.conditional ? 1 : 2;
        conditionals += record.conditional ? 1 : 0;
        taken += record.conditional && record.taken ? 1 : 0;
    }
    dynamic.dynamicConditional += conditionals;
    dynamic.dynamicUnconditional += count - conditionals;
    dynamic.takenConditional += taken;
}

TraceStats
TraceStatsAccumulator::stats() const
{
    TraceStats stats = dynamic;
    sites.forEach([&](Addr, u8 kinds) {
        stats.staticConditional += kinds & 1;
        stats.staticUnconditional += kinds >> 1;
    });
    return stats;
}

TraceStats
computeTraceStats(const Trace &trace)
{
    TraceStatsAccumulator stats;
    stats.add(trace.records().data(), trace.size());
    return stats.stats();
}

} // namespace bpred
