#include "sim/session.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "support/aligned.hh"
#include "support/check.hh"
#include "support/logging.hh"
#include "support/probe.hh"
#include "support/stat_registry.hh"
#include "support/tracing.hh"

namespace bpred
{

/** Records per attribution segment: one mask byte each. */
constexpr std::size_t maskRecords = 8192;

SimSession::SimSession(Predictor &predictor, const SimOptions &options,
                       std::string trace_name)
    : predictor(predictor), options(options),
      mispredicted(options.topSites > 0 || options.siteTallies
                       ? maskRecords
                       : 0),
      sites(options.topSites > 0 ? options.topSites : 1)
{
    result.predictorName = predictor.name();
    result.traceName = std::move(trace_name);
    result.storageBits = predictor.storageBits();
    result.windowSize = options.windowSize;
    if (options.probe) {
        previousProbe = predictor.attachProbe(options.probe);
    }
}

SimSession::~SimSession()
{
    if (!finished_ && options.probe) {
        predictor.attachProbe(previousProbe);
    }
}

void
SimSession::setTraceName(std::string trace_name)
{
    if (finished_) {
        fatal("SimSession: setTraceName after finish");
    }
    result.traceName = std::move(trace_name);
}

void
SimSession::useSharedScratch(ReplayScratch *shared)
{
    scratch = shared ? shared : &ownScratch;
}

void
SimSession::feed(const BranchRecord *records, std::size_t count)
{
    if (finished_) {
        fatal("SimSession: feed after finish");
    }
    TRACE_SCOPE("session", "feed", seen, count);
    const u64 feedStart =
        options.metrics ? trace::nowNs() : 0;
    // Only an explicit scalarReplay request takes the per-branch loop.
    if (options.scalarReplay) {
        feedScalar(records, count);
    } else {
        feedBlocks(records, count);
    }
    if (options.metrics) {
        StatRegistry &metrics = *options.metrics;
        ++metrics.counter("session.feeds");
        metrics.counter("session.records") += count;
        metrics.running("session.feed_seconds")
            .sample(double(trace::nowNs() - feedStart) / 1e9);
    }
}

void
SimSession::feedBlocks(const BranchRecord *records, std::size_t count)
{
    constexpr u64 unbounded = ~u64(0);
    const u64 warmup = options.warmupBranches;
    const u64 flush_interval = options.flushInterval;
    const u64 window_size = options.windowSize;

    // Re-stamped every feed: a gang-shared scratch is passed through
    // members whose SimOptions::simd may differ.
    scratch->mode = options.simd;

    // Only the reference kernels (null scratch) emit the mispredict
    // mask; attributing segments are capped at the mask's size.
    const bool attributing = !mispredicted.empty();
    ReplayScratch *const kernel_scratch = attributing ? nullptr : scratch;

    std::size_t at = 0;
    while (at < count) {
        // The next segment may consume at most `limit` conditional
        // branches: up to the next flush, the end of warmup, or the
        // close of the open window — whichever comes first. Each
        // bound is strictly positive (every boundary action below
        // re-arms its counter), so the loop always advances.
        const bool in_warmup = seen < warmup;
        u64 limit = unbounded;
        if (flush_interval) {
            limit = std::min(limit, flush_interval - sinceFlush);
        }
        if (in_warmup) {
            limit = std::min(limit, warmup - seen);
        } else if (window_size) {
            limit = std::min(limit, window_size - window.branches);
        }

        // Segment end: just past the limit-th conditional record,
        // or the chunk end. Trailing unconditionals fall into the
        // next segment, matching the scalar loop's ordering of
        // boundary actions before their notifyUnconditional().
        const std::size_t stop = attributing
            ? std::min(count, at + mispredicted.size())
            : count;
        std::size_t end = stop;
        if (limit != unbounded) {
            u64 conditionals = 0;
            for (end = at; end < stop && conditionals < limit; ++end) {
                conditionals += records[end].conditional ? 1 : 0;
            }
        }

        ReplayCounters tally;
        tally.mispredicted = attributing ? mispredicted.data() : nullptr;
        predictor.replayBlock(records + at, end - at, tally,
                              kernel_scratch);
        if (attributing) {
            attributeSegment(records + at, end - at, !in_warmup);
        }
        at = end;

        seen += tally.conditionals;
        if (flush_interval) {
            sinceFlush += tally.conditionals;
            if (sinceFlush == flush_interval) {
                TRACE_INSTANT("session", "flush");
                predictor.reset();
                sinceFlush = 0;
            }
        }
        if (in_warmup) {
            if (seen >= warmup) {
                TRACE_INSTANT("session", "warmup-complete");
            }
            continue; // warmup segments train without scoring
        }
        result.conditionals += tally.conditionals;
        result.mispredicts += tally.mispredicts;
        if (window_size) {
            window.branches += tally.conditionals;
            window.mispredicts += tally.mispredicts;
            if (window.branches == window_size) {
                result.windows.push_back(window);
                window = WindowSample();
            }
        }
    }
}

void
SimSession::attributeSegment(const BranchRecord *records,
                             std::size_t count, bool scored)
{
    TRACE_SCOPE("session", "site-attribution", seen, count);
    SiteTallies *const tallies = options.siteTallies;
    const bool track_sites = scored && options.topSites > 0;
    const u8 *wrong = mispredicted.data();
    for (std::size_t i = 0; i < count; ++i) {
        const BranchRecord &record = records[i];
        if (!record.conditional) {
            continue;
        }
        const bool miss = *wrong++ != 0;
        if (tallies) {
            (*tallies)[record.pc].add(miss);
        }
        if (track_sites && miss) {
            sites.add(record.pc);
        }
    }
}

void
SimSession::feedScalar(const BranchRecord *records, std::size_t count)
{
    // Hot counters live in locals for the duration of the chunk;
    // member writes happen once per feed(), not once per branch, so
    // the streaming path matches the batch loop's throughput.
    Predictor &pred = predictor;
    u64 seen_local = seen;
    u64 since_flush = sinceFlush;
    u64 conditionals = result.conditionals;
    u64 mispredicts = result.mispredicts;
    const u64 warmup = options.warmupBranches;
    const u64 flush_interval = options.flushInterval;
    const u64 window_size = options.windowSize;
    const bool track_sites = options.topSites > 0;

    for (std::size_t i = 0; i < count; ++i) {
        const BranchRecord &record = records[i];
        if (!record.conditional) {
            pred.notifyUnconditional(record.pc);
            continue;
        }
        // Fused fast path: one virtual dispatch and one index
        // computation per branch (contract-equivalent to
        // predict() + update(); test_predictor_contract guards it).
        const bool wrong =
            pred.predictAndUpdate(record.pc, record.taken).prediction !=
            record.taken;
        if (options.siteTallies) {
            (*options.siteTallies)[record.pc].add(wrong);
        }
        ++seen_local;
        if (flush_interval && ++since_flush == flush_interval) {
            TRACE_INSTANT("session", "flush");
            pred.reset();
            since_flush = 0;
        }
        if (seen_local <= warmup) {
            if (seen_local == warmup) {
                TRACE_INSTANT("session", "warmup-complete");
            }
            continue;
        }
        ++conditionals;
        if (wrong) {
            ++mispredicts;
            if (track_sites) {
                sites.add(record.pc);
            }
        }
        if (window_size > 0) {
            ++window.branches;
            if (wrong) {
                ++window.mispredicts;
            }
            if (window.branches == window_size) {
                result.windows.push_back(window);
                window = WindowSample();
            }
        }
    }

    seen = seen_local;
    sinceFlush = since_flush;
    result.conditionals = conditionals;
    result.mispredicts = mispredicts;
}

SimResult
SimSession::finish()
{
    if (finished_) {
        fatal("SimSession: finish called twice");
    }
    TRACE_SCOPE("session", "finish");
    finished_ = true;

    if (options.metrics) {
        options.metrics->counter("session.conditionals") = seen;
    }

    if (options.windowSize > 0 && window.branches > 0) {
        result.windows.push_back(window);
        window = WindowSample();
    }
    if (options.topSites > 0) {
        for (const TopKCounter::Item &item : sites.items()) {
            result.topSites.push_back(
                {item.key, item.count, item.overcount});
        }
    }
    if (options.probe) {
        predictor.attachProbe(previousProbe);
    }
    return std::move(result);
}

SimResult
simulateSource(Predictor &predictor, TraceSource &source,
               const SimOptions &options, std::size_t chunk_records)
{
    if (chunk_records == 0) {
        fatal("simulateSource: zero chunk size");
    }
    SimSession session(predictor, options, source.name());
    // Cache-line aligned so the block kernels' prefetch/vector
    // passes never straddle a line at the chunk head.
    AlignedVector<BranchRecord> chunk(chunk_records);
    BP_DCHECK(isCacheAligned(chunk.data()),
              "simulateSource: chunk buffer not cache aligned");
    while (true) {
        std::size_t n = 0;
        {
            TRACE_SCOPE("session", "refill", session.conditionalsSeen(),
                        chunk_records);
            n = source.pull(chunk.data(), chunk.size());
        }
        if (n == 0) {
            break;
        }
        session.feed(chunk.data(), n);
    }
    return session.finish();
}

} // namespace bpred
