/**
 * @file
 * serve-open: a PredictorPool serving egskew:10:8 to 10k tenants
 * from 2 shards under open-loop Poisson arrivals stepped over a
 * fixed ladder of offered rates, then a closed-loop flood for the
 * saturation throughput. Every request is checked afterwards
 * against a dedicated per-tenant SimSession fed the same records.
 *
 * Latency from the due time: the generator calls submit() at each
 * request's due time, and the pool times every request from that
 * call to its completion (requestLatencyUs). A request's latency
 * from its due time is therefore the generator's lateness plus the
 * pool's figure; the pool keeps no per-request record to pair the
 * two, so a percentile is reported as the sum of the two
 * percentiles. The pool offers no completion callback, and polling
 * its tallies from the generator blocks on the shard lock, which
 * would itself make the generator late.
 */

#include "serve.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "predictors/replay_scratch.hh"
#include "serve/predictor_pool.hh"
#include "serve/tenant_cache.hh"
#include "sim/factory.hh"
#include "sim/session.hh"
#include "support/rng.hh"

namespace perfbench
{

namespace
{

constexpr const char *serveSpec = "egskew:10:8";
constexpr u64 tenantCount = 10000;
constexpr unsigned shardCount = 2;
constexpr std::size_t residentPerShard = 384;
constexpr std::size_t inboxBound = 512;
constexpr std::size_t requestRecords = 256;
constexpr double zipfExponent = 1.0;

/** Threads for the untimed reference check (the pool is idle). */
constexpr unsigned verifyThreads = 3;

/** Offered rates, k requests/s, ascending. */
constexpr double ladderKrps[] = {10,  20,  40,  60,  80,  90,  100, 110,
                                 120, 130, 140, 150, 165, 180, 200};

/** The fixed middle rate p50_ms/p99_ms are reported at. */
constexpr std::size_t middleStep = 3;

/** Ladder window length, as a share of the run's --seconds. */
constexpr double windowShare = 0.01;

/** Windows per ladder step, and for the middle step. */
constexpr std::size_t stepWindows = 3;
constexpr std::size_t middleWindows = 9;

/**
 * The saturation flood: a fixed request count per --seconds (so the
 * cache churn, and the memory it leaves, is the same every run), in
 * rateBlocks parts.
 */
constexpr double floodRequestsPerSecond = 15000;

} // namespace

Traffic::Traffic(const std::vector<bpred::Trace> &traces_, u64 seed)
    : traces(traces_), rankToTenant(tenantCount), base(tenantCount)
{
    bpred::Rng rng(seed ^ 0x5e12e0be11ULL);
    for (u64 t = 0; t < tenantCount; ++t) {
        rankToTenant[t] = t;
    }
    rng.shuffle(rankToTenant);
    for (u64 t = 0; t < tenantCount; ++t) {
        base[t] = rng.uniformInt(traceOf(t).size() - requestRecords);
    }
}

const bpred::Trace &
Traffic::traceOf(u64 tenant) const
{
    return traces[tenant % traces.size()];
}

const bpred::BranchRecord *
Traffic::slice(u64 tenant, u64 seq) const
{
    const bpred::Trace &trace = traceOf(tenant);
    const u64 span = trace.size() - requestRecords;
    const u64 offset = (base[tenant] + (seq - 1) * 977) % span;
    return trace.records().data() + offset;
}

u64
Traffic::pickTenant(bpred::Rng &rng) const
{
    return rankToTenant[rng.zipf(tenantCount, zipfExponent)];
}

ServeFixture::ServeFixture(const std::vector<bpred::Trace> &traces,
                           u64 seed_, const Settings &settings_)
    : traffic(traces, seed_), seed(seed_), settings(settings_),
      submitted(tenantCount, 0)
{
    bpred::PredictorPool::Options options;
    options.shards = shardCount;
    options.tenantCapacity = residentPerShard;
    options.blockRecords = settings.blockRecords;
    options.maxQueuedRequests = inboxBound;
    pool = std::make_unique<bpred::PredictorPool>(
        bpred::parseSpec(serveSpec), options);
}

ServeFixture::~ServeFixture() = default;

void
ServeFixture::submit(u64 tenant)
{
    const u64 seq = ++submitted[tenant];
    pool->submit({tenant, traffic.slice(tenant, seq), requestRecords});
}

void
ServeFixture::warmStart()
{
    for (u64 t = 0; t < tenantCount; ++t) {
        submit(t);
    }
    pool->drain();
}

StepStats
ServeFixture::runStep(double krps, double window_seconds, u64 step_seed,
                      std::size_t windows)
{
    StepStats stats;
    bpred::Rng rng(seed * 1000003 + step_seed);
    const double rate = krps * 1e3;
    std::vector<double> drains;
    LatencyCounts done = pool->requestLatencyUs().sorted();
    for (std::size_t w = 0; w < windows; ++w) {
        // Each window is its own arrival schedule, followed by a
        // drain and a histogram snapshot: the generator never takes
        // a shard lock while requests are due.
        StepStats::Window window;
        const double start = now() + 1e-3;
        const double end = start + window_seconds;
        double due = start - std::log(1.0 - rng.uniformReal()) / rate;
        while (due < end) {
            const double t = now();
            if (t < due) {
                continue;
            }
            const u64 tenant = traffic.pickTenant(rng);
            window.lagUs.push_back((t - due) * 1e6);
            window.submitWaitUs.push_back(
                timed([&] { submit(tenant); }) * 1e6);
            due -= std::log(1.0 - rng.uniformReal()) / rate;
        }
        drains.push_back(timed([&] { pool->drain(); }) * 1e3);

        // This window's completions: the cumulative counts now, less
        // the counts at the previous snapshot (both sorted by key).
        LatencyCounts now_done = pool->requestLatencyUs().sorted();
        std::size_t j = 0;
        for (const auto &[key, n] : now_done) {
            while (j < done.size() && done[j].first < key) {
                ++j;
            }
            const u64 before =
                j < done.size() && done[j].first == key ? done[j].second : 0;
            if (n > before) {
                window.enqueueToDoneUs.emplace_back(key, n - before);
            }
        }
        done = std::move(now_done);
        stats.windows.push_back(std::move(window));
    }
    stats.drainMs = median(drains);
    return stats;
}

double
StepStats::latencyMs(double q) const
{
    std::vector<double> per_window;
    for (const Window &window : windows) {
        per_window.push_back((countsPercentile(window.enqueueToDoneUs, q) +
                              percentile(window.lagUs, q)) /
                             1e3);
    }
    return median(per_window);
}

double
countsPercentile(const LatencyCounts &counts, double q)
{
    u64 total = 0;
    for (const auto &entry : counts) {
        total += entry.second;
    }
    const double rank = std::ceil(q * static_cast<double>(total));
    u64 seen = 0;
    for (const auto &[key, n] : counts) {
        seen += n;
        if (static_cast<double>(seen) >= rank) {
            return static_cast<double>(key);
        }
    }
    return counts.empty() ? 0.0 : static_cast<double>(counts.back().first);
}

LatencyCounts
StepStats::pooledEnqueueToDone() const
{
    std::map<u64, u64> merged;
    for (const Window &window : windows) {
        for (const auto &[key, n] : window.enqueueToDoneUs) {
            merged[key] += n;
        }
    }
    return LatencyCounts(merged.begin(), merged.end());
}

std::vector<double>
StepStats::pooled(std::vector<double> Window::*field) const
{
    std::vector<double> all;
    for (const Window &window : windows) {
        all.insert(all.end(), (window.*field).begin(), (window.*field).end());
    }
    return all;
}

FloodStats
ServeFixture::flood(u64 requests, u64 flood_seed)
{
    FloodStats stats;
    bpred::Rng rng(seed * 7919 + flood_seed);
    const double start = now();
    for (u64 i = 0; i < requests; ++i) {
        submit(traffic.pickTenant(rng));
    }
    pool->drain();
    stats.requests = requests;
    stats.seconds = now() - start;
    return stats;
}

u64
ServeFixture::verify(u64 &digest) const
{
    // Untimed: the reference sessions run on verifyThreads threads,
    // each taking every verifyThreads-th tenant.
    std::vector<u64> mismatched(tenantCount, 0);
    std::vector<bpred::TenantSummary> got(tenantCount);
    auto check = [&](u64 first) {
        for (u64 t = first; t < tenantCount; t += verifyThreads) {
            got[t] = pool->tenantSummary(t);
            auto predictor = bpred::makePredictor(serveSpec);
            bpred::SimOptions options;
            options.simd = settings.simd;
            bpred::SimSession session(*predictor, options);
            for (u64 seq = 1; seq <= submitted[t]; ++seq) {
                session.feed(traffic.slice(t, seq), requestRecords);
            }
            const bpred::SimResult want = session.finish();
            mismatched[t] = got[t].requests != submitted[t] ||
                got[t].conditionals != want.conditionals ||
                got[t].mispredicts != want.mispredicts;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < verifyThreads; ++k) {
        threads.emplace_back(check, k);
    }
    for (std::thread &thread : threads) {
        thread.join();
    }

    u64 bad = 0;
    digest = 0xcbf29ce484222325ULL;
    for (u64 t = 0; t < tenantCount; ++t) {
        bad += mismatched[t];
        digest = fnv1a(std::to_string(t) + ":" +
                           std::to_string(got[t].conditionals) + ":" +
                           std::to_string(got[t].mispredicts) + ";",
                       digest);
    }
    return bad;
}

u64
ServeFixture::requestsSubmitted() const
{
    u64 total = 0;
    for (const u64 n : submitted) {
        total += n;
    }
    return total;
}

CacheProbe
probeTenantCache(const std::vector<bpred::Trace> &traces, u64 seed,
                 const Settings &settings, std::size_t requests)
{
    // Same tenant sequence and slices as the pool, one cache per
    // shard, driven inline on this thread.
    const Traffic traffic(traces, seed);
    std::vector<std::unique_ptr<bpred::TenantCache>> caches;
    for (unsigned s = 0; s < shardCount; ++s) {
        bpred::TenantCache::Options options;
        options.capacity = residentPerShard;
        caches.push_back(std::make_unique<bpred::TenantCache>(
            bpred::parseSpec(serveSpec), options));
    }
    bpred::ReplayScratch scratch;
    scratch.mode = settings.simd;
    bpred::Rng rng(seed * 7919 + 1);
    std::vector<u64> seqs(tenantCount, 0);

    CacheProbe probe;
    for (std::size_t i = 0; i < requests; ++i) {
        const u64 tenant = i < tenantCount ? i : traffic.pickTenant(rng);
        bpred::TenantCache &cache = *caches[tenant % shardCount];
        const bpred::TenantCacheCounters before = cache.counters();
        const double t0 = now();
        bpred::Predictor &predictor = cache.acquire(tenant);
        const double t1 = now();
        bpred::ReplayCounters counters;
        predictor.replayBlock(traffic.slice(tenant, ++seqs[tenant]),
                              requestRecords, counters, &scratch);
        const double t2 = now();
        probe.acquireSeconds += t1 - t0;
        probe.replaySeconds += t2 - t1;
        if (i < tenantCount) {
            continue; // warm start: every tenant constructed once
        }
        const bpred::TenantCacheCounters &after = cache.counters();
        const double us = (t1 - t0) * 1e6;
        if (after.restores != before.restores) {
            probe.restoreUs.push_back(us);
        } else if (after.constructions != before.constructions) {
            probe.constructUs.push_back(us);
        } else {
            probe.hitUs.push_back(us);
        }
        probe.replayUs.push_back((t2 - t1) * 1e6);
    }
    probe.requests = requests;

    u64 checkpoint_bytes = 0;
    u64 checkpointed = 0;
    for (const auto &cache : caches) {
        checkpoint_bytes += cache->checkpointBytes();
        checkpointed += cache->knownTenants() - cache->resident();
    }
    probe.bytesPerTenant = checkpointed == 0
        ? 0.0
        : static_cast<double>(checkpoint_bytes) /
            static_cast<double>(checkpointed);

    // First-touch tenants constructed in the warm start; time a few
    // constructions directly so the metric always has samples.
    if (probe.constructUs.empty()) {
        for (int i = 0; i < 64; ++i) {
            probe.constructUs.push_back(
                timed([] { bpred::makePredictor(serveSpec); }) * 1e6);
        }
    }
    // Explicit saves (the BPS1 write) of resident tenants.
    for (const auto &cache : caches) {
        for (u64 t = 0; t < tenantCount && probe.saveUs.size() < 512; ++t) {
            if (cache->isResident(t)) {
                probe.saveUs.push_back(
                    timed([&] { cache->evict(t); }) * 1e6);
            }
        }
    }
    return probe;
}

LadderResult
runLadder(ServeFixture &fixture, double window_seconds, double limit_ms)
{
    const std::vector<double> rates(std::begin(ladderKrps),
                                    std::end(ladderKrps));
    LadderResult ladder;
    bool knee = false;
    double prev_score = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const std::size_t windows =
            i == middleStep ? middleWindows : stepWindows;
        StepStats stats = fixture.runStep(rates[i], window_seconds, i, windows);
        const double p99 = stats.latencyMs(0.99);
        // A step passes when its p99 meets the limit and the backlog
        // left at a window's end drains within the limit too.
        const double score = std::max(p99, stats.drainMs);
        std::printf("step %.0fk requests %zu p50_ms %.3f p99_ms %.3f "
                    "drain_ms %.3f lag_p99_us %.1f\n",
                    rates[i], stats.requests(), stats.latencyMs(0.5), p99,
                    stats.drainMs,
                    percentile(stats.pooled(&StepStats::Window::lagUs),
                               0.99));
        if (!knee && score > limit_ms) {
            // Interpolate log(score) linearly in rate between the
            // last passing step and this one.
            knee = true;
            ladder.maxKrps = i == 0
                ? rates[0] * limit_ms / score
                : rates[i - 1] +
                    (rates[i] - rates[i - 1]) *
                        (std::log(limit_ms) - std::log(prev_score)) /
                        (std::log(score) - std::log(prev_score));
        } else if (!knee) {
            ladder.maxKrps = rates[i];
        }
        if (i == middleStep) {
            ladder.middle = std::move(stats);
        } else if (i + 1 == rates.size()) {
            ladder.top = std::move(stats);
        }
        prev_score = score;
    }
    if (!knee) {
        std::fprintf(stderr, "serve: every ladder step met the limit; "
                             "max_rate_krps is the top rate\n");
    }
    return ladder;
}

RunResult
runServeOpen(const Args &args, const Settings &settings)
{
    double setup_seconds = 0.0;
    struct State
    {
        // Heap-held: the fixture keeps a reference across moves.
        std::unique_ptr<std::vector<bpred::Trace>> traces;
        std::unique_ptr<ServeFixture> fixture;
        double generateSeconds = 0.0;
        u64 records = 0;
    };
    State state = repeatedSetup(setup_seconds, [&] {
        State fresh;
        fresh.traces = std::make_unique<std::vector<bpred::Trace>>();
        const double start = now();
        for (const char *name : {"groff", "gs"}) {
            fresh.traces->push_back(makeTrace(name, 0.25, args.seed));
            fresh.records += fresh.traces->back().size();
        }
        fresh.generateSeconds = now() - start;
        fresh.fixture = std::make_unique<ServeFixture>(*fresh.traces,
                                                       args.seed, settings);
        fresh.fixture->warmStart();
        return fresh;
    });
    ServeFixture &fixture = *state.fixture;

    RunResult result;
    if (args.traced) {
        LayerInputs inputs;
        inputs.workload = args.workload;
        inputs.op = [&] { fixture.flood(30000, 99); };
        inputs.traces = state.traces.get();
        inputs.generateSeconds = state.generateSeconds;
        inputs.generatedRecords = state.records;
        probeLayers(inputs, args, settings, result);
    } else {
        // The open-loop ladder is the workload's load shape; its
        // latency figures are printed here and reported, unbounded,
        // by the traced run (see README.md for why).
        const LadderResult ladder =
            runLadder(fixture, args.seconds * windowShare, args.p99LimitMs);
        std::printf("ladder middle %.0fk p50_ms %.4f p99_ms %.4f samples %zu "
                    "max_rate_krps %.2f\n",
                    ladderKrps[middleStep], ladder.middle.latencyMs(0.5),
                    ladder.middle.latencyMs(0.99), ladder.middle.requests(),
                    ladder.maxKrps);
        std::vector<Timed> floods;
        for (u64 i = 0; i < rateBlocks; ++i) {
            const FloodStats flood = fixture.flood(
                static_cast<u64>(args.seconds * floodRequestsPerSecond /
                                 rateBlocks),
                i);
            floods.push_back(
                {static_cast<double>(flood.requests * requestRecords),
                 flood.seconds});
        }
        result.set("throughput_mrec_s",
                   medianBlockRate(floods, rateBlocks) / 1e6, "Mrec/s");
        result.set("setup_s", setup_seconds, "s");
        result.set("peak_rss_mb", peakRssMb(), "MB");
    }

    u64 digest = 0;
    const u64 bad = fixture.verify(digest);
    result.count(fixture.requestsSubmitted(), bad);
    std::printf("digest serve-open tenants %s mismatched %llu of %zu "
                "requests %llu\n",
                hex64(digest).c_str(), static_cast<unsigned long long>(bad),
                static_cast<std::size_t>(tenantCount),
                static_cast<unsigned long long>(fixture.requestsSubmitted()));
    return result;
}

} // namespace perfbench
