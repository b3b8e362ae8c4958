/**
 * @file
 * The serving fixture shared by the serve-open workload and the
 * traced mode's serve-layer probe.
 */

#pragma once

#include <memory>
#include <vector>

#include "common.hh"
#include "trace/branch_record.hh"

namespace bpred
{
class PredictorPool;
class Rng;
} // namespace bpred

namespace perfbench
{

/** Latency counts as (microseconds, requests), ascending. */
using LatencyCounts = std::vector<std::pair<u64, u64>>;

/** Nearest-rank percentile over @p counts; 0 when empty. */
double countsPercentile(const LatencyCounts &counts, double q);

/**
 * One open-loop ladder step, run as equal windows (each a fresh
 * arrival schedule, drained at its end) so that a rare host stall
 * spoils one window's tail rather than the step's.
 */
struct StepStats
{
    struct Window
    {
        /** Generator lateness, submit call minus due time. */
        std::vector<double> lagUs;

        /** Time spent inside PredictorPool::submit. */
        std::vector<double> submitWaitUs;

        /** The pool's enqueue-to-done latency of completions. */
        LatencyCounts enqueueToDoneUs;
    };

    std::vector<Window> windows;

    /**
     * From a window's last submit until its backlog was served;
     * the median over windows.
     */
    double drainMs = 0.0;

    /**
     * The q-quantile of due-to-done latency: per window, the pool's
     * enqueue-to-done quantile plus the generator-lag quantile (see
     * serve.cc); the median over windows.
     */
    double latencyMs(double q) const;

    /** One per-request field over all windows. */
    std::vector<double> pooled(std::vector<double> Window::*field) const;

    /** Enqueue-to-done counts over all windows. */
    LatencyCounts pooledEnqueueToDone() const;

    std::size_t
    requests() const
    {
        return pooled(&Window::lagUs).size();
    }
};

/** A closed-loop flood: submit back to back, then drain. */
struct FloodStats
{
    u64 requests = 0;
    double seconds = 0.0;
};

/**
 * The request model: 10k tenants whose requests are 256-record
 * slices of @p traces. Tenant t walks its own trace (t modulo the
 * trace count) from a seeded offset; popularity is a seeded Zipf
 * over a shuffled tenant order.
 */
class Traffic
{
  public:
    Traffic(const std::vector<bpred::Trace> &traces, u64 seed);

    /** Records of @p tenant's @p seq-th request (1-based). */
    const bpred::BranchRecord *slice(u64 tenant, u64 seq) const;

    /** Draw the next tenant from the popularity distribution. */
    u64 pickTenant(bpred::Rng &rng) const;

  private:
    const bpred::Trace &traceOf(u64 tenant) const;

    const std::vector<bpred::Trace> &traces;
    std::vector<u64> rankToTenant;
    std::vector<u64> base;
};

/** A 2-shard pool serving egskew:10:8 to the Traffic's tenants. */
class ServeFixture
{
  public:
    ServeFixture(const std::vector<bpred::Trace> &traces, u64 seed,
                 const Settings &settings);
    ~ServeFixture();

    /** One request for every tenant, then drain (set-up). */
    void warmStart();

    /**
     * Open-loop Poisson arrivals at @p krps in @p windows windows of
     * @p window_seconds each.
     */
    StepStats runStep(double krps, double window_seconds, u64 step_seed,
                      std::size_t windows);

    /** Closed-loop saturation: @p requests back to back, then drain. */
    FloodStats flood(u64 requests, u64 flood_seed);

    /**
     * Compare every tenant's tallies with a dedicated SimSession fed
     * the same requests; returns mismatched tenants and a digest of
     * all tallies.
     */
    u64 verify(u64 &digest) const;

    u64 requestsSubmitted() const;

  private:
    void submit(u64 tenant);

    Traffic traffic;
    u64 seed;
    Settings settings;
    std::vector<u64> submitted;
    std::unique_ptr<bpred::PredictorPool> pool;
};

/** What an ascending pass over the ladder found. */
struct LadderResult
{
    /** The middle rate's step. */
    StepStats middle;

    /** The top rate's step. */
    StepStats top;

    /**
     * The highest offered rate whose p99 and backlog drain meet the
     * limit, interpolated in log(latency) between the last passing
     * and the first failing step.
     */
    double maxKrps = 0.0;
};

/**
 * Step through the whole ladder, @p window_seconds windows, printing
 * one line per step. Every step runs, past the knee too, so a seed
 * always offers the same requests (and the same cache churn).
 */
LadderResult runLadder(ServeFixture &fixture, double window_seconds,
                       double limit_ms);

/** A standalone TenantCache replaying the fixture's tenant sequence. */
struct CacheProbe
{
    std::vector<double> hitUs;
    std::vector<double> restoreUs;
    std::vector<double> constructUs;
    std::vector<double> saveUs;
    std::vector<double> replayUs;
    double bytesPerTenant = 0.0;
    double acquireSeconds = 0.0;
    double replaySeconds = 0.0;
    std::size_t requests = 0;
};

/**
 * Replay @p requests requests (the warm start, then Zipf draws)
 * through one TenantCache per shard inline, timing each acquire by
 * outcome, each replay, and explicit evictions (BPS1 saves).
 */
CacheProbe probeTenantCache(const std::vector<bpred::Trace> &traces,
                            u64 seed, const Settings &settings,
                            std::size_t requests);

} // namespace perfbench
