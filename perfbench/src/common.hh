/**
 * @file
 * Shared plumbing for the benchmark driver: arguments, hermetic
 * settings, timers, order statistics, digests, and the result record
 * every workload fills.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/probe.hh"
#include "support/simd.hh"
#include "support/types.hh"
#include "trace/trace.hh"

namespace perfbench
{

using bpred::u64;

/** Command-line arguments (see run.py for the user-facing form). */
struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool traced = false;

    /** Directory the run may write scratch files into. */
    std::string scratch;

    /** serve-open: the p99 latency limit a ladder step must meet. */
    double p99LimitMs = 2.0;
};

/**
 * Every knob that changes the measured program, resolved once and
 * passed explicitly -- nothing is read from the environment.
 */
struct Settings
{
    /** Worker threads for batch sweeps (runCorpus). */
    unsigned threads = 1;

    /** Records per replay block. */
    std::size_t blockRecords = 8192;

    /** Index/hash kernel dispatch, never Auto. */
    bpred::SimdMode simd = bpred::SimdMode::Scalar;
};

/** The resolved settings for this host (AVX2 when available). */
Settings resolveSettings();

/**
 * Environment variables that silently change the program; the
 * driver refuses to run while any of them is set.
 */
const std::vector<std::string> &forbiddenEnvironment();

/** Monotonic seconds. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds taken by @p fn(). */
template <typename Fn>
double
timed(Fn &&fn)
{
    const double start = now();
    fn();
    return now() - start;
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile, @p q in [0, 1]: the smallest sample with
 * at least q of the samples at or below it. 0 when empty.
 */
double percentile(std::vector<double> values, double q);

/** Work done and seconds taken by one timed operation. */
struct Timed
{
    double work;
    double seconds;
};

/**
 * Throughput of a run of operations, robust to host slow phases:
 * the operations are cut, in order, into @p blocks stretches of
 * about equal time, and the median stretch's work per second is
 * returned.
 */
double medianBlockRate(const std::vector<Timed> &ops, std::size_t blocks);

/** Stretches medianBlockRate() cuts a timed phase into. */
constexpr std::size_t rateBlocks = 5;

/** FNV-1a 64 over @p bytes, folded into @p hash. */
u64 fnv1a(const std::string &bytes, u64 hash = 0xcbf29ce484222325ULL);

/** 16 lowercase hex digits. */
std::string hex64(u64 value);

/** Peak resident set (VmHWM) in MB. */
double peakRssMb();

/** Name-ordered metrics: name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/** What one workload run reports. */
struct RunResult
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    Metrics metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count @p n attempts of which @p bad failed. */
    void
    count(u64 n, u64 bad)
    {
        attempted += n;
        failed += bad;
        if (bad != 0) {
            correct = false;
        }
    }
};

/**
 * Set-ups per run: at least setupMinReps, more while their total is
 * under setupMinSeconds (a cheap set-up's median needs more samples
 * to hold still), at most setupMaxReps. setup_s is their median.
 */
constexpr int setupMinReps = 5;
constexpr int setupMaxReps = 25;
constexpr double setupMinSeconds = 1.0;

/**
 * Set-up timing: run @p make repeatedly (see setupMinReps),
 * destroying each result before building the next so peak memory is
 * one set-up's, and return the last one; the median set-up time
 * lands in @p seconds.
 */
template <typename Make>
auto
repeatedSetup(double &seconds, Make &&make)
{
    std::vector<double> times;
    double total = 0.0;
    decltype(make()) state{};
    while (times.size() < setupMinReps ||
           (total < setupMinSeconds && times.size() < setupMaxReps)) {
        state = {};
        const double start = now();
        state = make();
        times.push_back(now() - start);
        total += times.back();
    }
    seconds = median(times);
    return state;
}

/**
 * Per-run synthetic trace: the named IBS-like preset at @p scale
 * with the run seed mixed into the generator seed. Goes straight
 * to generateWorkload(), bypassing ibsSuite()'s environment knobs.
 */
bpred::Trace makeTrace(const std::string &preset, double scale,
                       u64 seed);

/**
 * Exact per-site outcome counts: what the corpus classifier's probe
 * keeps for the reference member.
 */
struct SiteCounts : bpred::ProbeSink
{
    struct Cell
    {
        u64 branches = 0;
        u64 mispredicts = 0;
    };

    void
    onResolved(const bpred::ResolvedEvent &event) override
    {
        Cell &cell = sites[event.pc];
        ++cell.branches;
        cell.mispredicts += event.predicted != event.taken ? 1 : 0;
    }

    std::unordered_map<bpred::Addr, Cell> sites;
};

/** Workload entry points (one translation unit each). */
RunResult runCorpusIngest(const Args &args, const Settings &settings);
RunResult runCorpusGrid(const Args &args, const Settings &settings);
RunResult runServeOpen(const Args &args, const Settings &settings);
RunResult runAliasing3c(const Args &args, const Settings &settings);

/** The bp_corpus default specs: gshare, gskewed, e-gskew. */
const std::vector<std::string> &gridSpecs();

/**
 * The six-layer probe set of the traced mode, measured on the
 * running workload's own traces (see layers.cc).
 */
struct LayerInputs
{
    /** The workload whose traced run this is. */
    std::string workload;

    /**
     * One timed operation of the workload; the traced mode runs it
     * with the in-program span recorder off and on to price tracing.
     */
    std::function<void()> op;

    const std::vector<bpred::Trace> *traces = nullptr;

    /**
     * The traces as a .bpt corpus, and the runCorpus configuration
     * the sim probes use. Empty: the probes write the traces under
     * the scratch directory and use the corpus-grid configuration.
     */
    std::string corpusDir;
    std::vector<std::string> corpusSpecs = gridSpecs();
    std::size_t topSites = 16;

    /** Set-up's trace generation, for the workloads layer. */
    double generateSeconds = 0.0;
    u64 generatedRecords = 0;
};

/** Fill every per-layer metric of the traced run into @p result. */
void probeLayers(const LayerInputs &inputs, const Args &args,
                 const Settings &settings, RunResult &result);

/** Write @p traces as BPT1 files into @p dir (created). */
std::vector<std::string> writeCorpus(const std::vector<bpred::Trace> &traces,
                                     const std::string &dir);

} // namespace perfbench
