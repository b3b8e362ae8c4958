/**
 * @file
 * The traced mode: times calls into each layer's public functions
 * -- trace, sim, predictors, serve, aliasing, workloads -- on the
 * running workload's own traces, and prices tracing itself.
 *
 * Every traced run reports the same metric set, whatever the
 * workload: a layer the workload does not stress is still probed on
 * its traces, so per-layer numbers line up across workloads. The
 * layer -> end-to-end map is in README.md.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "aliasing.hh"
#include "aliasing/fa_lru_table.hh"
#include "aliasing/tagged_table.hh"
#include "predictors/history.hh"
#include "predictors/info_vector.hh"
#include "predictors/replay_scratch.hh"
#include "serve.hh"
#include "sim/corpus.hh"
#include "sim/factory.hh"
#include "sim/gang.hh"
#include "support/aligned.hh"
#include "support/tracing.hh"
#include "trace/mmap_source.hh"

namespace perfbench
{

namespace
{

/** Repetitions per probe; each probe reports its median. */
constexpr int probeReps = 3;

/** The three hot schemes, as the corpus grid configures them. */
const std::vector<std::pair<std::string, std::string>> &
hotSchemes()
{
    static const std::vector<std::pair<std::string, std::string>> schemes = {
        {"gshare", "gshare:12:10"},
        {"gskewed", "gskewed:3:11:8"},
        {"egskew", "egskew:11:8"},
    };
    return schemes;
}

/** Median of @p reps runs of @p fn, each returning seconds. */
template <typename Fn>
double
medianOf(int reps, Fn &&fn)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        samples.push_back(fn());
    }
    return median(samples);
}

u64
totalRecords(const std::vector<bpred::Trace> &traces)
{
    u64 records = 0;
    for (const bpred::Trace &trace : traces) {
        records += trace.size();
    }
    return records;
}

/** tracing off vs on around the workload's own operation. */
void
probeOverhead(const LayerInputs &inputs, RunResult &result)
{
    std::vector<double> off;
    std::vector<double> on;
    for (int i = 0; i < probeReps; ++i) {
        off.push_back(timed(inputs.op));
        bpred::trace::setEnabled(true);
        on.push_back(timed(inputs.op));
        bpred::trace::setEnabled(false);
        bpred::trace::reset();
    }
    result.set("traced.overhead_x", median(on) / median(off), "x");
}

void
probeWorkloads(const LayerInputs &inputs, RunResult &result)
{
    result.set("workloads.generate_s", inputs.generateSeconds, "s");
    result.set("workloads.generate_mrec_s",
               static_cast<double>(inputs.generatedRecords) /
                   inputs.generateSeconds / 1e6,
               "Mrec/s");
}

/** One runCorpus-shaped sweep, made of direct layer calls. */
struct Decomposed
{
    double map = 0.0;
    double decode = 0.0;
    double feed = 0.0;
    double finish = 0.0;
};

Decomposed
decomposedSweep(const std::vector<std::string> &paths,
                const bpred::CorpusOptions &options)
{
    Decomposed d;
    for (const std::string &path : paths) {
        std::shared_ptr<const bpred::MappedTrace> mapped;
        d.map += timed([&] { mapped = bpred::MappedTrace::tryOpen(path); });
        if (!mapped) {
            throw std::runtime_error("mmap unavailable for " + path);
        }
        bpred::MmapTraceSource source(mapped);
        std::vector<std::unique_ptr<bpred::Predictor>> predictors;
        for (const std::string &spec : options.specs) {
            predictors.push_back(bpred::makePredictor(spec));
        }
        bpred::GangSession gang(options.blockRecords);
        SiteCounts counts;
        for (std::size_t i = 0; i < predictors.size(); ++i) {
            bpred::SimOptions member = options.sim;
            if (i == 0 && options.topSites > 0) {
                member.probe = &counts;
                member.topSites = options.topSites;
            }
            gang.add(*predictors[i], member, source.name());
        }
        bpred::AlignedVector<bpred::BranchRecord> buffer(gang.blockRecords());
        for (;;) {
            std::size_t n = 0;
            d.decode += timed(
                [&] { n = source.pull(buffer.data(), buffer.size()); });
            if (n == 0) {
                break;
            }
            d.feed += timed([&] { gang.feed(buffer.data(), n); });
        }
        d.finish += timed([&] { gang.finish(); });
    }
    return d;
}

/** Seconds one single-member gang spends in feed() over @p traces. */
double
gangFeedSeconds(const std::vector<bpred::Trace> &traces,
                const std::string &spec, const bpred::SimOptions &options,
                const Settings &settings)
{
    double seconds = 0.0;
    for (const bpred::Trace &trace : traces) {
        auto predictor = bpred::makePredictor(spec);
        bpred::GangSession gang(settings.blockRecords);
        gang.add(*predictor, options, trace.name());
        seconds += timed([&] { gang.feed(trace); });
        gang.finish();
    }
    return seconds;
}

/** Direct replayBlock over @p traces in @p chunk-record calls. */
double
replaySeconds(const std::vector<bpred::Trace> &traces,
              const std::string &spec, std::size_t chunk,
              const Settings &settings)
{
    double seconds = 0.0;
    for (const bpred::Trace &trace : traces) {
        auto predictor = bpred::makePredictor(spec);
        bpred::ReplayScratch scratch;
        scratch.mode = settings.simd;
        bpred::ReplayCounters counters;
        const bpred::BranchRecord *records = trace.records().data();
        const std::size_t count = trace.size();
        seconds += timed([&] {
            for (std::size_t at = 0; at < count; at += chunk) {
                predictor->replayBlock(records + at,
                                       std::min(chunk, count - at),
                                       counters, &scratch);
            }
        });
    }
    return seconds;
}

void
probeTraceAndSim(const LayerInputs &inputs, const Settings &settings,
                 RunResult &result)
{
    const std::vector<bpred::Trace> &traces = *inputs.traces;
    const double records = static_cast<double>(totalRecords(traces));
    std::vector<std::string> paths;
    for (const std::string &name : bpred::listTraceFiles(inputs.corpusDir)) {
        paths.push_back(inputs.corpusDir + "/" + name);
    }

    bpred::CorpusOptions options;
    options.specs = inputs.corpusSpecs;
    options.threads = settings.threads;
    options.blockRecords = settings.blockRecords;
    options.topSites = inputs.topSites;
    options.sim.simd = settings.simd;

    const double corpus = medianOf(probeReps, [&] {
        return timed([&] { bpred::runCorpus(inputs.corpusDir, options); });
    });
    std::vector<Decomposed> sweeps;
    for (int i = 0; i < probeReps; ++i) {
        sweeps.push_back(decomposedSweep(paths, options));
    }
    auto part = [&](double Decomposed::*field) {
        std::vector<double> values;
        for (const Decomposed &d : sweeps) {
            values.push_back(d.*field);
        }
        return median(values);
    };
    const double map = part(&Decomposed::map);
    const double decode = part(&Decomposed::decode);
    const double feed = part(&Decomposed::feed);
    const double finish = part(&Decomposed::finish);
    const double layers = map + decode + feed + finish;

    result.set("trace.map_s", map, "s");
    result.set("trace.decode_s", decode, "s");
    result.set("trace.decode_mrec_s", records / decode / 1e6, "Mrec/s");
    result.set("sim.corpus_s", corpus, "s");
    result.set("sim.corpus_residual_s", corpus - layers, "s");
    result.set("sim.gang_finish_s", finish, "s");
    if (inputs.workload.rfind("corpus-", 0) == 0) {
        result.set("traced.coverage", layers / corpus, "ratio");
    }

    bpred::SimOptions plain;
    plain.simd = settings.simd;
    for (const auto &[scheme, spec] : hotSchemes()) {
        const double feed_s = medianOf(probeReps, [&] {
            return gangFeedSeconds(traces, spec, plain, settings);
        });
        const double block_s = medianOf(probeReps, [&] {
            return replaySeconds(traces, spec, settings.blockRecords,
                                 settings);
        });
        const double feed_rate = records / feed_s / 1e6;
        const double block_rate = records / block_s / 1e6;
        result.set("sim.gang_feed_mrec_s." + scheme, feed_rate, "Mrec/s");
        result.set("predictors." + scheme + ".block_mrec_s", block_rate,
                   "Mrec/s");
        result.set("predictors." + scheme + ".kernel_gap_x",
                   block_rate / feed_rate, "x");
    }
    const double request_s = medianOf(probeReps, [&] {
        return replaySeconds(traces, "egskew:11:8", 256, settings);
    });
    result.set("predictors.egskew.request_mrec_s", records / request_s / 1e6,
               "Mrec/s");

    // Attribution: the reference member alone, with and without the
    // top-K sites plus the classifier's probe.
    const std::string &reference = inputs.corpusSpecs.front();
    const double bare = medianOf(probeReps, [&] {
        return gangFeedSeconds(traces, reference, plain, settings);
    });
    const double attributed = medianOf(probeReps, [&] {
        SiteCounts counts;
        bpred::SimOptions probed = plain;
        probed.topSites = 16;
        probed.probe = &counts;
        return gangFeedSeconds(traces, reference, probed, settings);
    });
    result.set("sim.attribution_x", attributed / bare, "x");

    std::vector<double> construct;
    for (int i = 0; i < 20; ++i) {
        for (const auto &[scheme, spec] : hotSchemes()) {
            construct.push_back(
                timed([&] { bpred::makePredictor(spec); }) * 1e6);
        }
    }
    result.set("sim.make_predictor_us", median(construct), "us");
}

void
probeServe(const LayerInputs &inputs, const Args &args,
           const Settings &settings, RunResult &result)
{
    ServeFixture fixture(*inputs.traces, args.seed, settings);
    fixture.warmStart();
    const LadderResult ladder = runLadder(fixture, 0.1, args.p99LimitMs);
    const StepStats &middle = ladder.middle;
    const FloodStats flood = fixture.flood(60000, 3);
    u64 digest = 0;
    result.count(fixture.requestsSubmitted(), fixture.verify(digest));

    using Window = StepStats::Window;
    result.set("serve.p50_ms", middle.latencyMs(0.5), "ms");
    result.set("serve.p99_ms", middle.latencyMs(0.99), "ms");
    result.set("serve.latency_samples",
               static_cast<double>(middle.requests()), "count");
    result.set("serve.max_rate_krps", ladder.maxKrps, "kreq/s");
    result.set("serve.submit_wait_us.p50",
               percentile(middle.pooled(&Window::submitWaitUs), 0.5), "us");
    result.set("serve.submit_wait_us.p99",
               percentile(middle.pooled(&Window::submitWaitUs), 0.99), "us");
    result.set("serve.gen_lag_us.p99",
               percentile(middle.pooled(&Window::lagUs), 0.99), "us");
    result.set("serve.enqueue_to_done_us.p50",
               countsPercentile(middle.pooledEnqueueToDone(), 0.5), "us");
    result.set("serve.enqueue_to_done_us.p99",
               countsPercentile(middle.pooledEnqueueToDone(), 0.99),
               "us");
    result.set("serve.drain_ms.middle", middle.drainMs, "ms");
    result.set("serve.drain_ms.top", ladder.top.drainMs, "ms");

    const CacheProbe cache =
        probeTenantCache(*inputs.traces, args.seed, settings, 60000);
    const double served = static_cast<double>(
        cache.hitUs.size() + cache.restoreUs.size() + cache.constructUs.size());
    result.set("serve.cache.hit_ratio",
               static_cast<double>(cache.hitUs.size()) / served, "ratio");
    result.set("serve.cache.acquire_hit_us.p50",
               percentile(cache.hitUs, 0.5), "us");
    result.set("serve.cache.acquire_restore_us.p50",
               percentile(cache.restoreUs, 0.5), "us");
    result.set("serve.cache.acquire_restore_us.p99",
               percentile(cache.restoreUs, 0.99), "us");
    result.set("serve.cache.acquire_construct_us.p50",
               percentile(cache.constructUs, 0.5), "us");
    result.set("serve.cache.save_us.p50", percentile(cache.saveUs, 0.5), "us");
    result.set("serve.cache.checkpoint_bytes_per_tenant",
               cache.bytesPerTenant, "B");
    result.set("serve.replay_us.p50", percentile(cache.replayUs, 0.5), "us");

    if (inputs.workload == "serve-open") {
        // Share of the shards' saturated busy time that the layer
        // calls themselves (acquire + replay) account for.
        const double per_request =
            (cache.acquireSeconds + cache.replaySeconds) /
            static_cast<double>(cache.requests);
        result.set("traced.coverage",
                   per_request * static_cast<double>(flood.requests) /
                       (flood.seconds * 2.0),
                   "ratio");
    }
}

void
probeAliasing(const LayerInputs &inputs, RunResult &result)
{
    const std::vector<bpred::Trace> &traces = *inputs.traces;
    std::vector<double> calls;
    u64 digest = 0;
    const double pass_s = timed([&] { threeCsPass(traces, digest, &calls); });
    result.set("aliasing.three_cs_s", median(calls), "s");
    if (inputs.workload == "aliasing-3c") {
        double in_calls = 0.0;
        for (const double seconds : calls) {
            in_calls += seconds;
        }
        result.set("traced.coverage", in_calls / pass_s, "ratio");
    }

    // Table kernels alone over the (index, key) stream gshare-h12
    // produces for the first trace.
    const bpred::Trace &trace = traces.front();
    for (const unsigned bits : {10u, 12u, 14u, 16u}) {
        const bpred::IndexFunction function{bpred::IndexKind::GShare, bits,
                                            12};
        std::vector<u64> index;
        std::vector<u64> key;
        bpred::GlobalHistory history;
        for (const bpred::BranchRecord &record : trace) {
            if (!record.conditional) {
                history.shiftIn(true);
                continue;
            }
            index.push_back(function(record.pc, history.raw()));
            key.push_back(
                bpred::packInfoVector(record.pc, history.raw(), 12));
            history.shiftIn(record.taken);
        }
        const double n = static_cast<double>(key.size());
        const double dm_s = medianOf(probeReps, [&] {
            bpred::TaggedDirectMappedTable table(bits);
            return timed([&] {
                for (std::size_t i = 0; i < key.size(); ++i) {
                    table.probe(index[i], key[i]);
                }
            });
        });
        const double fa_s = medianOf(probeReps, [&] {
            bpred::FullyAssociativeLruTable table(u64(1) << bits);
            return timed([&] {
                for (const u64 k : key) {
                    table.access(k);
                }
            });
        });
        const std::string suffix = ".i" + std::to_string(bits);
        result.set("aliasing.dm_probe_mrec_s" + suffix, n / dm_s / 1e6,
                   "Mrec/s");
        result.set("aliasing.fa_access_mrec_s" + suffix, n / fa_s / 1e6,
                   "Mrec/s");
    }
}

} // namespace

void
probeLayers(const LayerInputs &given, const Args &args,
            const Settings &settings, RunResult &result)
{
    const double start = now();
    LayerInputs inputs = given;
    if (inputs.corpusDir.empty()) {
        inputs.corpusDir = args.scratch + "/layer-corpus";
        writeCorpus(*inputs.traces, inputs.corpusDir);
    }
    probeOverhead(inputs, result);
    probeWorkloads(inputs, result);
    probeTraceAndSim(inputs, settings, result);
    probeServe(inputs, args, settings, result);
    probeAliasing(inputs, result);
    std::printf("traced probes took %.2f s\n", now() - start);
}

} // namespace perfbench
