/**
 * @file
 * corpus-ingest and corpus-grid: runCorpus over a six-trace .bpt
 * corpus written at set-up, checked against scalar-replay sessions.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common.hh"
#include "sim/corpus.hh"
#include "sim/factory.hh"
#include "sim/session.hh"
#include "workloads/presets.hh"

namespace perfbench
{

namespace
{

/**
 * Corpus size: each preset at this scale is ~1.15M records, so the
 * six-file corpus is ~6.9M records (~110 MB as BranchRecords).
 */
constexpr double corpusScale = 0.5;

/** The documented classification rules over exact site counts. */
bpred::CorpusClassification
classify(const SiteCounts &counts, const bpred::CorpusOptions &opt)
{
    using bpred::Predictability;
    bpred::CorpusClassification classes;
    std::vector<bpred::SitePredictability> all;
    for (const auto &[pc, cell] : counts.sites) {
        bpred::SitePredictability site;
        site.pc = pc;
        site.branches = cell.branches;
        site.mispredicts = cell.mispredicts;
        const double ratio = cell.branches == 0
            ? 0.0
            : static_cast<double>(cell.mispredicts) /
                static_cast<double>(cell.branches);
        if (cell.branches < opt.classifyMinBranches) {
            site.klass = Predictability::Cold;
            ++classes.coldSites;
        } else if (ratio <= opt.easyThreshold) {
            site.klass = Predictability::Easy;
            ++classes.easySites;
        } else if (ratio > opt.hardThreshold) {
            site.klass = Predictability::Hard;
            ++classes.hardSites;
            classes.hardMispredicts += cell.mispredicts;
        } else {
            site.klass = Predictability::Medium;
            ++classes.mediumSites;
        }
        classes.totalMispredicts += cell.mispredicts;
        all.push_back(site);
    }
    std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
        return a.mispredicts != b.mispredicts ? a.mispredicts > b.mispredicts
                                              : a.pc < b.pc;
    });
    all.resize(std::min(all.size(), opt.topSites));
    classes.hardest = std::move(all);
    return classes;
}

/**
 * The report runCorpus must produce, built from one scalar-replay
 * SimSession per (file, spec) over the in-memory traces.
 */
bpred::CorpusReport
referenceReport(const std::vector<bpred::Trace> &traces,
                const std::vector<std::string> &paths,
                const std::string &dir, const bpred::CorpusOptions &opt)
{
    bpred::CorpusReport report;
    report.directory = dir;
    report.specs = opt.specs;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const bpred::Trace &trace = traces[i];
        bpred::CorpusFileResult file;
        file.file = std::filesystem::path(paths[i]).filename().string();
        file.traceName = trace.name();
        file.ingest = "mmap";
        file.records = trace.size();
        file.stats = bpred::computeTraceStats(trace);
        SiteCounts counts;
        for (std::size_t s = 0; s < opt.specs.size(); ++s) {
            auto predictor = bpred::makePredictor(opt.specs[s]);
            bpred::SimOptions member = opt.sim;
            member.scalarReplay = true;
            if (s == 0 && opt.topSites > 0) {
                member.topSites = opt.topSites;
                member.probe = &counts;
            }
            bpred::SimSession session(*predictor, member, trace.name());
            session.feed(trace);
            file.results.push_back(session.finish());
        }
        if (opt.topSites > 0) {
            file.classes = classify(counts, opt);
        }
        report.files.push_back(std::move(file));
    }
    return report;
}

/** (file, spec) cells whose tallies differ, plus failed files. */
u64
countMismatches(const bpred::CorpusReport &got,
                const bpred::CorpusReport &want)
{
    if (got.files.size() != want.files.size()) {
        return std::max<u64>(1, want.files.size());
    }
    u64 bad = 0;
    for (std::size_t f = 0; f < want.files.size(); ++f) {
        const bpred::CorpusFileResult &g = got.files[f];
        const bpred::CorpusFileResult &w = want.files[f];
        if (!g.error.empty() || g.results.size() != w.results.size()) {
            bad += w.results.size();
            continue;
        }
        for (std::size_t s = 0; s < w.results.size(); ++s) {
            bad += g.results[s].conditionals != w.results[s].conditionals ||
                    g.results[s].mispredicts != w.results[s].mispredicts
                ? 1
                : 0;
        }
    }
    return bad;
}

struct CorpusState
{
    std::vector<bpred::Trace> traces;
    std::vector<std::string> paths;
    double generateSeconds = 0.0;
    u64 records = 0;
};

RunResult
runCorpusWorkload(const Args &args, const Settings &settings,
                  const std::vector<std::string> &specs,
                  std::size_t top_sites)
{
    const std::string dir = args.scratch + "/corpus";
    double setup_seconds = 0.0;
    CorpusState state = repeatedSetup(setup_seconds, [&] {
        CorpusState fresh;
        const double start = now();
        for (const std::string &name : bpred::ibsBenchmarkNames()) {
            fresh.traces.push_back(makeTrace(name, corpusScale, args.seed));
            fresh.records += fresh.traces.back().size();
        }
        fresh.generateSeconds = now() - start;
        std::filesystem::remove_all(dir);
        fresh.paths = writeCorpus(fresh.traces, dir);
        // Predictor construction is part of set-up cost.
        for (const std::string &spec : specs) {
            bpred::makePredictor(spec);
        }
        return fresh;
    });

    bpred::CorpusOptions options;
    options.specs = specs;
    options.threads = settings.threads;
    options.blockRecords = settings.blockRecords;
    options.topSites = top_sites;
    options.sim.simd = settings.simd;

    // The directory is blanked so digests compare across runs.
    const bpred::CorpusReport reference =
        referenceReport(state.traces, state.paths, "", options);
    const std::string reference_json = reference.toJson().dump();
    const u64 reference_digest = fnv1a(reference_json);

    RunResult result;
    std::vector<Timed> sweeps;
    const double work = static_cast<double>(state.records) *
        static_cast<double>(specs.size());
    u64 last_digest = 0;
    auto sweep = [&] {
        bpred::CorpusReport report;
        sweeps.push_back(
            {work, timed([&] { report = bpred::runCorpus(dir, options); })});
        report.directory = reference.directory;
        const std::string json = report.toJson().dump();
        last_digest = fnv1a(json);
        const u64 bad = countMismatches(report, reference) +
            (json == reference_json ? 0 : 1);
        result.count(state.traces.size() * specs.size(), bad);
    };

    if (args.traced) {
        LayerInputs inputs;
        inputs.workload = args.workload;
        inputs.op = sweep;
        inputs.traces = &state.traces;
        inputs.corpusDir = dir;
        inputs.corpusSpecs = specs;
        inputs.topSites = top_sites;
        inputs.generateSeconds = state.generateSeconds;
        inputs.generatedRecords = state.records;
        probeLayers(inputs, args, settings, result);
    } else {
        sweep(); // warm: page cache, allocator, branch predictors
        sweeps.clear();
        const double deadline = now() + args.seconds;
        while (now() < deadline || sweeps.size() < rateBlocks) {
            sweep();
        }
        result.set("throughput_mrec_s",
                   medianBlockRate(sweeps, rateBlocks) / 1e6, "Mrec/s");
        result.set("setup_s", setup_seconds, "s");
        result.set("peak_rss_mb", peakRssMb(), "MB");
    }
    std::printf("digest %s report %s reference %s files %zu records %llu "
                "sweeps %zu\n",
                args.workload.c_str(), hex64(last_digest).c_str(),
                hex64(reference_digest).c_str(), state.traces.size(),
                static_cast<unsigned long long>(state.records),
                sweeps.size());
    return result;
}

} // namespace

RunResult
runCorpusIngest(const Args &args, const Settings &settings)
{
    return runCorpusWorkload(args, settings, {"gshare:12:10"}, 0);
}

RunResult
runCorpusGrid(const Args &args, const Settings &settings)
{
    return runCorpusWorkload(args, settings, gridSpecs(), 16);
}

} // namespace perfbench
