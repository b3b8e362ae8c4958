/**
 * @file
 * aliasing-3c: the paper's three-Cs measurement (Figs 1-2) --
 * measureThreeCsMulti for gshare-DM and gselect-DM against FA-LRU,
 * at 4- and 12-bit history, tables from 1K to 64K entries, over
 * in-memory generated traces. Checked against per-function
 * measureThreeCs.
 */

#include "aliasing.hh"

#include <cstdio>

#include "aliasing/three_c.hh"

namespace perfbench
{

std::vector<std::vector<bpred::IndexFunction>>
threeCsGrid()
{
    std::vector<std::vector<bpred::IndexFunction>> grid;
    for (const unsigned history : {4u, 12u}) {
        for (const unsigned bits : {10u, 12u, 14u, 16u}) {
            grid.push_back({{bpred::IndexKind::GShare, bits, history},
                            {bpred::IndexKind::GSelect, bits, history}});
        }
    }
    return grid;
}

u64
threeCsDigest(const std::vector<bpred::ThreeCsResult> &results, u64 hash)
{
    for (const bpred::ThreeCsResult &r : results) {
        char line[160];
        std::snprintf(line, sizeof(line), "%s %llu %.17g %.17g %.17g;",
                      r.function.name().c_str(),
                      static_cast<unsigned long long>(r.dynamicBranches),
                      r.totalAliasing, r.faMissRatio, r.compulsory);
        hash = fnv1a(line, hash);
    }
    return hash;
}

double
threeCsPass(const std::vector<bpred::Trace> &traces, u64 &digest,
            std::vector<double> *call_seconds)
{
    const auto grid = threeCsGrid();
    digest = 0xcbf29ce484222325ULL;
    double work = 0.0;
    for (const bpred::Trace &trace : traces) {
        for (const auto &functions : grid) {
            std::vector<bpred::ThreeCsResult> results;
            const double seconds = timed([&] {
                results = bpred::measureThreeCsMulti(trace, functions);
            });
            if (call_seconds != nullptr) {
                call_seconds->push_back(seconds);
            }
            digest = threeCsDigest(results, digest);
            work += static_cast<double>(trace.size() * functions.size());
        }
    }
    return work;
}

namespace
{

std::vector<bpred::Trace>
aliasingTraces(u64 seed)
{
    std::vector<bpred::Trace> traces;
    for (const char *name : {"real_gcc", "groff"}) {
        traces.push_back(makeTrace(name, 0.15, seed));
    }
    return traces;
}

} // namespace

RunResult
runAliasing3c(const Args &args, const Settings &settings)
{
    double setup_seconds = 0.0;
    double generate_seconds = 0.0;
    std::vector<bpred::Trace> traces =
        repeatedSetup(setup_seconds, [&] {
            std::vector<bpred::Trace> fresh;
            generate_seconds =
                timed([&] { fresh = aliasingTraces(args.seed); });
            return fresh;
        });
    u64 records = 0;
    for (const bpred::Trace &trace : traces) {
        records += trace.size();
    }

    // Reference: one measureThreeCs pass per function.
    u64 reference = 0xcbf29ce484222325ULL;
    for (const bpred::Trace &trace : traces) {
        for (const auto &functions : threeCsGrid()) {
            std::vector<bpred::ThreeCsResult> singles;
            for (const bpred::IndexFunction &function : functions) {
                singles.push_back(bpred::measureThreeCs(trace, function));
            }
            reference = threeCsDigest(singles, reference);
        }
    }
    const u64 calls = traces.size() * threeCsGrid().size();

    RunResult result;
    std::vector<Timed> passes;
    u64 digest = 0;
    auto pass = [&] {
        double work = 0.0;
        const double seconds =
            timed([&] { work = threeCsPass(traces, digest); });
        passes.push_back({work, seconds});
        result.count(calls, digest == reference ? 0 : calls);
    };

    if (args.traced) {
        LayerInputs inputs;
        inputs.workload = args.workload;
        inputs.op = pass;
        inputs.traces = &traces;
        inputs.generateSeconds = generate_seconds;
        inputs.generatedRecords = records;
        probeLayers(inputs, args, settings, result);
    } else {
        pass(); // warm
        passes.clear();
        const double deadline = now() + args.seconds;
        while (now() < deadline || passes.size() < rateBlocks) {
            pass();
        }
        result.set("throughput_mrec_s",
                   medianBlockRate(passes, rateBlocks) / 1e6, "Mrec/s");
        result.set("setup_s", setup_seconds, "s");
        result.set("peak_rss_mb", peakRssMb(), "MB");
    }
    std::printf("digest aliasing-3c results %s reference %s calls %llu "
                "records %llu passes %zu\n",
                hex64(digest).c_str(), hex64(reference).c_str(),
                static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(records), passes.size());
    return result;
}

} // namespace perfbench
