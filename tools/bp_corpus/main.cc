/**
 * @file
 * bp_corpus — replay a directory of branch traces through a grid of
 * predictor specs and merge the results into one report.
 *
 * The corpus runner (sim/corpus.hh) does the work: every trace file
 * is one pool job, ingested zero-copy when possible (shared mmap
 * per .bpt; CBP-style text and .gz corpora through the adapters)
 * and gang-replayed through every spec in a single decode pass.
 *
 * Output determinism: everything on stdout and in --json is
 * byte-identical for any --threads value — timings go to stderr —
 * so CI diffs the 1-thread and 4-thread runs directly.
 *
 * Usage:
 *   bp_corpus <trace-dir> [--spec <predictor-spec>]...
 *             [--threads <n>] [--block-size <records>]
 *             [--warmup <branches>] [--topk <sites>]
 *             [--json <path>] [--trace-out <path>]
 *
 * Malformed or out-of-range numbers are usage errors (exit 2),
 * rejected before any trace is read.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/corpus.hh"
#include "support/logging.hh"
#include "support/parse.hh"
#include "support/table.hh"
#include "support/tracing.hh"

using namespace bpred;

namespace
{

/** Largest --threads: as many workers as the bench front-ends take. */
constexpr u64 maxThreads = 4096;

/** Largest --block-size: 16M records (256 MiB) per worker buffer. */
constexpr u64 maxBlockRecords = u64(1) << 24;

/** Largest --topk: the top-K counter scans its slots per eviction. */
constexpr u64 maxTopSites = u64(1) << 20;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: bp_corpus <trace-dir> [options]\n"
        << "  --spec <spec>          predictor spec (repeatable;\n"
        << "                         default gshare:12:10,\n"
        << "                         gskewed:3:11:8, egskew:11:8)\n"
        << "  --threads <n>          worker threads (0 = auto,\n"
        << "                         at most " << maxThreads << ")\n"
        << "  --block-size <records> gang replay block size (0 =\n"
        << "                         default, at most "
        << maxBlockRecords << ")\n"
        << "  --warmup <branches>    train-only prefix per member\n"
        << "  --topk <sites>         hardest-site list length (at\n"
        << "                         most " << maxTopSites << ")\n"
        << "  --json <path>          write the merged JSON report\n"
        << "  --trace-out <path>     write a Perfetto trace\n";
    std::exit(2);
}

/** Parse @p flag's value @p text in [0, @p max], or exit with usage. */
u64
parseFlag(const std::string &flag, const std::string &text, u64 max)
{
    try {
        const u64 value = parseU64(text, flag);
        if (value <= max) {
            return value;
        }
        std::cerr << "bp_corpus: " << flag << " must be at most "
                  << max << "\n";
    } catch (const FatalError &error) {
        std::cerr << "bp_corpus: " << error.what() << "\n";
    }
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string directory;
    CorpusOptions options;
    std::string json_path;
    std::string trace_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "bp_corpus: " << what
                          << " needs a value\n";
                usage();
            }
            return argv[++i];
        };
        if (arg == "--spec") {
            options.specs.push_back(next("--spec"));
        } else if (arg == "--threads") {
            options.threads = static_cast<unsigned>(
                parseFlag(arg, next("--threads"), maxThreads));
        } else if (arg == "--block-size") {
            options.blockRecords = static_cast<std::size_t>(
                parseFlag(arg, next("--block-size"), maxBlockRecords));
        } else if (arg == "--warmup") {
            options.sim.warmupBranches =
                parseFlag(arg, next("--warmup"), ~u64(0));
        } else if (arg == "--topk") {
            options.topSites = static_cast<std::size_t>(
                parseFlag(arg, next("--topk"), maxTopSites));
        } else if (arg == "--json") {
            json_path = next("--json");
        } else if (arg == "--trace-out") {
            trace_path = next("--trace-out");
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "bp_corpus: unknown option '" << arg
                      << "'\n";
            usage();
        } else if (directory.empty()) {
            directory = arg;
        } else {
            std::cerr << "bp_corpus: more than one directory given\n";
            usage();
        }
    }
    if (directory.empty()) {
        usage();
    }
    if (options.specs.empty()) {
        options.specs = {"gshare:12:10", "gskewed:3:11:8",
                         "egskew:11:8"};
    }

    if (!trace_path.empty()) {
        trace::setEnabled(true);
        trace::setThreadName("main");
    }

    try {
        const auto started = std::chrono::steady_clock::now();
        const CorpusReport report = runCorpus(directory, options);
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();

        std::cout << "== corpus: " << directory << " ==\n";
        std::cout << "specs:";
        for (const std::string &spec : report.specs) {
            std::cout << ' ' << spec;
        }
        std::cout << "\n\n";

        std::vector<std::string> headers = {"file", "ingest",
                                            "records", "cond"};
        for (const std::string &spec : report.specs) {
            headers.push_back(spec + " miss%");
        }
        headers.push_back("hard sites");
        headers.push_back("hard share");
        TextTable table(headers);
        u64 failures = 0;
        for (const CorpusFileResult &file : report.files) {
            table.row();
            if (!file.error.empty()) {
                ++failures;
                table.cell(file.file).cell("ERROR");
                table.cell(u64(0)).cell(u64(0));
                for (std::size_t s = 0; s < report.specs.size();
                     ++s) {
                    table.cell("-");
                }
                table.cell("-").cell("-");
                continue;
            }
            table.cell(file.file).cell(file.ingest);
            table.cell(file.records);
            table.cell(file.stats.dynamicConditional);
            for (const SimResult &result : file.results) {
                table.percentCell(result.mispredictPercent());
            }
            table.cell(file.classes.hardSites);
            table.percentCell(100.0 * file.classes.hardShare());
        }
        table.print(std::cout);
        std::cout << "\n";

        // Per-spec aggregate over the successful files.
        TextTable summary({"spec", "files", "conditionals",
                           "mispredicts", "miss%"});
        const JsonValue merged = report.toJson();
        for (std::size_t s = 0; s < report.specs.size(); ++s) {
            u64 conditionals = 0;
            u64 mispredicts = 0;
            u64 ok_files = 0;
            for (const CorpusFileResult &file : report.files) {
                if (!file.error.empty() ||
                    s >= file.results.size()) {
                    continue;
                }
                ++ok_files;
                conditionals += file.results[s].conditionals;
                mispredicts += file.results[s].mispredicts;
            }
            summary.row().cell(report.specs[s]).cell(ok_files);
            summary.cell(conditionals).cell(mispredicts);
            summary.percentCell(conditionals == 0
                                    ? 0.0
                                    : 100.0 *
                                        static_cast<double>(
                                            mispredicts) /
                                        static_cast<double>(
                                            conditionals));
        }
        summary.print(std::cout);

        if (failures > 0) {
            std::cout << "\n" << failures
                      << " file(s) failed; see JSON for details\n";
        }

        if (!json_path.empty()) {
            std::ofstream os(json_path);
            if (!os) {
                fatal("cannot open '" + json_path +
                      "' for writing");
            }
            merged.write(os, 2);
            os << "\n";
        }

        // Timing is stderr-only so stdout stays byte-diffable
        // across thread counts.
        inform("bp_corpus: " + std::to_string(report.files.size()) +
               " file(s) in " + std::to_string(elapsed) + " s");

        if (!trace_path.empty()) {
            trace::setEnabled(false);
            if (!trace::writeChromeTrace(trace_path)) {
                warn("--trace-out: write to '" + trace_path +
                     "' failed");
            }
        }
        return failures == 0 ? 0 : 1;
    } catch (const FatalError &error) {
        std::cerr << "bp_corpus: " << error.what() << "\n";
        return 1;
    }
}
