/**
 * @file
 * The benchmark driver: runs one workload by name and prints, as
 * its last stdout line, one JSON object
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * with every end-to-end metric (untraced) or every per-layer metric
 * (--trace 1). Earlier lines carry the provenance and the digests of
 * the simulated statistics. Normally started through run.py, which
 * builds this binary first.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --scratch <dir>
 *                    [--p99-limit-ms <ms>] [--source <id>]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hh"
#include "support/json.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload "
                 "<corpus-ingest|corpus-grid|serve-open|aliasing-3c> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "--scratch <dir> [--p99-limit-ms <ms>] "
                 "[--source <id>]\n",
                 error.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv, std::string &source)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                args.traced = value == "1";
            } else if (flag == "--scratch") {
                args.scratch = value;
            } else if (flag == "--p99-limit-ms") {
                args.p99LimitMs = std::stod(value);
            } else if (flag == "--source") {
                source = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty() || args.scratch.empty()) {
        usage("--workload and --scratch are required");
    }
    if (!(args.seconds > 0.0) || !(args.p99LimitMs > 0.0)) {
        usage("--seconds and --p99-limit-ms must be positive");
    }
    return args;
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(" ", colon + 1));
            }
        }
    }
    return "unknown";
}

void
printProvenance(const Args &args, const Settings &settings,
                const std::string &source)
{
    bpred::JsonValue node = bpred::JsonValue::object();
    node["source"] = source;
    node["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
    node["compiler"] = std::string("gcc ") + __VERSION__;
    node["cxx_flags"] = std::string(PERFBENCH_CXX_FLAGS);
    node["bpred_checked"] = PERFBENCH_CHECKED != 0;
    node["simd"] = std::string(bpred::simdModeName(settings.simd));
    node["threads"] = static_cast<u64>(settings.threads);
    node["block_records"] = static_cast<u64>(settings.blockRecords);
    node["cpu"] = cpuModel();
    node["nproc"] =
        static_cast<u64>(std::thread::hardware_concurrency());
    node["workload"] = args.workload;
    node["seed"] = args.seed;
    node["seconds"] = args.seconds;
    node["traced"] = args.traced;
    std::printf("provenance %s\n", node.dump().c_str());
}

void
printResult(const RunResult &result)
{
    std::string metrics;
    for (const auto &[name, entry] : result.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", entry.first);
        if (!metrics.empty()) {
            metrics += ", ";
        }
        metrics += "\"" + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + entry.second + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string source = "unknown";
    const Args args = parseArgs(argc, argv, source);

    for (const std::string &name : forbiddenEnvironment()) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded here.
        if (std::getenv(name.c_str()) != nullptr) {
            std::fprintf(stderr,
                         "perfbench_driver: refusing to run with %s set; "
                         "it changes the program being measured\n",
                         name.c_str());
            return 2;
        }
    }

    const Settings settings = resolveSettings();
    printProvenance(args, settings, source);
    std::fflush(stdout);

    RunResult result;
    try {
        if (args.workload == "corpus-ingest") {
            result = runCorpusIngest(args, settings);
        } else if (args.workload == "corpus-grid") {
            result = runCorpusGrid(args, settings);
        } else if (args.workload == "serve-open") {
            result = runServeOpen(args, settings);
        } else if (args.workload == "aliasing-3c") {
            result = runAliasing3c(args, settings);
        } else {
            usage("unknown workload " + args.workload);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    if (result.attempted == 0) {
        std::fprintf(stderr, "perfbench_driver: no operation attempted\n");
        return 1;
    }
    printResult(result);
    return result.correct ? 0 : 3;
}
