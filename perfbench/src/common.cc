#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "support/memmeter.hh"
#include "trace/trace_io.hh"
#include "workloads/presets.hh"
#include "workloads/process_mix.hh"

namespace perfbench
{

Settings
resolveSettings()
{
    Settings settings;
    settings.simd = bpred::simdAvx2Available() ? bpred::SimdMode::Avx2
                                               : bpred::SimdMode::Scalar;
    return settings;
}

const std::vector<std::string> &
forbiddenEnvironment()
{
    static const std::vector<std::string> names = {
        "BPRED_TRACE_SCALE", "BPRED_TRACE_CACHE", "BPRED_THREADS",
        "BPRED_GANG_WIDTH", "BPRED_SIMD",
    };
    return names;
}

const std::vector<std::string> &
gridSpecs()
{
    static const std::vector<std::string> specs = {
        "gshare:12:10", "gskewed:3:11:8", "egskew:11:8"};
    return specs;
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
        ? values[mid]
        : 0.5 * (values[mid - 1] + values[mid]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = rank < 1.0
        ? 0
        : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
    return values[index];
}

double
medianBlockRate(const std::vector<Timed> &ops, std::size_t blocks)
{
    double total = 0.0;
    for (const Timed &op : ops) {
        total += op.seconds;
    }
    const double target = total / static_cast<double>(blocks);
    std::vector<double> rates;
    double work = 0.0;
    double seconds = 0.0;
    for (const Timed &op : ops) {
        work += op.work;
        seconds += op.seconds;
        if (seconds >= target) {
            rates.push_back(work / seconds);
            work = seconds = 0.0;
        }
    }
    if (seconds > 0.5 * target || rates.empty()) {
        rates.push_back(work / seconds);
    }
    return median(rates);
}

u64
fnv1a(const std::string &bytes, u64 hash)
{
    for (const unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex64(u64 value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

double
peakRssMb()
{
    return static_cast<double>(bpred::processMemUsage().rssPeakBytes) /
        1e6;
}

bpred::Trace
makeTrace(const std::string &preset, double scale, u64 seed)
{
    bpred::WorkloadParams params = bpred::ibsPreset(preset, scale);
    params.seed = params.seed * 0x9e3779b97f4a7c15ULL + seed;
    return bpred::generateWorkload(params);
}

std::vector<std::string>
writeCorpus(const std::vector<bpred::Trace> &traces, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "%02zu-", i);
        const std::string path =
            dir + "/" + name + traces[i].name() + ".bpt";
        bpred::saveBinaryTrace(path, traces[i]);
        paths.push_back(path);
    }
    return paths;
}

} // namespace perfbench
