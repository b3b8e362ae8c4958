/**
 * @file
 * Trace-ingest throughput and identity of the one BPT1 decoder.
 *
 * Every BPT1 source decodes with bpt::decodeRecords, whose ragged
 * tail falls back to the checked per-record bpt::readRecord(). This
 * bench writes one BPT1 file (default ~8M records, honouring
 * BPRED_TRACE_SCALE and `--records`) and drains it through:
 *
 *   per-record  the checked readRecord() loop over the mapping (the
 *               reference, bench-local)
 *   mmap        MmapTraceSource: decodeRecords over the mapping
 *   stream      BinaryTraceSource: decodeRecords over a 64 KiB slab
 *   bpt.gz      loadRealTrace on a gzipped copy (inflate + decode)
 *
 * and enforces two gates with a non-zero exit status:
 *  - identity: every path yields the same records (checksum) and
 *    byte-identical sim results — tallies and snapshot bytes — for
 *    every listSchemes() entry;
 *  - throughput: mmap (bulk) >= 1.3x per-record, both over the same
 *    mapped bytes in this process, medians of 5 interleaved reps.
 *    The bound proves the sub-batch fast path is live and pays on a
 *    real-shaped trace; it is armed from 4M records and
 *    informational below that.
 *
 * `--json` reports records/s per path, the bulk/per-record ratio and
 * peak RSS (memmeter), so CI trends ingest performance run-to-run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hh"
#include "sim/factory.hh"
#include "sim/session.hh"
#include "support/aligned.hh"
#include "support/logging.hh"
#include "support/memmeter.hh"
#include "support/parse.hh"
#include "trace/adapters.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"
#include "trace/trace_io.hh"
#include "workloads/presets.hh"

using namespace bpred;

namespace
{

/** Records below which the throughput gate is informational. */
constexpr std::size_t gateMinRecords = 4'000'000;

/** Least bulk / per-record decode ratio the gate accepts. */
constexpr double gateRatio = 1.3;

/** Interleaved repetitions; the median absorbs scheduler noise. */
constexpr int timingRepetitions = 5;

/**
 * The reference: one checked readRecord() per record over a shared
 * mapping — the decoder decodeRecords() falls back to for its tail.
 */
class PerRecordSource : public TraceSource
{
  public:
    explicit PerRecordSource(std::shared_ptr<const MappedTrace> mapped)
        : mapped_(std::move(mapped)), remaining_(mapped_->count())
    {
    }

    const std::string &name() const override { return mapped_->name(); }

    std::size_t
    pull(BranchRecord *out, std::size_t max) override
    {
        const std::size_t produced = static_cast<std::size_t>(
            std::min<u64>(max, remaining_));
        const char *data =
            reinterpret_cast<const char *>(mapped_->payload());
        for (std::size_t i = 0; i < produced; ++i) {
            const std::size_t step = bpt::readRecord(
                data + at, mapped_->payloadBytes() - at, out[i], lastPc);
            if (step == 0) {
                fatal("trace: truncated record");
            }
            at += step;
        }
        remaining_ -= produced;
        return produced;
    }

  private:
    std::shared_ptr<const MappedTrace> mapped_;
    std::size_t at = 0;
    u64 remaining_;
    Addr lastPc = 0;
};

struct DrainOutcome
{
    u64 records = 0;
    u64 checksum = 0;
};

/**
 * Pull @p source dry, folding every record into an order-sensitive
 * checksum (the index weight keeps the fold associative, so it does
 * not serialize on a multiply chain). Used untimed, once per path,
 * to prove the paths produce identical records.
 */
DrainOutcome
drainChecksum(TraceSource &source, AlignedVector<BranchRecord> &block)
{
    DrainOutcome outcome;
    while (const std::size_t n =
               source.pull(block.data(), block.size())) {
        u64 fold = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const BranchRecord &record = block[i];
            fold ^= (record.pc ^ (record.taken ? 1 : 0) ^
                     (record.conditional ? 2 : 0)) *
                (outcome.records + i + 0x9e3779b97f4a7c15ull);
        }
        outcome.checksum ^= fold;
        outcome.records += n;
    }
    return outcome;
}

/**
 * Timed drain: the bare pull loop, nothing else, so the clock sees
 * ingest alone. The decode writes every record into @p block and
 * advances internal source state, so none of it can be elided; the
 * untimed checksum drain above covers correctness.
 */
double
drainTimed(TraceSource &source, AlignedVector<BranchRecord> &block)
{
    const auto started = std::chrono::steady_clock::now();
    while (source.pull(block.data(), block.size()) != 0) {
    }
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - started)
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/** One sim identity probe: tallies plus snapshot bytes. */
struct SimFingerprint
{
    u64 conditionals = 0;
    u64 mispredicts = 0;
    std::string snapshot;

    bool
    operator==(const SimFingerprint &other) const
    {
        return conditionals == other.conditionals &&
            mispredicts == other.mispredicts &&
            snapshot == other.snapshot;
    }
};

SimFingerprint
fingerprint(const std::string &spec, TraceSource &source)
{
    const std::unique_ptr<Predictor> predictor = makePredictor(spec);
    const SimResult result = simulateSource(*predictor, source);
    SimFingerprint print;
    print.conditionals = result.conditionals;
    print.mispredicts = result.mispredicts;
    if (predictor->supportsSnapshot()) {
        std::ostringstream os;
        predictor->saveState(os);
        print.snapshot = os.str();
    }
    return print;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> extra =
        bench::initWithExtraArgs(argc, argv);
    std::size_t requested_records = 0;
    for (std::size_t i = 0; i < extra.size(); ++i) {
        if (extra[i] == "--records" && i + 1 < extra.size()) {
            requested_records = static_cast<std::size_t>(
                parseU64(extra[++i], "--records"));
        } else {
            std::cerr << "bench_trace_ingest: unknown argument '"
                      << extra[i] << "'\n";
            return 2;
        }
    }

    bench::banner("trace ingest",
                  "one BPT1 decoder: bulk decodeRecords vs its checked "
                  "per-record tail (>= 1.3x, byte-identical)");

    // Default ~8M records, scaled like every other bench so the CI
    // smoke run stays light (BPRED_TRACE_SCALE).
    const std::size_t records = requested_records != 0
        ? requested_records
        : static_cast<std::size_t>(
              8'000'000.0 * effectiveTraceScale(1.0));
    const double gen_scale =
        static_cast<double>(records) / 2'000'000.0;
    Trace trace = makeIbsTrace("real_gcc", gen_scale);
    trace.setName("ingest");

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bench_ingest_" + std::to_string(::getpid()) + ".bpt"))
            .string();
    saveBinaryTrace(path, trace);
    const u64 file_bytes = std::filesystem::file_size(path);
    std::cout << "trace: " << trace.size() << " records, "
              << file_bytes << " bytes on disk, block "
              << bench::blockRecords() << " records\n\n";

    if (!mmapSupported()) {
        inform("mmap unavailable on this platform; nothing to "
               "compare");
        std::filesystem::remove(path);
        return bench::finish();
    }

    AlignedVector<BranchRecord> block(bench::blockRecords());
    const std::shared_ptr<const MappedTrace> mapped =
        MappedTrace::tryOpen(path);
    if (!mapped) {
        fatal("bench_trace_ingest: cannot mmap '" + path + "'");
    }

    // The gz copy decodes once, untimed here: its materialization is
    // timed on its own below.
    const std::string gz_path = path + ".gz";
    Trace gz_trace;
    if (gzSupported()) {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream raw;
        raw << is.rdbuf();
        writeGzFile(gz_path, raw.str());
        gz_trace = loadRealTrace(gz_path);
    }

    struct Path
    {
        const char *label;
        std::function<std::unique_ptr<TraceSource>()> open;
    };
    // The first three are timed; paths[0] is the reference and
    // paths[1] the bulk decoder the gate measures against it.
    std::vector<Path> paths = {
        {"per-record",
         [&]() { return std::make_unique<PerRecordSource>(mapped); }},
        {"mmap",
         [&]() { return std::make_unique<MmapTraceSource>(mapped); }},
        {"stream",
         [&]() { return std::make_unique<BinaryTraceSource>(path); }},
    };
    constexpr std::size_t timedPaths = 3;
    if (gzSupported()) {
        paths.push_back({"bpt.gz", [&]() {
                             return std::make_unique<MemoryTraceSource>(
                                 gz_trace);
                         }});
    }

    // One untimed checksum drain per path proves the paths decode
    // identical records (and warms the page cache for everyone).
    bool identical = true;
    u64 reference_checksum = 0;
    for (std::size_t p = 0; p < paths.size(); ++p) {
        std::unique_ptr<TraceSource> source = paths[p].open();
        const DrainOutcome outcome = drainChecksum(*source, block);
        if (p == 0) {
            reference_checksum = outcome.checksum;
        }
        if (outcome.records != trace.size() ||
            outcome.checksum != reference_checksum) {
            std::cerr << "FAIL: " << paths[p].label
                      << " drained different records\n";
            identical = false;
        }
    }

    // Interleave timed repetitions so drift (thermal, page cache)
    // hits every path equally; keep the per-path median.
    std::vector<std::vector<double>> seconds(timedPaths);
    for (int rep = 0; rep < timingRepetitions; ++rep) {
        for (std::size_t p = 0; p < timedPaths; ++p) {
            std::unique_ptr<TraceSource> source = paths[p].open();
            seconds[p].push_back(drainTimed(*source, block));
        }
    }

    const double records_d = static_cast<double>(trace.size());
    std::vector<double> rate(timedPaths, 0.0);
    for (std::size_t p = 0; p < timedPaths; ++p) {
        rate[p] = records_d / median(seconds[p]);
    }
    const double ratio = rate[1] / rate[0];

    TextTable table({"path", "Mrec/s", "MB/s", "vs per-record"});
    for (std::size_t p = 0; p < timedPaths; ++p) {
        table.row().cell(paths[p].label);
        table.cell(rate[p] / 1e6, 2);
        table.cell(rate[p] / records_d * static_cast<double>(file_bytes) /
                       1e6,
                   2);
        table.cell(rate[p] / rate[0], 2);
    }
    bench::emitTable("ingest", table);

    // Whole-file gz ingest (inflate + the same decoder into a
    // materialized Trace), informational only.
    if (gzSupported()) {
        std::vector<double> gz_seconds;
        for (int rep = 0; rep < timingRepetitions; ++rep) {
            const auto started = std::chrono::steady_clock::now();
            const Trace inflated = loadRealTrace(gz_path);
            gz_seconds.push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     started)
                                     .count());
        }
        const double gz_rate = records_d / median(gz_seconds);
        TextTable gz_table({"path", "Mrec/s"});
        gz_table.row().cell("bpt.gz (materialize)").cell(
            gz_rate / 1e6, 2);
        bench::emitTable("ingest-gz", gz_table);
        bench::recordReportField("ingest_records_per_s_gz", gz_rate);
        std::filesystem::remove(gz_path);
    }

    // Sim identity sweep: every factory scheme through every ingest
    // path, comparing tallies and snapshot bytes.
    std::size_t schemes_checked = 0;
    for (const SchemeInfo &scheme : listSchemes()) {
        std::vector<SimFingerprint> prints;
        for (const Path &ingest : paths) {
            std::unique_ptr<TraceSource> source = ingest.open();
            prints.push_back(fingerprint(scheme.example, *source));
        }
        if (std::count(prints.begin(), prints.end(), prints[0]) !=
            static_cast<std::ptrdiff_t>(prints.size())) {
            std::cerr << "FAIL: scheme '" << scheme.example
                      << "' diverges across ingest paths\n";
            identical = false;
        }
        ++schemes_checked;
    }
    std::cout << "\nidentity: " << schemes_checked << " schemes x "
              << paths.size() << " ingest paths "
              << (identical ? "byte-identical" : "DIVERGED") << "\n";

    const MemUsage mem = processMemUsage();
    bench::recordReportField("ingest_records", u64(trace.size()));
    bench::recordReportField("ingest_file_bytes", file_bytes);
    bench::recordReportField("ingest_records_per_s_per_record",
                             rate[0]);
    bench::recordReportField("ingest_records_per_s_mmap", rate[1]);
    bench::recordReportField("ingest_records_per_s_stream", rate[2]);
    bench::recordReportField("ingest_bulk_over_per_record", ratio);
    bench::recordReportField("ingest_rss_peak_bytes",
                             mem.rssPeakBytes);
    bench::recordReportField("ingest_identical", identical);

    bench::expectation(
        "bulk decodeRecords decodes >= 1.3x its checked per-record "
        "tail; every ingest path replays byte-identically for every "
        "scheme.");

    std::filesystem::remove(path);

    const bool gate_throughput = trace.size() >= gateMinRecords;
    if (!identical) {
        std::cerr << "FAIL: ingest paths are not byte-identical\n";
        bench::finish();
        return 1;
    }
    if (gate_throughput && ratio < gateRatio) {
        std::cerr << "FAIL: bulk decode is only " << ratio
                  << "x per-record (gate: " << gateRatio << "x)\n";
        bench::finish();
        return 1;
    }
    if (!gate_throughput) {
        inform("trace below " + std::to_string(gateMinRecords) +
               " records; throughput gate informational only");
    }
    return bench::finish();
}
