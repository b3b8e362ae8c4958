/**
 * @file
 * Zero-copy ingest pipeline tests: the bulk BPT1 decoder against
 * the checked per-record decoder, mmap sources against stream
 * sources (per-scheme byte identity), corruption rejection, shared
 * mappings across threads, the real-trace adapters, and corpus
 * runner determinism across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <unistd.h>
#include <vector>

#include "sim/corpus.hh"
#include "sim/factory.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/adapters.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"
#include "trace/trace_io.hh"
#include "workloads/presets.hh"

namespace bpred
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("bpred_ingest_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~ScratchDir() { fs::remove_all(path_); }

    std::string
    file(const std::string &name) const
    {
        return (path_ / name).string();
    }

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.is_open()) << path;
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** Serialize @p trace to BPT1 bytes in memory. */
std::string
bptBytes(const Trace &trace)
{
    std::ostringstream os;
    writeBinaryTrace(os, trace);
    return os.str();
}

/** A trace whose deltas cover every varint length, 1 to 10 bytes. */
Trace
makeEdgeTrace()
{
    Trace trace("edges");
    // Small forward steps (1-byte varints).
    Addr pc = 0x40'0000;
    for (int i = 0; i < 40; ++i) {
        pc += 2;
        trace.appendConditional(pc, i % 3 == 0);
    }
    // Two-byte and longer deltas, both signs.
    u64 magnitude = 0x40;
    for (int i = 0; i < 60; ++i) {
        pc += (i % 2 == 0) ? magnitude : (0 - magnitude);
        trace.appendConditional(pc, i % 2 == 0);
        magnitude = (magnitude << 1) | 1;
    }
    // Extremes: top of the address space, i64-overflowing swings,
    // and the all-ones PC (10-byte zig-zag varints).
    trace.appendUnconditional(0);
    trace.appendConditional(~u64(0), true);
    trace.appendConditional(u64(1) << 63, false);
    trace.appendConditional(1, true);
    trace.appendUnconditional(u64(0x7fffffffffffffffull));
    trace.appendConditional(0x40'0000, false);
    return trace;
}

/** A medium random trace (pc locality like the io tests). */
Trace
makeSampleTrace(std::size_t records, u64 seed)
{
    Trace trace("sample");
    Rng rng(seed);
    Addr pc = 0x40'0000;
    for (std::size_t i = 0; i < records; ++i) {
        pc += 4 * (1 + rng.uniformInt(100));
        if (rng.chance(0.2)) {
            trace.appendUnconditional(pc);
        } else {
            trace.appendConditional(pc, rng.chance(0.6));
        }
        if (rng.chance(0.2)) {
            pc -= 4 * rng.uniformInt(200);
        }
    }
    return trace;
}

/** Parse the header of BPT1 @p bytes; @p header_bytes out. */
bpt::Header
parseHeader(const std::string &bytes, std::size_t &header_bytes)
{
    return bpt::readHeader(reinterpret_cast<const u8 *>(bytes.data()),
                           bytes.size(), {bytes.size(), true},
                           header_bytes);
}

/** Decode the payload of @p bytes with the bulk decoder. */
std::vector<BranchRecord>
bulkDecode(const std::string &bytes, std::size_t chunk)
{
    const u8 *data = reinterpret_cast<const u8 *>(bytes.data());
    std::size_t header_bytes = 0;
    const bpt::Header header = parseHeader(bytes, header_bytes);

    std::vector<BranchRecord> out(
        static_cast<std::size_t>(header.count));
    std::size_t done = 0;
    std::size_t at = header_bytes;
    Addr last_pc = 0;
    while (done < out.size()) {
        std::size_t consumed = 0;
        const std::size_t want =
            std::min(chunk, out.size() - done);
        const std::size_t got = bpt::decodeRecords(
            data + at, bytes.size() - at, out.data() + done, want,
            last_pc, consumed);
        if (got == 0) {
            break;
        }
        at += consumed;
        done += got;
    }
    EXPECT_EQ(done, out.size());
    return out;
}

/**
 * Decode the payload of @p bytes one checked readRecord() at a
 * time: the per-record reference the bulk decoder must match.
 */
std::vector<BranchRecord>
referenceDecode(const std::string &bytes)
{
    std::size_t at = 0;
    const bpt::Header header = parseHeader(bytes, at);
    std::vector<BranchRecord> out;
    Addr last_pc = 0;
    for (u64 i = 0; i < header.count; ++i) {
        BranchRecord record;
        const std::size_t step = bpt::readRecord(
            bytes.data() + at, bytes.size() - at, record, last_pc);
        EXPECT_NE(step, 0u) << "record " << i;
        if (step == 0) {
            break;
        }
        at += step;
        out.push_back(record);
    }
    return out;
}

TEST(BulkDecode, MatchesReferenceOnEdgeDeltas)
{
    const Trace trace = makeEdgeTrace();
    const std::string bytes = bptBytes(trace);

    // The checked per-record decoder is ground truth.
    const std::vector<BranchRecord> reference = referenceDecode(bytes);
    ASSERT_EQ(reference.size(), trace.size());

    // Chunk sizes straddle the quad width and the sub-batch/tail
    // boundary logic.
    for (const std::size_t chunk : {std::size_t(1), std::size_t(2),
                                    std::size_t(3), std::size_t(5),
                                    std::size_t(64),
                                    trace.size()}) {
        const std::vector<BranchRecord> bulk =
            bulkDecode(bytes, chunk);
        ASSERT_EQ(bulk.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            ASSERT_EQ(bulk[i], reference[i])
                << "chunk " << chunk << " record " << i;
        }
    }
}

TEST(BulkDecode, MatchesReferenceOnRandomTrace)
{
    const Trace trace = makeSampleTrace(5000, 7);
    const std::string bytes = bptBytes(trace);
    const std::vector<BranchRecord> reference = referenceDecode(bytes);
    const std::vector<BranchRecord> bulk = bulkDecode(bytes, 256);
    ASSERT_EQ(reference.size(), trace.size());
    ASSERT_EQ(bulk.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(bulk[i], reference[i]) << "record " << i;
        ASSERT_EQ(reference[i], trace[i]) << "record " << i;
    }
}

/** Tallies + snapshot bytes for one spec over one source. */
struct Fingerprint
{
    u64 conditionals = 0;
    u64 mispredicts = 0;
    std::string snapshot;
};

Fingerprint
fingerprint(const std::string &spec, TraceSource &source)
{
    const std::unique_ptr<Predictor> predictor = makePredictor(spec);
    const SimResult result = simulateSource(*predictor, source);
    Fingerprint print;
    print.conditionals = result.conditionals;
    print.mispredicts = result.mispredicts;
    if (predictor->supportsSnapshot()) {
        std::ostringstream os;
        predictor->saveState(os);
        print.snapshot = os.str();
    }
    return print;
}

TEST(MmapSource, ByteIdenticalToStreamForEveryScheme)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap on this platform";
    }
    ScratchDir dir("schemes");
    const std::string path = dir.file("trace.bpt");
    saveBinaryTrace(path, makeIbsTrace("real_gcc", 0.01));

    for (const SchemeInfo &scheme : listSchemes()) {
        BinaryTraceSource stream(path);
        const Fingerprint via_stream =
            fingerprint(scheme.example, stream);

        MmapTraceSource mapped(path);
        const Fingerprint via_mmap =
            fingerprint(scheme.example, mapped);

        EXPECT_GT(via_stream.conditionals, 0u) << scheme.example;
        EXPECT_EQ(via_stream.conditionals, via_mmap.conditionals)
            << scheme.example;
        EXPECT_EQ(via_stream.mispredicts, via_mmap.mispredicts)
            << scheme.example;
        EXPECT_EQ(via_stream.snapshot, via_mmap.snapshot)
            << scheme.example;
    }
}

TEST(MmapSource, SharedMappingAcrossThreads)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap on this platform";
    }
    ScratchDir dir("shared");
    const std::string path = dir.file("trace.bpt");
    const Trace trace = makeSampleTrace(20'000, 11);
    saveBinaryTrace(path, trace);

    const std::shared_ptr<const MappedTrace> mapped =
        MappedTrace::tryOpen(path);
    ASSERT_NE(mapped, nullptr);
    EXPECT_EQ(mapped->count(), trace.size());

    // Four workers drain four independent sources over ONE mapping;
    // each must see exactly the whole trace.
    std::vector<u64> sums(4, 0);
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&, w]() {
            MmapTraceSource source(mapped);
            std::vector<BranchRecord> block(1024);
            u64 sum = 0;
            while (const std::size_t n =
                       source.pull(block.data(), block.size())) {
                for (std::size_t i = 0; i < n; ++i) {
                    sum += block[i].pc + (block[i].taken ? 1 : 0);
                }
            }
            sums[static_cast<std::size_t>(w)] = sum;
        });
    }
    for (std::thread &worker : workers) {
        worker.join();
    }

    u64 expected = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        expected += trace[i].pc + (trace[i].taken ? 1 : 0);
    }
    for (const u64 sum : sums) {
        EXPECT_EQ(sum, expected);
    }
}

TEST(MmapSource, RejectsCorruptHeaders)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap on this platform";
    }
    ScratchDir dir("corrupt");

    // Bad magic.
    const std::string bad_magic = dir.file("magic.bpt");
    writeFile(bad_magic, "NOPE____definitely not a trace");
    EXPECT_THROW(MappedTrace::tryOpen(bad_magic), FatalError);

    // Unreasonable name length.
    {
        std::ostringstream os;
        os.write("BPT1", 4);
        bpt::writeVarint(os, u64(1) << 40);
        const std::string path = dir.file("name.bpt");
        writeFile(path, os.str());
        EXPECT_THROW(MappedTrace::tryOpen(path), FatalError);
    }

    // Header declares far more records than the payload can hold:
    // the shared validator rejects it before any decode starts.
    {
        std::ostringstream os;
        bpt::writeHeader(os, "lies", 1'000'000);
        os.put('\0');
        os.put('\0');
        const std::string path = dir.file("count.bpt");
        writeFile(path, os.str());
        EXPECT_THROW(MappedTrace::tryOpen(path), FatalError);
    }

    // A missing file is a fallback (nullptr), not a throw.
    EXPECT_EQ(MappedTrace::tryOpen(dir.file("absent.bpt")), nullptr);
}

/** Map @p payload under a valid header and drain it. */
void
drainPayload(ScratchDir &dir, const std::string &tag, u64 count,
             const std::string &payload)
{
    std::ostringstream os;
    bpt::writeHeader(os, "t", count);
    os << payload;
    const std::string path = dir.file(tag + ".bpt");
    writeFile(path, os.str());
    MmapTraceSource source(path);
    std::vector<BranchRecord> block(256);
    while (source.pull(block.data(), block.size()) != 0) {
    }
}

TEST(MmapSource, RejectsCorruptRecords)
{
    if (!mmapSupported()) {
        GTEST_SKIP() << "no mmap on this platform";
    }
    ScratchDir dir("records");

    // Regular records to pad the corrupt one into the bulk decode
    // fast region (>= maxRecordBytes per pending record).
    std::ostringstream good;
    Addr pc = 0;
    for (int i = 0; i < 40; ++i) {
        bpt::writeRecord(good, {u64(0x1000 + 4 * i), true, true}, pc);
    }

    // Bad flag bits, leading and mid-stream.
    {
        std::string payload = good.str();
        payload[0] = '\x04';
        EXPECT_THROW(drainPayload(dir, "flags0", 40, payload),
                     FatalError);
    }

    // Varint overflow: continuation bit set through byte 10. Fatal
    // in the fast region (mid-stream) and in the checked tail.
    std::string overlong(1, '\0');
    overlong.append(10, '\x80');
    overlong.push_back('\x00');
    {
        std::string payload = overlong + good.str();
        EXPECT_THROW(drainPayload(dir, "over_fast", 41, payload),
                     FatalError);
    }
    {
        std::string payload = good.str() + overlong;
        EXPECT_THROW(drainPayload(dir, "over_tail", 41, payload),
                     FatalError);
    }

    // Truncated mid-record: drop the final byte.
    {
        std::string payload = good.str();
        payload.pop_back();
        EXPECT_THROW(drainPayload(dir, "trunc", 40, payload),
                     FatalError);
    }
}

TEST(Adapters, CbpTextParses)
{
    std::istringstream is("# comment\n"
                          "0x4000 T\n"
                          "0x4004 n\n"
                          "16392 1\n"
                          "16400 0\n");
    const Trace trace = readCbpTextTrace(is, "cbp");
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].pc, 0x4000u);
    EXPECT_TRUE(trace[0].taken);
    EXPECT_TRUE(trace[0].conditional);
    EXPECT_FALSE(trace[1].taken);
    EXPECT_EQ(trace[2].pc, 16392u);
    EXPECT_TRUE(trace[2].taken);
    EXPECT_FALSE(trace[3].taken);

    std::istringstream junk("0x4000 T\nnot a line\n");
    EXPECT_THROW(readCbpTextTrace(junk, "junk"), FatalError);
}

TEST(Adapters, GzRoundTrip)
{
    if (!gzSupported()) {
        GTEST_SKIP() << "built without zlib";
    }
    ScratchDir dir("gz");
    const Trace original = makeSampleTrace(3000, 5);

    // .bpt.gz: inflate + shared header validation + bulk decode.
    const std::string gz_bpt = dir.file("trace.bpt.gz");
    ASSERT_TRUE(writeGzFile(gz_bpt, bptBytes(original)));
    const Trace inflated = loadRealTrace(gz_bpt);
    ASSERT_EQ(inflated.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(inflated[i], original[i]) << "record " << i;
    }

    // .txt.gz in CBP dialect: conditionals only survive the format.
    std::ostringstream text;
    for (std::size_t i = 0; i < original.size(); ++i) {
        if (!original[i].conditional) {
            continue;
        }
        text << "0x" << std::hex << original[i].pc << std::dec
             << (original[i].taken ? " 1" : " 0") << "\n";
    }
    const std::string gz_txt = dir.file("trace.txt.gz");
    ASSERT_TRUE(writeGzFile(gz_txt, text.str()));
    const Trace parsed = loadRealTrace(gz_txt);
    std::size_t at = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
        if (!original[i].conditional) {
            continue;
        }
        ASSERT_LT(at, parsed.size());
        EXPECT_EQ(parsed[at].pc, original[i].pc);
        EXPECT_EQ(parsed[at].taken, original[i].taken);
        ++at;
    }
    EXPECT_EQ(at, parsed.size());

    // Corrupt gz payload must be a clean fatal, not a misparse.
    const std::string broken = dir.file("broken.bpt.gz");
    writeFile(broken, "\x1f\x8b\x08 definitely not deflate");
    EXPECT_THROW(loadRealTrace(broken), FatalError);
}

TEST(Corpus, ReportIsIdenticalAcrossThreadCounts)
{
    ScratchDir dir("corpus");
    saveBinaryTrace(dir.file("a.bpt"), makeSampleTrace(8000, 21));
    saveBinaryTrace(dir.file("b.bpt"), makeSampleTrace(6000, 22));
    {
        std::ofstream os(dir.file("c.txt"));
        const Trace text_trace = makeSampleTrace(2000, 23);
        writeTextTrace(os, text_trace);
    }

    CorpusOptions options;
    options.specs = {"gshare:10:8", "bimodal:10"};
    options.topSites = 4;

    options.threads = 1;
    const CorpusReport serial = runCorpus(dir.str(), options);
    options.threads = 4;
    const CorpusReport parallel = runCorpus(dir.str(), options);

    ASSERT_EQ(serial.files.size(), 3u);
    EXPECT_EQ(serial.toJson().dump(), parallel.toJson().dump());

    // Sorted-name order and per-file sanity.
    EXPECT_EQ(serial.files[0].file, "a.bpt");
    EXPECT_EQ(serial.files[1].file, "b.bpt");
    EXPECT_EQ(serial.files[2].file, "c.txt");
    for (const CorpusFileResult &file : serial.files) {
        EXPECT_TRUE(file.error.empty()) << file.error;
        EXPECT_GT(file.records, 0u);
        ASSERT_EQ(file.results.size(), 2u);
        EXPECT_EQ(file.results[0].conditionals,
                  file.results[1].conditionals);
    }
    EXPECT_EQ(serial.files[0].ingest,
              mmapSupported() ? "mmap" : "stream");
}

TEST(Corpus, ClassificationMatchesExactReference)
{
    // Static-site counts, the predictability classes and the top
    // sites against an independent std::map / std::set reference
    // built over a scalar replay. The trace carries PC 0, the
    // all-ones PC (the flat site table's empty-slot key) and a PC
    // seen both as a conditional and as an unconditional branch.
    // Warmup is on: the exact tallies count train-only branches,
    // the top sites do not.
    ScratchDir dir("exact");
    const Addr shared_pc = 0x4000;
    const Addr edge_pcs[] = {0, ~Addr(0), shared_pc};
    Trace trace("exact");
    Rng rng(51);
    for (int i = 0; i < 30000; ++i) {
        const Addr pc = rng.chance(0.1)
            ? edge_pcs[rng.uniformInt(3)]
            : 0x1000 + 4 * rng.uniformInt(500);
        if (pc == shared_pc ? (i & 1) != 0 : rng.chance(0.15)) {
            trace.appendUnconditional(pc);
        } else if ((pc >> 2) % 3 == 0) {
            trace.appendConditional(pc, rng.chance(0.5));
        } else {
            trace.appendConditional(pc, rng.chance(0.95));
        }
    }
    saveBinaryTrace(dir.file("exact.bpt"), trace);

    // gshare publishes probe events; gselect publishes none, so the
    // classification must not depend on instrumentation.
    for (const char *reference_spec : {"gshare:10:8", "gselect:10:6"}) {
        SCOPED_TRACE(reference_spec);
        CorpusOptions options;
        options.specs = {reference_spec, "gskewed:3:8:6"};
        options.sim.warmupBranches = 2000;
        options.sim.simd = SimdMode::Avx2;
        options.blockRecords = 1000;
        options.topSites = 8;
        options.threads = 1;
        const CorpusReport report = runCorpus(dir.str(), options);
        ASSERT_EQ(report.files.size(), 1u);
        const CorpusFileResult &file = report.files[0];
        ASSERT_TRUE(file.error.empty()) << file.error;

        auto reference = makePredictor(options.specs[0]);
        std::map<Addr, std::pair<u64, u64>> exact;
        std::set<Addr> conditional_sites;
        std::set<Addr> unconditional_sites;
        for (const BranchRecord &record : trace) {
            if (!record.conditional) {
                unconditional_sites.insert(record.pc);
                reference->notifyUnconditional(record.pc);
                continue;
            }
            conditional_sites.insert(record.pc);
            const bool prediction =
                reference->predictAndUpdate(record.pc, record.taken)
                    .prediction;
            auto &cell = exact[record.pc];
            ++cell.first;
            cell.second += prediction != record.taken ? 1 : 0;
        }
        ASSERT_TRUE(conditional_sites.count(0));
        ASSERT_TRUE(conditional_sites.count(~Addr(0)));
        ASSERT_TRUE(conditional_sites.count(shared_pc));
        ASSERT_TRUE(unconditional_sites.count(shared_pc));
        EXPECT_EQ(file.stats.staticConditional, conditional_sites.size());
        EXPECT_EQ(file.stats.staticUnconditional,
                  unconditional_sites.size());
        EXPECT_EQ(file.stats.dynamicConditional +
                      file.stats.dynamicUnconditional,
                  trace.size());

        CorpusClassification want;
        std::vector<SitePredictability> all;
        for (const auto &[pc, cell] : exact) {
            SitePredictability site;
            site.pc = pc;
            site.branches = cell.first;
            site.mispredicts = cell.second;
            const double ratio = double(cell.second) / double(cell.first);
            if (cell.first < options.classifyMinBranches) {
                site.klass = Predictability::Cold;
                ++want.coldSites;
            } else if (ratio <= options.easyThreshold) {
                site.klass = Predictability::Easy;
                ++want.easySites;
            } else if (ratio > options.hardThreshold) {
                site.klass = Predictability::Hard;
                ++want.hardSites;
                want.hardMispredicts += cell.second;
            } else {
                site.klass = Predictability::Medium;
                ++want.mediumSites;
            }
            want.totalMispredicts += cell.second;
            all.push_back(site);
        }
        std::stable_sort(all.begin(), all.end(),
                         [](const SitePredictability &a,
                            const SitePredictability &b) {
                             return a.mispredicts > b.mispredicts;
                         });
        all.resize(std::min(all.size(), options.topSites));

        const CorpusClassification &got = file.classes;
        EXPECT_EQ(got.easySites, want.easySites);
        EXPECT_EQ(got.mediumSites, want.mediumSites);
        EXPECT_EQ(got.hardSites, want.hardSites);
        EXPECT_EQ(got.coldSites, want.coldSites);
        EXPECT_EQ(got.hardMispredicts, want.hardMispredicts);
        EXPECT_EQ(got.totalMispredicts, want.totalMispredicts);
        EXPECT_GT(want.hardSites, 0u);
        ASSERT_EQ(got.hardest.size(), all.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            EXPECT_EQ(got.hardest[i].pc, all[i].pc);
            EXPECT_EQ(got.hardest[i].branches, all[i].branches);
            EXPECT_EQ(got.hardest[i].mispredicts, all[i].mispredicts);
            EXPECT_EQ(got.hardest[i].klass, all[i].klass);
        }

        // Every member's SimResult — the reference's top sites included
        // — matches a scalar-loop session over the in-memory trace.
        ASSERT_EQ(file.results.size(), options.specs.size());
        for (std::size_t s = 0; s < options.specs.size(); ++s) {
            SimOptions scalar = options.sim;
            scalar.scalarReplay = true;
            scalar.topSites = s == 0 ? options.topSites : 0;
            auto solo = makePredictor(options.specs[s]);
            const SimResult want_result =
                simulateWithOptions(*solo, trace, scalar);
            EXPECT_EQ(want_result.toJson().dump(),
                      file.results[s].toJson().dump());
        }
        EXPECT_FALSE(file.results[0].topSites.empty());
    }
}

TEST(Corpus, CorruptFileIsIsolated)
{
    ScratchDir dir("isolate");
    saveBinaryTrace(dir.file("good.bpt"), makeSampleTrace(4000, 31));
    writeFile(dir.file("bad.bpt"), "BPT1 this is not really a trace");

    CorpusOptions options;
    options.specs = {"gshare:10:8"};
    const CorpusReport report = runCorpus(dir.str(), options);

    ASSERT_EQ(report.files.size(), 2u);
    EXPECT_FALSE(report.files[0].error.empty());
    EXPECT_EQ(report.files[0].file, "bad.bpt");
    EXPECT_TRUE(report.files[1].error.empty());
    EXPECT_GT(report.files[1].records, 0u);
}

} // namespace
} // namespace bpred
