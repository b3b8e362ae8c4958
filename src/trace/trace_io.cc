#include "trace/trace_io.hh"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/logging.hh"
#include "trace/bpt_format.hh"
#include "trace/mmap_source.hh"

namespace bpred
{

void
writeBinaryTrace(std::ostream &os, const Trace &trace)
{
    bpt::writeHeader(os, trace.name(), trace.size());
    Addr last_pc = 0;
    for (const BranchRecord &record : trace) {
        bpt::writeRecord(os, record, last_pc);
    }
    if (!os) {
        fatal("trace: write failure");
    }
}

Trace
readBinaryTrace(std::istream &is)
{
    BinaryTraceSource source(is);
    return drainSource(source);
}

void
saveBinaryTrace(const std::string &path, const Trace &trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        fatal("trace: cannot open '" + path + "' for writing");
    }
    writeBinaryTrace(os, trace);
    if (!os) {
        fatal("trace: error while writing '" + path + "'");
    }
}

Trace
loadBinaryTrace(const std::string &path)
{
    return drainSource(*openTraceSource(path).source);
}

void
writeTextTrace(std::ostream &os, const Trace &trace)
{
    os << "# trace: " << trace.name() << "\n";
    os << "# format: C|U <hex pc> T|N\n";
    os << std::hex;
    for (const BranchRecord &record : trace) {
        os << (record.conditional ? 'C' : 'U') << ' '
           << record.pc << ' '
           << (record.taken ? 'T' : 'N') << '\n';
    }
    os << std::dec;
}

Trace
readTextTrace(std::istream &is, const std::string &name)
{
    Trace trace(name);
    std::string line;
    u64 line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        // Strip comments and blank lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream fields(line);
        char kind = 0;
        std::string pc_text;
        char direction = 0;
        if (!(fields >> kind)) {
            continue; // blank line
        }
        if (!(fields >> pc_text >> direction)) {
            fatal("trace: malformed line " + std::to_string(line_no));
        }
        if (kind != 'C' && kind != 'U') {
            fatal("trace: bad branch kind on line " +
                  std::to_string(line_no));
        }
        if (direction != 'T' && direction != 'N') {
            fatal("trace: bad direction on line " +
                  std::to_string(line_no));
        }
        Addr pc = 0;
        try {
            pc = std::stoull(pc_text, nullptr, 16);
        } catch (const std::exception &) {
            fatal("trace: bad pc on line " + std::to_string(line_no));
        }
        const bool taken = direction == 'T';
        if (kind == 'U' && !taken) {
            fatal("trace: unconditional branch marked not-taken on line " +
                  std::to_string(line_no));
        }
        trace.append({pc, taken, kind == 'C'});
    }
    return trace;
}

} // namespace bpred
