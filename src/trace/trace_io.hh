/**
 * @file
 * Branch-trace serialization.
 *
 * Two formats are supported:
 *
 *  - A compact binary format ("BPT1"): magic, name, record count,
 *    then delta-encoded records (varint PC delta, flag byte). This is
 *    what tools should use to exchange traces.
 *  - A human-readable text format: one record per line,
 *    "C|U <hex pc> T|N", with '#' comments. Handy for writing small
 *    traces by hand in tests and examples.
 */

#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace bpred
{

/** Serialize @p trace in the binary "BPT1" format. */
void writeBinaryTrace(std::ostream &os, const Trace &trace);

/**
 * Deserialize a binary "BPT1" trace: a drain of BinaryTraceSource.
 *
 * @throws FatalError on malformed input.
 */
Trace readBinaryTrace(std::istream &is);

/** Write @p trace as binary to @p path. @throws FatalError on I/O error. */
void saveBinaryTrace(const std::string &path, const Trace &trace);

/**
 * Read a binary trace from @p path: a drain of openTraceSource(), so
 * a file that maps decodes straight from the mapping.
 *
 * @throws FatalError on error.
 */
Trace loadBinaryTrace(const std::string &path);

/** Serialize @p trace in the text format. */
void writeTextTrace(std::ostream &os, const Trace &trace);

/**
 * Parse a text-format trace.
 *
 * @throws FatalError on malformed lines.
 */
Trace readTextTrace(std::istream &is, const std::string &name = "");

} // namespace bpred

