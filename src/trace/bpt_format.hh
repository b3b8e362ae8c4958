/**
 * @file
 * Internal BPT1 wire-format primitives: the serializer trace_io
 * writes with, and the one header parser and record decoder every
 * reader (mmap, stream slab, inflated .gz) runs over bytes.
 *
 * Layout: 4-byte magic "BPT1", varint name length, name bytes,
 * varint record count, then per record a flag byte (bit 0 = taken,
 * bit 1 = conditional) and a zigzag-varint PC delta from the
 * previous record's PC.
 *
 * This header is library-internal: tools exchange traces through
 * trace_io.hh / stream.hh, never by touching the encoding directly.
 */

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "support/types.hh"
#include "trace/branch_record.hh"

namespace bpred::bpt
{

inline constexpr char magic[4] = {'B', 'P', 'T', '1'};

/** Emit a LEB128 varint. */
void writeVarint(std::ostream &os, u64 value);

/** ZigZag encoding maps signed deltas to small unsigned values. */
u64 zigZagEncode(i64 value);
i64 zigZagDecode(u64 value);

/** The decoded BPT1 stream header. */
struct Header
{
    std::string name;

    /** Declared record count. */
    u64 count = 0;

    /**
     * True when the source knew its byte length and @p count was
     * verified to fit in the payload. When false (pipes, non-seekable
     * streams) callers must bound allocations themselves and rely on
     * per-record truncation checks.
     */
    bool lengthValidated = false;
};

/** Write magic, name and record count. */
void writeHeader(std::ostream &os, const std::string &name, u64 count);

/** Longest benchmark name any BPT1 reader accepts. */
inline constexpr u64 maxNameBytes = 4096;

/**
 * Longest header readHeader() accepts: the magic, the longest name
 * and its two 10-byte varints. A buffer this long always resolves a
 * header, so a stream reader can parse it from one bounded read.
 */
inline constexpr std::size_t maxHeaderBytes =
    sizeof(magic) + 10 + maxNameBytes + 10;

/**
 * The byte length of a whole trace, header included, when its source
 * knows it: the buffer length of an mmap or an inflated .gz image,
 * or the length a seekable stream measures by seeking to its end.
 * Pipes leave @p known false.
 */
struct TraceLength
{
    u64 bytes = 0;
    bool known = false;
};

/**
 * Read and validate magic, name and record count from the first
 * @p size bytes of a trace — the one header parser every reader
 * shares, so the limits cannot drift apart. The name is capped at
 * maxNameBytes. When @p length is known, the declared count is
 * checked against the payload that follows the header: every record
 * costs at least two bytes (flag byte plus one varint byte), so a
 * corrupt or hostile header cannot induce an absurd allocation.
 *
 * @param header_bytes Out: bytes the header occupied; the payload
 *        starts at data + header_bytes.
 *
 * @throws FatalError on bad magic, an unreasonable name, a header
 *         that @p size cuts short, or an overdeclared record count.
 */
Header readHeader(const u8 *data, std::size_t size,
                  const TraceLength &length, std::size_t &header_bytes);

/**
 * Append one record, delta-encoding the PC against @p last_pc
 * (updated in place).
 */
void writeRecord(std::ostream &os, const BranchRecord &record,
                 Addr &last_pc);

/**
 * Upper bound on one encoded record: a flag byte plus a 10-byte
 * varint (an 11th continuation byte is rejected as overflow). Any
 * buffer holding at least this many bytes always resolves
 * readRecord() below.
 */
inline constexpr std::size_t maxRecordBytes = 11;

/**
 * Decode one record with a bounds check on every byte: the checked
 * tail of decodeRecords() and the reference it is tested against.
 *
 * @return Bytes consumed (record written to @p out, @p last_pc
 *         advanced), or 0 when the buffer ends mid-record with
 *         nothing modified — refill and retry.
 *
 * @throws FatalError on bad flags or varint overflow.
 */
std::size_t readRecord(const char *data, std::size_t size,
                       BranchRecord &out, Addr &last_pc);

/**
 * Bulk-decode up to @p max records from @p data — the one record
 * decoder every BPT1 source runs, over an mmap, a stream slab or an
 * inflated .gz image. Instead of a per-byte bounds check, the
 * buffer is carved into sub-batches of records whose worst-case
 * encoded size (maxRecordBytes each) provably fits in the remaining
 * span, and the sub-batch body decodes with unchecked loads; the
 * ragged tail
 * falls back to the checked readRecord() above. Wire semantics are
 * bit-identical to readRecord(): same flag validation, same varint
 * overflow rule, same u64 wrap-around delta arithmetic.
 *
 * @param consumed Out: bytes consumed from @p data.
 * @return Records decoded; less than @p max only when the buffer
 *         ends (possibly mid-record — the partial record is not
 *         consumed, mirroring readRecord()'s refill contract).
 *
 * @throws FatalError on bad flags or varint overflow.
 */
std::size_t decodeRecords(const u8 *data, std::size_t size,
                          BranchRecord *out, std::size_t max,
                          Addr &last_pc, std::size_t &consumed);

/**
 * A decode position in one payload held whole in memory, whose
 * record count a validated header declared: the cursor the mmap
 * source and the .bpt.gz adapter both pull through.
 */
class PayloadCursor
{
  public:
    /** Decode @p count records from the @p bytes at @p payload. */
    PayloadCursor(const u8 *payload, std::size_t bytes, u64 count)
        : payload_(payload), bytes_(bytes), remaining_(count)
    {
    }

    /**
     * Decode the next min(@p max, remaining()) records into @p out.
     *
     * @return Records decoded; 0 once the declared count is reached.
     * @throws FatalError when the payload ends before the declared
     *         count, on bad flags or on varint overflow.
     */
    std::size_t pull(BranchRecord *out, std::size_t max);

    /** Records not yet pulled. */
    u64 remaining() const { return remaining_; }

    /** Payload bytes consumed so far. */
    std::size_t offset() const { return at; }

  private:
    const u8 *payload_;
    std::size_t bytes_;
    std::size_t at = 0;
    u64 remaining_;
    Addr lastPc = 0;
};

} // namespace bpred::bpt

