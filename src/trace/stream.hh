/**
 * @file
 * Pull-based streaming trace sources.
 *
 * A TraceSource delivers a branch trace in bounded-memory chunks, so
 * a SimSession (sim/session.hh) can consume traces far larger than
 * memory — decoded incrementally from a BPT1 file, generated on the
 * fly (workloads/stream_source.hh), or served from an in-memory
 * Trace for the batch path. Sources are single-pass unless they
 * document otherwise.
 */

#pragma once

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "support/aligned.hh"
#include "trace/trace.hh"

namespace bpred
{

/** A pull-based producer of branch records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Benchmark name of the streamed trace. */
    virtual const std::string &name() const = 0;

    /**
     * Copy up to @p max records into @p out, in trace order.
     *
     * @return Records produced; 0 means the stream is exhausted
     *         (and every later call also returns 0).
     */
    virtual std::size_t pull(BranchRecord *out, std::size_t max) = 0;

    /**
     * Records still to come, when the source knows it exactly from
     * a TRUSTED or validated quantity; 0 means unknown. Consumers
     * size allocations by this (drainSource pre-reserves), so an
     * implementation must never report an unvalidated wire-format
     * count — return 0 instead and let the consumer grow.
     */
    virtual u64 sizeHint() const { return 0; }
};

/**
 * A TraceSource view over an in-memory Trace (not owned; must
 * outlive the source). Supports rewind(), so one materialized trace
 * can feed many streaming runs.
 */
class MemoryTraceSource : public TraceSource
{
  public:
    explicit MemoryTraceSource(const Trace &trace) : trace_(trace) {}

    const std::string &name() const override { return trace_.name(); }
    std::size_t pull(BranchRecord *out, std::size_t max) override;
    u64 sizeHint() const override { return trace_.size() - next; }

    /** Restart the stream from the first record. */
    void rewind() { next = 0; }

  private:
    const Trace &trace_;
    std::size_t next = 0;
};

/**
 * Incremental BPT1 decoder over an istream, for pipes and for files
 * that cannot be mapped. The stream is read in slab-sized gulps into
 * one aligned scratch slab, and the slab goes through the same
 * header parser and bulk decoder (bpt::decodeRecords) as an mmap, so
 * a multi-gigabyte trace is simulated without ever being
 * materialized. A seekable stream measures its length first, which
 * validates the declared record count (trace/bpt_format.hh).
 */
class BinaryTraceSource : public TraceSource
{
  public:
    /**
     * Stream from @p is (not owned; must outlive the source and be
     * positioned at the BPT1 magic).
     *
     * @throws FatalError on a malformed header.
     */
    explicit BinaryTraceSource(std::istream &is);

    /**
     * Open @p path and stream from it (the file handle is owned).
     *
     * @throws FatalError when the file cannot be opened or the
     *         header is malformed.
     */
    explicit BinaryTraceSource(const std::string &path);

    const std::string &name() const override { return name_; }
    std::size_t pull(BranchRecord *out, std::size_t max) override;

    /**
     * The remaining record count, but only once the header's count
     * was verified against the stream length — a bare wire count
     * must not size downstream allocations.
     */
    u64 sizeHint() const override;

    /** Records not yet pulled. */
    u64 remaining() const { return remaining_; }

    /**
     * Fill at most @p bytes of the slab per refill (clamped to one
     * maximal record and to the slab size). Exposed so tests can
     * force refills to land mid-record; real consumers keep the
     * whole slab. The constructor reads no more than the longest
     * header, so the limit governs every payload read.
     */
    void setScratchBytes(std::size_t bytes);

  private:
    /** Raw bytes buffered per bulk read (~64 KiB slab). */
    static constexpr std::size_t defaultScratchBytes = 64 * 1024;

    /** Measure the stream, then parse the header from the slab. */
    void readHeader();

    /**
     * Slide the unread bytes to the front of the slab and read until
     * it holds @p fill bytes or the stream ends.
     *
     * @return Bytes read; 0 when the stream has nothing left.
     */
    std::size_t refill(std::size_t fill);

    std::unique_ptr<std::ifstream> owned;
    std::istream *stream;
    std::string name_;
    u64 remaining_ = 0;
    Addr lastPc = 0;
    bool lengthValidated = false;

    /** Cache-line aligned so bulk decode reads start on a line. */
    AlignedVector<char> scratch;
    std::size_t scratchAt = 0;
    std::size_t scratchEnd = 0;
    std::size_t fillBytes = defaultScratchBytes;
};

/**
 * Drain @p source to completion into an in-memory Trace, pulling
 * @p chunk_records at a time.
 */
Trace drainSource(TraceSource &source, std::size_t chunk_records = 65536);

} // namespace bpred

