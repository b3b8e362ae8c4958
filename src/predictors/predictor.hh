/**
 * @file
 * The abstract conditional-branch predictor interface.
 */

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "support/types.hh"
#include "trace/branch_record.hh"

namespace bpred
{

class ProbeSink;
struct ReplayScratch;

/** Result of a fused predict-and-train step (predictAndUpdate()). */
struct Outcome
{
    /** The direction predicted before the tables trained. */
    bool prediction = false;
};

/**
 * Tallies accumulated by replayBlock(), plus an optional
 * per-conditional mispredict mask for per-site attribution.
 */
struct ReplayCounters
{
    /** Conditional branches resolved in the block. */
    u64 conditionals = 0;

    /** Mispredicted conditional branches among them. */
    u64 mispredicts = 0;

    /**
     * When non-null, replayBlock() stores 1 (mispredicted) or 0 at
     * index j for the j-th conditional branch of the call, so it
     * must hold one byte per conditional record. Only the reference
     * kernels write it (the State kernels in block_kernel.hh, probed
     * or not), so callers wanting the mask pass a null ReplayScratch.
     */
    u8 *mispredicted = nullptr;
};

/**
 * Abstract conditional-branch direction predictor.
 *
 * Contract: for every *conditional* branch, in trace order, the
 * simulation driver calls predictAndUpdate(pc, taken), which
 * returns the direction predicted with the pre-branch state and
 * then trains; it calls notifyUnconditional(pc) for every
 * unconditional branch. replayBlock() does the same for a whole
 * block of records. predict() is a side-effect-free query of the
 * current state. Predictors that keep global history shift
 * unconditional branches in as taken, as the paper does.
 *
 * Schemes do not implement these entry points one by one: each
 * derives from BlockPredictor (below) and defines its resolve logic
 * once, in a private State, from which all four are generated.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Predicted direction for the conditional branch at @p pc. */
    virtual bool predict(Addr pc) const = 0;

    /**
     * Resolve the conditional branch at @p pc with outcome @p taken:
     * return the direction predicted beforehand, then train the
     * tables and advance any internal history.
     */
    virtual Outcome predictAndUpdate(Addr pc, bool taken) = 0;

    /**
     * Observe an unconditional branch at @p pc. Global-history
     * predictors shift in a taken outcome.
     */
    virtual void notifyUnconditional(Addr pc) = 0;

    /**
     * Resolve a whole block of records in trace order — conditional
     * branches as predictAndUpdate() would, unconditional ones as
     * notifyUnconditional() would — adding the block's conditional
     * and misprediction counts to @p counters. One virtual dispatch
     * per block: the gang replay engine's fast path (sim/gang.hh).
     *
     * @p scratch, when non-null, lends the session's SoA staging
     * buffers (predictors/replay_scratch.hh) and carries the
     * requested SimdMode: schemes with a phase-split kernel may then
     * precompute the block's table indices with the vectorized
     * index pass and resolve fed by them — still byte-identical to
     * the reference path. A null scratch always runs the reference
     * kernel, which also fills counters.mispredicted.
     */
    virtual void replayBlock(const BranchRecord *records,
                             std::size_t count,
                             ReplayCounters &counters,
                             ReplayScratch *scratch = nullptr) = 0;

    /** Short configuration name, e.g. "gshare-16K-h12". */
    virtual std::string name() const = 0;

    /**
     * Total predictor storage in bits: the hardware cost metric the
     * paper compares designs by. Tag-less tables count only counter
     * bits; tagged structures include tags.
     */
    virtual u64 storageBits() const = 0;

    /** Return to the power-on state. */
    virtual void reset() = 0;

    /**
     * True when this predictor implements saveState()/loadState().
     * Default: false (the base-class implementations throw).
     */
    virtual bool supportsSnapshot() const { return false; }

    /**
     * Serialize the complete mutable predictor state — counters,
     * history registers, chooser state — to @p os so a later
     * loadState() on an identically-configured instance reproduces
     * every subsequent prediction exactly. This is the raw payload;
     * callers wanting a self-describing on-disk artifact should use
     * savePredictorState(), which frames it with a versioned magic
     * and the configuration name.
     *
     * @throws FatalError when the predictor does not support
     *         snapshotting (see supportsSnapshot()).
     */
    virtual void saveState(std::ostream &os) const;

    /**
     * Restore state written by saveState() on a predictor with the
     * same configuration.
     *
     * @throws FatalError on unsupported predictors, geometry
     *         mismatches or a corrupt stream.
     */
    virtual void loadState(std::istream &is);

    /**
     * Attach a telemetry sink (see support/probe.hh); nullptr
     * detaches. Instrumented predictors publish per-prediction
     * events to the sink as each conditional branch resolves;
     * predictors without instrumentation simply ignore it. Returns
     * the previously attached sink so callers can restore it.
     */
    ProbeSink *
    attachProbe(ProbeSink *sink)
    {
        ProbeSink *previous = probeSink;
        probeSink = sink;
        return previous;
    }

    /** The currently attached telemetry sink (nullptr if none). */
    ProbeSink *probe() const { return probeSink; }

  protected:
    /**
     * The attached sink, null in the common case. BlockPredictor
     * tests it once per call and picks the probed or the plain
     * instantiation of the scheme's step.
     */
    ProbeSink *probeSink = nullptr;
};

/**
 * The base every scheme derives from: it generates all four
 * Predictor entry points from the single resolve definition in
 * Derived's private State. The members are defined in
 * predictors/block_kernel.hh, which documents the State contract;
 * each scheme's .cc includes it and instantiates
 * `template class BlockPredictor<Scheme>;` once.
 */
template <typename Derived>
class BlockPredictor : public Predictor
{
  public:
    bool predict(Addr pc) const final;
    Outcome predictAndUpdate(Addr pc, bool taken) final;
    void notifyUnconditional(Addr pc) final;
    void replayBlock(const BranchRecord *records, std::size_t count,
                     ReplayCounters &counters,
                     ReplayScratch *scratch = nullptr) final;

  protected:
    /**
     * Build Derived's State and return @p fn(state). The default
     * calls Derived::state(); a scheme whose State is a template
     * (one instantiation per bank count) shadows this to dispatch.
     */
    template <typename Fn>
    decltype(auto) withState(Fn &&fn);

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
};

/**
 * Write a framed, self-describing snapshot of @p predictor: the
 * "BPS1" magic, a format version, the predictor's configuration
 * name, then the saveState() payload. The name doubles as a
 * configuration fingerprint — loadPredictorState() refuses to
 * restore into a predictor whose name differs.
 *
 * @throws FatalError when snapshotting is unsupported or on I/O
 *         failure.
 */
void savePredictorState(const Predictor &predictor, std::ostream &os);

/**
 * Restore a snapshot written by savePredictorState().
 *
 * @throws FatalError on a bad magic, an unsupported version, a
 *         configuration-name mismatch, or a corrupt payload.
 */
void loadPredictorState(Predictor &predictor, std::istream &is);

/** savePredictorState() to a file. @throws FatalError on I/O error. */
void savePredictorState(const Predictor &predictor,
                        const std::string &path);

/** loadPredictorState() from a file. @throws FatalError on error. */
void loadPredictorState(Predictor &predictor, const std::string &path);

} // namespace bpred

