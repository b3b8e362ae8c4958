/**
 * @file
 * Per-prediction telemetry probes.
 *
 * Instrumented predictors publish fine-grained events — bank votes,
 * majority-vs-bank disagreement, update-policy skips, counter-state
 * transitions — to an optional ProbeSink attached via
 * Predictor::attachProbe(). With no sink attached the predictor
 * runs the instantiation of its step that has no publishing sites
 * at all (predictors/block_kernel.hh), so the simulation hot path
 * is unaffected.
 *
 * Event-to-publisher map:
 *  - ResolvedEvent: every instrumented predictor, once per resolved
 *    conditional branch
 *  - BankVoteEvent: voting predictors (gskewed / e-gskew), once per
 *    bank per resolved conditional branch
 *  - UpdateSkipEvent: gskewed partial / partial-lazy policies
 *  - CounterWriteEvent: any table write that changes a counter
 *  - ChoiceEvent: the McFarling hybrid's chooser
 */

#pragma once

#include <vector>

#include "support/stat_registry.hh"
#include "support/types.hh"

namespace bpred
{

/** One resolved conditional branch: final prediction vs outcome. */
struct ResolvedEvent
{
    Addr pc;
    bool predicted;
    bool taken;
};

/** One bank's vote within a majority-vote predictor, at resolution. */
struct BankVoteEvent
{
    Addr pc;
    unsigned bank;
    /** This bank's predicted direction. */
    bool vote;
    /** The majority (overall) prediction. */
    bool majority;
    /** The actual outcome. */
    bool taken;
};

/** A bank write suppressed by the update policy (§4.1 / §7). */
struct UpdateSkipEvent
{
    enum class Reason
    {
        /** Partial update: bank wrong, majority right — protected. */
        PartialProtect,

        /** Lazy update: counter already saturated the right way. */
        LazySaturated,
    };

    unsigned bank;
    Reason reason;
};

/** A counter write that changed the stored value. */
struct CounterWriteEvent
{
    /** Bank (voting predictors) or 0 (single-table predictors). */
    unsigned bank;
    u8 before;
    u8 after;
};

/** A hybrid-chooser decision. */
struct ChoiceEvent
{
    /** True when the chooser selected the first component. */
    bool choseFirst;

    /** True when the two components disagreed. */
    bool componentsDisagreed;

    /** True when the selected component was correct. */
    bool choiceCorrect;
};

/**
 * Receiver of per-prediction telemetry events. All handlers default
 * to no-ops so sinks override only what they consume.
 */
class ProbeSink
{
  public:
    virtual ~ProbeSink() = default;

    virtual void onResolved(const ResolvedEvent &) {}
    virtual void onBankVote(const BankVoteEvent &) {}
    virtual void onUpdateSkip(const UpdateSkipEvent &) {}
    virtual void onCounterWrite(const CounterWriteEvent &) {}
    virtual void onChoice(const ChoiceEvent &) {}
};

/**
 * A ProbeSink that aggregates events into a StatRegistry:
 *
 *   resolved.mispredict      ratio   (per resolved branch)
 *   bank<i>.disagree         ratio   (vote != majority)
 *   bank<i>.correct          ratio   (vote == outcome)
 *   bank<i>.skips.partial    counter
 *   bank<i>.skips.lazy       counter
 *   bank<i>.writes           counter (value-changing writes)
 *   bank<i>.transitions      histogram, key = before * 256 + after
 *   chooser.first            ratio   (chose first component)
 *   chooser.disagree         ratio   (components disagreed)
 *   chooser.correct          ratio   (selected component correct)
 *
 * Per-bank stat references are cached after first use, so the
 * per-event cost is a few pointer chases, not a map lookup.
 */
class CountingProbe : public ProbeSink
{
  public:
    CountingProbe() = default;

    StatRegistry &registry() { return stats; }
    const StatRegistry &registry() const { return stats; }

    void onResolved(const ResolvedEvent &event) override;
    void onBankVote(const BankVoteEvent &event) override;
    void onUpdateSkip(const UpdateSkipEvent &event) override;
    void onCounterWrite(const CounterWriteEvent &event) override;
    void onChoice(const ChoiceEvent &event) override;

  private:
    /** Cached stat references for one bank. */
    struct BankStats
    {
        RatioStat *disagree = nullptr;
        RatioStat *correct = nullptr;
        u64 *skipsPartial = nullptr;
        u64 *skipsLazy = nullptr;
        u64 *writes = nullptr;
        Histogram *transitions = nullptr;
    };

    BankStats &bank(unsigned index);

    StatRegistry stats;
    std::vector<BankStats> banks;
};

} // namespace bpred

