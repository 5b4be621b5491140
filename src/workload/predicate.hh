/**
 * @file
 * Branch behaviour models ("predicates") driving the conditional branches
 * of synthetic programs.
 *
 * The mix of these models is what gives each benchmark profile its
 * character, following the populations the paper identifies in Section 2:
 * highly biased branches (error/bounds checks and other routine
 * conditionals), loop branches, branches with periodic self-history
 * patterns, branches correlated with earlier branch outcomes, and noisy
 * low-bias branches.
 */

#ifndef BPSIM_WORKLOAD_PREDICATE_HH
#define BPSIM_WORKLOAD_PREDICATE_HH

#include <cstdint>
#include <memory>

#include "common/random.hh"

namespace bpsim {

/**
 * The slice of executor state a predicate may consult when producing an
 * outcome.  Keeping this narrow documents exactly which inter-branch
 * information the workload can encode.
 */
class ExecContext
{
  public:
    virtual ~ExecContext() = default;

    /** Workload RNG (shared; deterministic for a given seed). */
    virtual Pcg32 &rng() = 0;

    /**
     * The last 64 conditional outcomes executed, most recent in bit 0 --
     * the ground truth that global-history predictors try to mirror.
     */
    virtual std::uint64_t globalOutcomeHistory() const = 0;

    /** Last outcome of conditional site @p site_id (false if never run). */
    virtual bool lastOutcomeOf(std::size_t site_id) const = 0;
};

/** Abstract outcome generator attached to one conditional branch site. */
class Predicate
{
  public:
    virtual ~Predicate() = default;

    /** Produce the outcome for one execution of the branch. */
    virtual bool evaluate(ExecContext &ctx) = 0;

    /** Reset mutable per-site state (new trace generation run). */
    virtual void reset() {}

    /** Behaviour-class name for analysis tools ("biased", "loop", ...). */
    virtual const char *typeName() const = 0;
};

/** Taken with fixed probability @p p, independently each execution. */
class BiasedPredicate : public Predicate
{
  public:
    explicit BiasedPredicate(double p);
    bool evaluate(ExecContext &ctx) override;
    const char *typeName() const override
    {
        return p >= 0.9 || p <= 0.1 ? "biased-high" : "biased-low";
    }

  private:
    double p;
};

/**
 * Repeats a fixed outcome pattern of @p length bits (bit 0 first).
 * Perfectly predictable from @p length bits of self history; models
 * alternating/periodic program conditions.
 */
class PatternPredicate : public Predicate
{
  public:
    PatternPredicate(std::uint64_t pattern, unsigned length,
                     double noise = 0.0);
    bool evaluate(ExecContext &ctx) override;
    void reset() override { pos = 0; }
    const char *typeName() const override { return "pattern"; }

    unsigned length() const { return len; }

  private:
    std::uint64_t pattern;
    unsigned len;
    double noise;
    unsigned pos = 0;
};

/**
 * Two-state Markov chain: repeats its previous outcome with probability
 * @p p_stay.  Models run-structured conditions (phase behaviour);
 * predictable from one bit of self history when p_stay > 1/2.
 */
class MarkovPredicate : public Predicate
{
  public:
    MarkovPredicate(double p_stay, bool initial = true);
    bool evaluate(ExecContext &ctx) override;
    void reset() override { last = initial; }
    const char *typeName() const override { return "markov"; }

  private:
    double pStay;
    bool initial;
    bool last;
};

/**
 * Outcome is the XOR (optionally inverted) of selected recent *global*
 * outcomes, flipped with probability @p noise.  This is inter-branch
 * correlation in its purest form: a GAg/GAs predictor with history length
 * covering the deepest selected bit predicts it almost perfectly, while
 * self-history predictors see noise.
 */
class CorrelatedPredicate : public Predicate
{
  public:
    /**
     * @param history_mask which global-history bits feed the XOR
     *        (bit 0 = most recent outcome); must be nonzero
     * @param invert flip the XOR result
     * @param noise probability of flipping the final outcome
     */
    CorrelatedPredicate(std::uint64_t history_mask, bool invert,
                        double noise);
    bool evaluate(ExecContext &ctx) override;
    const char *typeName() const override { return "correlated"; }

    std::uint64_t historyMask() const { return maskBits; }

  private:
    std::uint64_t maskBits;
    bool invert;
    double noise;
};

/**
 * Mirrors (or negates) the last outcome of another branch site --
 * the classic "if (x < 0) ... if (x >= 0)" correlation pair from the
 * correlating-predictor literature.
 */
class ShadowPredicate : public Predicate
{
  public:
    ShadowPredicate(std::size_t other_site, bool invert, double noise);
    bool evaluate(ExecContext &ctx) override;
    const char *typeName() const override { return "shadow"; }

  private:
    std::size_t otherSite;
    bool invert;
    double noise;
};

/**
 * Loop-control predicate.  Draws a trip count at loop entry and reports
 * "continue" for the first T-1 evaluations, then "exit".
 *
 * Three trip models, reflecting how real loop branches behave:
 *  - fixed: exactly T trips every entry (compile-time bounds) -- the
 *    canonical history-predictable branch, costing 1/T for a plain
 *    two-bit counter;
 *  - jittered: a stable "home" trip count, occasionally replaced by a
 *    geometric redraw (data-dependent bounds that are usually the same);
 *  - geometric: memoryless exits (mean trips), which no history can
 *    anticipate -- only the taken bias is learnable.
 *
 * evaluate() returns true to CONTINUE the loop; the program builder wires
 * that to taken/not-taken according to the loop shape (bottom-test loops
 * take the backedge to continue; top-test loops take the exit edge to
 * stop).
 */
class LoopTripPredicate : public Predicate
{
  public:
    /** Geometric trip counts with the given mean (>= 1). */
    static std::unique_ptr<LoopTripPredicate> geometric(double mean_trips);
    /** Exactly @p trips iterations every entry (>= 1). */
    static std::unique_ptr<LoopTripPredicate> fixed(std::uint64_t trips);
    /**
     * Usually @p home_trips; with probability @p jitter_prob a fresh
     * geometric draw with mean home_trips instead.
     */
    static std::unique_ptr<LoopTripPredicate>
    jittered(std::uint64_t home_trips, double jitter_prob);

    bool evaluate(ExecContext &ctx) override;
    void reset() override { countdown = 0; }
    const char *typeName() const override
    {
        if (jitterProb <= 0.0)
            return "loop-fixed";
        return jitterProb >= 1.0 ? "loop-geometric" : "loop-home";
    }

  private:
    LoopTripPredicate(double mean, std::uint64_t home_trips,
                      double jitter_prob);

    /** Geometric mean; 0 when the home count applies. */
    double meanTrips;
    /** Home trip count; 0 for pure geometric. */
    std::uint64_t homeTrips;
    /** Probability of a geometric redraw instead of the home count. */
    double jitterProb;
    std::uint64_t countdown = 0;
};

} // namespace bpsim

#endif // BPSIM_WORKLOAD_PREDICATE_HH
