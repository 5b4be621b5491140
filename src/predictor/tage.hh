/**
 * @file
 * A compact tagged-geometric-history predictor (TAGE) [Seznec, Michaud
 * 2006] -- the scheme that displaced the two-level family this paper
 * studies, precisely because tagging changes the aliasing story.
 *
 * A bimodal base table backs N tagged components, each indexed by a
 * geometrically longer slice of global history.  The longest-history
 * component whose tag matches provides the prediction; a tag mismatch
 * falls through instead of silently training a stranger's counter, so
 * destructive aliasing is traded for allocation (cold/capacity) misses.
 * The interference machinery in src/sim/interference.* relies on that
 * distinction: a miss on a freshly allocated entry is a cold miss, not
 * aliasing.
 *
 * The model is deliberately compact and fully deterministic so the naive
 * reference model in src/verify/ can mirror it step for step:
 *  - SatCounter<3> prediction counters, 2-bit useful counters;
 *  - allocation picks the FIRST entry with u==0 above the provider
 *    (no randomized victim choice), else decrements every u above;
 *  - no periodic useful-bit reset sweep.
 */

#ifndef BPSIM_PREDICTOR_TAGE_HH
#define BPSIM_PREDICTOR_TAGE_HH

#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/history_register.hh"
#include "common/sat_counter.hh"
#include "predictor/predictor.hh"

namespace bpsim {

/** Geometry of a TageModel. */
struct TageParams
{
    /** log2 entries of the bimodal base table. */
    unsigned baseBits = 12;
    /** log2 entries of EACH tagged component. */
    unsigned entryBits = 10;
    /** Tag width in bits (kMinTagBits..kMaxTagBits). */
    unsigned tagBits = 8;
    /**
     * History length per tagged component (1..kMaxComponents of them),
     * strictly ascending, each 1..kMaxHistory.
     */
    std::vector<unsigned> histories = {4, 8, 16, 32};

    static constexpr unsigned kMinTagBits = 2;
    static constexpr unsigned kMaxTagBits = 16;
    static constexpr std::size_t kMaxComponents = 8;
    static constexpr unsigned kMaxHistory = 64;

    /** bpsim_assert that the geometry is well-formed. */
    void validate() const;
};

/** What one predict-and-train step did (analysis and test hooks). */
struct TageStep
{
    /** The final prediction. */
    bool prediction = false;
    /** Provider component, 1-based; 0 means the base table provided. */
    unsigned provider = 0;
    /** The providing entry had never been trained before this step. */
    bool providerWasFresh = false;
    /** This step (re)allocated a tagged entry after a mispredict. */
    bool allocated = false;
};

/**
 * The replayable TAGE core: all state plus a step() that consumes an
 * externally maintained global history.  The online TagePredictor and
 * the interference analysis (sim/interference.cc) drive this class.
 * The sweep engine replays the same rules on packed lane slots through
 * the TageBatch kernels (common/simd.hh); the model-batch differential
 * tests hold those to this class's results and to the NaiveTage mirror.
 */
class TageModel
{
  public:
    /** One tagged-component entry (exposed for unit tests). */
    struct TaggedEntry
    {
        SatCounter<3> ctr{};
        std::uint16_t tag = 0;
        std::uint8_t useful = 0;
        bool valid = false;
    };

    explicit TageModel(const TageParams &params);

    /**
     * Predict and train on one branch.
     *
     * @param pc     branch address (word-aligned)
     * @param ghist  global outcome history BEFORE this branch, bit 0
     *               newest (HistoryRegister / PreparedTrace convention)
     * @param taken  the actual outcome
     */
    TageStep step(Addr pc, std::uint64_t ghist, bool taken);

    void reset();

    const TageParams &params() const { return params_; }

    /** Total prediction state: base counters + tagged entries. */
    std::size_t counterCount() const
    {
        return base_.size() + components_.size() * components_[0].size();
    }

    /** Number of step() calls since construction/reset. */
    std::uint64_t updates() const { return updates_; }

    /** @name Deterministic hash hooks, exposed for unit tests. */
    ///@{
    std::size_t baseIndex(Addr pc) const;
    std::size_t taggedIndex(unsigned comp, Addr pc,
                            std::uint64_t ghist) const;
    std::uint16_t taggedTag(unsigned comp, Addr pc,
                            std::uint64_t ghist) const;
    const TaggedEntry &entryAt(unsigned comp, std::size_t idx) const
    {
        return components_[comp][idx];
    }
    ///@}

  private:
    TageParams params_;
    std::vector<TwoBitCounter> base_;
    /** Base entries that have been trained at least once. */
    std::vector<std::uint8_t> baseTrained_;
    std::vector<std::vector<TaggedEntry>> components_;
    std::uint64_t updates_ = 0;
};

/** The online (BranchPredictor) wrapper: model + its own history. */
class TagePredictor : public BranchPredictor
{
  public:
    explicit TagePredictor(const TageParams &params);

    bool onBranch(const BranchRecord &rec) override;
    void reset() override;
    std::string name() const override;
    std::size_t counterCount() const override
    {
        return model_.counterCount();
    }

    const TageModel &model() const { return model_; }

  private:
    TageModel model_;
    HistoryRegister history_;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_TAGE_HH
