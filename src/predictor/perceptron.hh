/**
 * @file
 * A hashed perceptron predictor [Tarjan, Skadron 2005], the other
 * modern scheme Mittal's survey credits with displacing the two-level
 * family.  Instead of one saturating counter per (history, pc) point,
 * T small weight tables are each indexed by a hash of the pc and one
 * SEGMENT of global history; the prediction is the sign of the summed
 * weights.  Aliasing still exists -- two branches can share a weight --
 * but a single collision only perturbs one addend out of T, so the
 * damage is graceful rather than binary.
 *
 * Determinism notes (the naive reference model mirrors all of these):
 *  - integer weights clamped to [-64, 63];
 *  - training threshold theta = (193 * h) / 100 + 14 computed in
 *    integer arithmetic (the float form of Jimenez's 1.93h + 14 could
 *    round differently across implementations);
 *  - train on any mispredict, or whenever |sum| <= theta.
 */

#ifndef BPSIM_PREDICTOR_PERCEPTRON_HH
#define BPSIM_PREDICTOR_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/history_register.hh"
#include "predictor/predictor.hh"

namespace bpsim {

/** Geometry of a PerceptronModel. */
struct PerceptronParams
{
    /** Global history length split across the non-bias tables (1..64). */
    unsigned historyBits = 16;
    /** log2 entries of EACH weight table. */
    unsigned entryBits = 10;
    /**
     * Weight tables including the pc-indexed bias table
     * (kMinTables..kMaxTables).
     */
    unsigned tables = 4;

    static constexpr unsigned kMinTables = 2;
    static constexpr unsigned kMaxTables = 16;

    /** bpsim_assert that the geometry is well-formed. */
    void validate() const;

    /** The integer training threshold: (193 * h) / 100 + 14. */
    int
    threshold() const
    {
        return static_cast<int>((193u * historyBits) / 100u) + 14;
    }
};

/** What one predict-and-train step did (analysis and test hooks). */
struct PerceptronStep
{
    /** The final prediction: sum >= 0. */
    bool prediction = false;
    /** The summed weights behind the prediction. */
    int sum = 0;
    /** Weights were adjusted (mispredict or low confidence). */
    bool trained = false;
};

/**
 * The replayable hashed-perceptron core, driven by both the online
 * PerceptronPredictor and the sweep engine's per-config replay.
 */
class PerceptronModel
{
  public:
    static constexpr int kWeightMin = -64;
    static constexpr int kWeightMax = 63;

    explicit PerceptronModel(const PerceptronParams &params);

    /**
     * Predict and train on one branch.
     *
     * @param pc     branch address (word-aligned)
     * @param ghist  global outcome history BEFORE this branch, bit 0
     *               newest (HistoryRegister / PreparedTrace convention)
     * @param taken  the actual outcome
     */
    PerceptronStep step(Addr pc, std::uint64_t ghist, bool taken);

    void reset();

    const PerceptronParams &params() const { return params_; }

    /** PerceptronParams::threshold of the model's geometry. */
    int threshold() const { return params_.threshold(); }

    /** Total weights across all tables. */
    std::size_t counterCount() const
    {
        return tables_.size() * tables_[0].size();
    }

    /** Number of TRAINING events since construction/reset. */
    std::uint64_t updates() const { return updates_; }

    /** @name Deterministic hash/weight hooks, exposed for unit tests. */
    ///@{
    std::size_t tableIndex(unsigned table, Addr pc,
                           std::uint64_t ghist) const;
    int weightAt(unsigned table, std::size_t idx) const
    {
        return tables_[table][idx];
    }
    ///@}

  private:
    PerceptronParams params_;
    std::vector<std::vector<int>> tables_;
    std::uint64_t updates_ = 0;
};

/** The online (BranchPredictor) wrapper: model + its own history. */
class PerceptronPredictor : public BranchPredictor
{
  public:
    explicit PerceptronPredictor(const PerceptronParams &params);

    bool onBranch(const BranchRecord &rec) override;
    void reset() override;
    std::string name() const override;
    std::size_t counterCount() const override
    {
        return model_.counterCount();
    }

    const PerceptronModel &model() const { return model_; }

  private:
    PerceptronModel model_;
    HistoryRegister history_;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_PERCEPTRON_HH
