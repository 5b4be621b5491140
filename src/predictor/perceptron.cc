#include "predictor/perceptron.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace bpsim {

void
PerceptronParams::validate() const
{
    bpsim_assert(historyBits >= 1 && historyBits <= 64,
                 "perceptron history length out of range (1..64)");
    bpsim_assert(entryBits <= 28,
                 "perceptron table size out of range");
    bpsim_assert(tables >= kMinTables && tables <= kMaxTables,
                 "perceptron needs 2..16 tables (bias + history)");
}

PerceptronModel::PerceptronModel(const PerceptronParams &params)
    : params_(params)
{
    params_.validate();
    tables_.assign(params_.tables,
                   std::vector<int>(std::size_t{1} << params_.entryBits,
                                    0));
}

std::size_t
PerceptronModel::tableIndex(unsigned table, Addr pc,
                            std::uint64_t ghist) const
{
    if (table == 0)
        return static_cast<std::size_t>(
            wordIndex(pc) & mask(params_.entryBits));
    // Tables 1..T-1 each hash one balanced segment of the history:
    // table t sees bits [lo, hi) with the boundaries spread evenly so
    // no segment is starved when h does not divide T-1.
    const unsigned nseg = params_.tables - 1;
    const unsigned lo = (table - 1) * params_.historyBits / nseg;
    const unsigned hi = table * params_.historyBits / nseg;
    std::uint64_t seg = bitsAt(ghist, lo, hi - lo);
    return static_cast<std::size_t>(
        (xorFold(seg, params_.entryBits) ^
         xorFold(wordIndex(pc), params_.entryBits)) &
        mask(params_.entryBits));
}

PerceptronStep
PerceptronModel::step(Addr pc, std::uint64_t ghist, bool taken)
{
    std::size_t idx[16];
    int sum = 0;
    for (unsigned t = 0; t < params_.tables; ++t) {
        idx[t] = tableIndex(t, pc, ghist);
        sum += tables_[t][idx[t]];
    }

    PerceptronStep out;
    out.sum = sum;
    out.prediction = sum >= 0;

    int magnitude = sum < 0 ? -sum : sum;
    if (out.prediction != taken || magnitude <= threshold()) {
        for (unsigned t = 0; t < params_.tables; ++t) {
            int &w = tables_[t][idx[t]];
            w += taken ? 1 : -1;
            if (w > kWeightMax)
                w = kWeightMax;
            if (w < kWeightMin)
                w = kWeightMin;
        }
        out.trained = true;
        ++updates_;
    }
    return out;
}

void
PerceptronModel::reset()
{
    for (auto &table : tables_)
        std::fill(table.begin(), table.end(), 0);
    updates_ = 0;
}

PerceptronPredictor::PerceptronPredictor(const PerceptronParams &params)
    : model_(params), history_(64)
{
}

bool
PerceptronPredictor::onBranch(const BranchRecord &rec)
{
    bpsim_assert(rec.isConditional(),
                 "predictor fed a non-conditional branch");
    PerceptronStep step =
        model_.step(rec.pc, history_.value(), rec.taken);
    history_.push(rec.taken);
    return step.prediction;
}

void
PerceptronPredictor::reset()
{
    model_.reset();
    history_.set(0);
}

std::string
PerceptronPredictor::name() const
{
    const PerceptronParams &p = model_.params();
    std::ostringstream os;
    os << "perceptron " << p.tables << "x2^" << p.entryBits
       << " (h" << p.historyBits << ", theta " << model_.threshold()
       << ")";
    return os.str();
}

} // namespace bpsim
