#include "predictor/tage.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace bpsim {

void
TageParams::validate() const
{
    bpsim_assert(baseBits >= 1 && baseBits <= 28,
                 "tage base table size out of range");
    bpsim_assert(entryBits >= 1 && entryBits <= 28,
                 "tage component size out of range");
    bpsim_assert(tagBits >= kMinTagBits && tagBits <= kMaxTagBits,
                 "tage tag width out of range (2..16)");
    bpsim_assert(!histories.empty() && histories.size() <= kMaxComponents,
                 "tage needs 1..8 tagged components");
    for (std::size_t i = 0; i < histories.size(); ++i) {
        bpsim_assert(histories[i] >= 1 && histories[i] <= kMaxHistory,
                     "tage history length out of range (1..64)");
        bpsim_assert(i == 0 || histories[i] > histories[i - 1],
                     "tage history lengths must be strictly ascending");
    }
}

TageModel::TageModel(const TageParams &params) : params_(params)
{
    params_.validate();
    base_.assign(std::size_t{1} << params_.baseBits, TwoBitCounter{});
    baseTrained_.assign(base_.size(), 0);
    components_.assign(params_.histories.size(),
                       std::vector<TaggedEntry>(
                           std::size_t{1} << params_.entryBits));
}

std::size_t
TageModel::baseIndex(Addr pc) const
{
    return static_cast<std::size_t>(
        wordIndex(pc) & mask(params_.baseBits));
}

std::size_t
TageModel::taggedIndex(unsigned comp, Addr pc, std::uint64_t ghist) const
{
    std::uint64_t hist = ghist & mask(params_.histories[comp]);
    return static_cast<std::size_t>(
        (xorFold(hist, params_.entryBits) ^
         xorFold(wordIndex(pc), params_.entryBits)) &
        mask(params_.entryBits));
}

std::uint16_t
TageModel::taggedTag(unsigned comp, Addr pc, std::uint64_t ghist) const
{
    // The classic TAGE tag: pc fold xor history folded at two widths,
    // the second shifted, so adjacent history lengths decorrelate.
    std::uint64_t hist = ghist & mask(params_.histories[comp]);
    std::uint64_t tag = xorFold(wordIndex(pc), params_.tagBits) ^
                        xorFold(hist, params_.tagBits) ^
                        (xorFold(hist, params_.tagBits - 1) << 1);
    return static_cast<std::uint16_t>(tag & mask(params_.tagBits));
}

TageStep
TageModel::step(Addr pc, std::uint64_t ghist, bool taken)
{
    const unsigned ncomp = static_cast<unsigned>(components_.size());
    std::size_t idx[TageParams::kMaxComponents];
    std::uint16_t tag[TageParams::kMaxComponents];
    for (unsigned j = 0; j < ncomp; ++j) {
        idx[j] = taggedIndex(j, pc, ghist);
        tag[j] = taggedTag(j, pc, ghist);
    }

    // Provider = longest-history match; altpred = next match below it.
    int provider = -1;
    int alt = -1;
    for (int j = static_cast<int>(ncomp) - 1; j >= 0; --j) {
        const TaggedEntry &e = components_[j][idx[j]];
        if (!e.valid || e.tag != tag[j])
            continue;
        if (provider < 0) {
            provider = j;
        } else {
            alt = j;
            break;
        }
    }

    const std::size_t bidx = baseIndex(pc);
    bool basePred = base_[bidx].predict();
    bool altPred = alt >= 0 ? components_[alt][idx[alt]].ctr.predict()
                            : basePred;
    bool pred = provider >= 0
                    ? components_[provider][idx[provider]].ctr.predict()
                    : basePred;

    TageStep out;
    out.prediction = pred;
    out.provider = static_cast<unsigned>(provider + 1);
    out.providerWasFresh = provider < 0 && baseTrained_[bidx] == 0;

    bool correct = pred == taken;

    // Useful counter: tracks whether the provider beats its altpred.
    if (provider >= 0 && pred != altPred) {
        TaggedEntry &e = components_[provider][idx[provider]];
        if (correct) {
            if (e.useful < 3)
                ++e.useful;
        } else if (e.useful > 0) {
            --e.useful;
        }
    }

    // Train the provider (and only the provider).
    if (provider >= 0) {
        components_[provider][idx[provider]].ctr.update(taken);
    } else {
        base_[bidx].update(taken);
        baseTrained_[bidx] = 1;
    }

    // On a mispredict, allocate in a longer-history component: the
    // first not-useful entry above the provider, weakly biased toward
    // the actual outcome; if every candidate is useful, age them all.
    if (!correct && provider + 1 < static_cast<int>(ncomp)) {
        int victim = -1;
        for (unsigned j = static_cast<unsigned>(provider + 1);
             j < ncomp; ++j) {
            const TaggedEntry &e = components_[j][idx[j]];
            if (!e.valid || e.useful == 0) {
                victim = static_cast<int>(j);
                break;
            }
        }
        if (victim >= 0) {
            TaggedEntry &e = components_[victim][idx[victim]];
            e.valid = true;
            e.tag = tag[victim];
            e.ctr.set(taken ? 4 : 3);
            e.useful = 0;
            out.allocated = true;
        } else {
            for (unsigned j = static_cast<unsigned>(provider + 1);
                 j < ncomp; ++j) {
                TaggedEntry &e = components_[j][idx[j]];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    ++updates_;
    return out;
}

void
TageModel::reset()
{
    std::fill(base_.begin(), base_.end(), TwoBitCounter{});
    std::fill(baseTrained_.begin(), baseTrained_.end(), 0);
    for (auto &comp : components_)
        std::fill(comp.begin(), comp.end(), TaggedEntry{});
    updates_ = 0;
}

TagePredictor::TagePredictor(const TageParams &params)
    : model_(params), history_(64)
{
}

bool
TagePredictor::onBranch(const BranchRecord &rec)
{
    bpsim_assert(rec.isConditional(),
                 "predictor fed a non-conditional branch");
    TageStep step = model_.step(rec.pc, history_.value(), rec.taken);
    history_.push(rec.taken);
    return step.prediction;
}

void
TagePredictor::reset()
{
    model_.reset();
    history_.set(0);
}

std::string
TagePredictor::name() const
{
    const TageParams &p = model_.params();
    std::ostringstream os;
    os << "tage " << p.histories.size() << "x2^" << p.entryBits
       << " tag" << p.tagBits << " (h";
    for (std::size_t i = 0; i < p.histories.size(); ++i)
        os << (i ? "," : "") << p.histories[i];
    os << ") + 2^" << p.baseBits << " base";
    return os.str();
}

} // namespace bpsim
