#include "sim/prepared_trace.hh"

#include <unordered_map>

#include "common/history_register.hh"
#include "common/logging.hh"

namespace bpsim {

PreparedTrace::PreparedTrace(const MemoryTrace &trace)
    : name_(trace.name())
{
    std::size_t n = trace.conditionalCount();
    ids_.reserve(n);
    succBits_.reserve(n);
    takenBits_.reserve(n / 64 + 1);
    ghist.reserve(n);
    shist.reserve(n);

    // One hash probe per branch assigns the dense id; the self-history
    // registers are then a plain vector indexed by it.
    std::uint64_t global = 0;
    std::unordered_map<Addr, std::uint32_t> id_of;
    id_of.reserve(n / 64 + 16);
    std::vector<std::uint64_t> self;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &rec = trace[i];
        if (!rec.isConditional())
            continue;
        const std::size_t k = ids_.size();
        const auto [slot, fresh] = id_of.try_emplace(
            rec.pc, static_cast<std::uint32_t>(staticPcs_.size()));
        if (fresh) {
            bpsim_assert(staticPcs_.size() < kMaxStaticBranches,
                         "trace exceeds ", kMaxStaticBranches,
                         " static branches");
            staticPcs_.push_back(rec.pc);
            self.push_back(0);
        }
        const std::uint32_t id = slot->second;
        ids_.push_back(id);
        // The successor already folds in the outcome, so the path
        // column replaces the full 8-byte target address with the only
        // bits pathHistoryStream can ever shift in.
        const Addr successor = rec.taken ? rec.target : rec.pc + 4;
        succBits_.push_back(static_cast<std::uint16_t>(
            bits(wordIndex(successor), 16)));
        if ((k & 63) == 0)
            takenBits_.push_back(0);
        if (rec.taken)
            takenBits_.back() |= std::uint64_t{1} << (k & 63);

        ghist.push_back(global);
        global = (global << 1) | (rec.taken ? 1u : 0u);

        std::uint64_t &h = self[id];
        shist.push_back(h);
        h = (h << 1) | (rec.taken ? 1u : 0u);
    }
}

double
PreparedTrace::bytesPerBranch() const
{
    if (size() == 0)
        return 0.0;
    const std::size_t bytes = ids_.size() * sizeof(std::uint32_t) +
        succBits_.size() * sizeof(std::uint16_t) +
        takenBits_.size() * sizeof(std::uint64_t) +
        ghist.size() * sizeof(std::uint64_t) +
        shist.size() * sizeof(std::uint64_t);
    return static_cast<double>(bytes) / static_cast<double>(size());
}

std::vector<std::uint64_t>
PreparedTrace::pathHistoryStream(unsigned bits_per_target) const
{
    bpsim_assert(bits_per_target >= 1 &&
                     bits_per_target <= kMaxPathBitsPerTarget,
                 "bits per target out of range");
    std::vector<std::uint64_t> out;
    out.reserve(size());
    std::uint64_t reg = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        out.push_back(reg);
        reg = (reg << bits_per_target) |
            bits(succBits_[i], bits_per_target);
    }
    return out;
}

BhtStream
PreparedTrace::bhtStream(std::size_t entries, unsigned assoc,
                         BhtResetPolicy policy) const
{
    // Hold keeps a displaced entry's register, so the 64-bit register
    // already holds every width.  The other policies reset to zeros
    // here: after k pushes the register is exactly the k outcomes, and
    // row() puts the width's reset value above them.
    SetAssocBht bht(entries, assoc, 64,
                    policy == BhtResetPolicy::Hold ? BhtResetPolicy::Hold
                                                   : BhtResetPolicy::Zeros);
    BhtStream out;
    out.policy_ = policy;
    out.raw_.reserve(size());
    out.pushes_.reserve(size());
    // SetAssocBht tags an entry by word index, so pcs in one word
    // share it: the pushes since an entry's reset are counted per
    // word, through a dense word id per static branch.
    std::vector<std::uint32_t> word_of(staticBranches());
    std::unordered_map<Addr, std::uint32_t> word_id;
    for (std::size_t id = 0; id < staticBranches(); ++id)
        word_of[id] = word_id.try_emplace(
            wordIndex(staticPcs_[id]),
            static_cast<std::uint32_t>(word_id.size())).first->second;
    std::vector<std::uint8_t> pushes(word_id.size(), 0);
    for (std::size_t i = 0; i < size(); ++i) {
        const Addr pc_i = pc(i);
        const BhtLookup lookup = bht.visit(pc_i);
        std::uint8_t &k = pushes[word_of[ids_[i]]];
        if (lookup.miss)
            k = 0;
        out.raw_.push_back(lookup.history);
        out.pushes_.push_back(k);
        if (k < 64)
            ++k;
        bht.recordOutcome(pc_i, taken(i));
    }
    out.missRate_ = bht.missRate();
    return out;
}

} // namespace bpsim
