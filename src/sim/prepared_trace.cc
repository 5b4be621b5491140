#include "sim/prepared_trace.hh"

#include <unordered_map>

#include "common/history_register.hh"
#include "common/logging.hh"

namespace bpsim {

PreparedTrace::PreparedTrace(const MemoryTrace &trace,
                             bool need_path_history)
    : name_(trace.name())
{
    std::size_t n = trace.conditionalCount();
    ids_.reserve(n);
    wordBits_.reserve(n);
    if (need_path_history)
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
        wordBits_.push_back(static_cast<std::uint16_t>(
            bits(wordIndex(rec.pc), 16)));
        if (need_path_history) {
            // The successor already folds in the outcome, so the path
            // column replaces the full 8-byte target address with the
            // only bits pathHistoryStream can ever shift in.
            const Addr successor = rec.taken ? rec.target : rec.pc + 4;
            succBits_.push_back(static_cast<std::uint16_t>(
                bits(wordIndex(successor), 16)));
        }
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
        wordBits_.size() * sizeof(std::uint16_t) +
        succBits_.size() * sizeof(std::uint16_t) +
        takenBits_.size() * sizeof(std::uint64_t) +
        ghist.size() * sizeof(std::uint64_t) +
        shist.size() * sizeof(std::uint64_t);
    return static_cast<double>(bytes) / static_cast<double>(size());
}

std::vector<std::uint64_t>
PreparedTrace::pathHistoryStream(unsigned bits_per_target) const
{
    bpsim_assert(bits_per_target >= 1 && bits_per_target <= 16,
                 "bits per target out of range");
    bpsim_assert(hasPathColumn(),
                 "trace was prepared without the path column");
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

std::vector<std::uint64_t>
PreparedTrace::bhtHistoryStream(std::size_t entries, unsigned assoc,
                                unsigned history_bits,
                                double *miss_rate_out,
                                BhtResetPolicy policy) const
{
    SetAssocBht bht(entries, assoc, history_bits, policy);
    std::vector<std::uint64_t> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
        const Addr pc_i = pc(i);
        out.push_back(bht.visit(pc_i).history);
        bht.recordOutcome(pc_i, taken(i));
    }
    if (miss_rate_out)
        *miss_rate_out = bht.missRate();
    return out;
}

} // namespace bpsim
