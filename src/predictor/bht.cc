#include "predictor/bht.hh"

#include "common/logging.hh"

namespace bpsim {

const char *
bhtResetPolicyName(BhtResetPolicy policy)
{
    switch (policy) {
      case BhtResetPolicy::C3ffPrefix: return "0xC3FF-prefix";
      case BhtResetPolicy::Zeros: return "zeros";
      case BhtResetPolicy::Ones: return "ones";
      case BhtResetPolicy::Hold: return "hold";
    }
    return "?";
}

SetAssocBht::SetAssocBht(std::size_t entry_count, unsigned assoc_,
                         unsigned history_bits, BhtResetPolicy policy_)
    : assoc(assoc_), historyBits_(history_bits), policy(policy_)
{
    bpsim_assert(entry_count > 0 && isPowerOfTwo(entry_count),
                 "BHT entry count must be a power of two, got ",
                 entry_count);
    bpsim_assert(assoc_ > 0 && entry_count % assoc_ == 0,
                 "associativity ", assoc_, " must divide entry count ",
                 entry_count);
    std::size_t sets = entry_count / assoc_;
    bpsim_assert(isPowerOfTwo(sets),
                 "BHT set count must be a power of two");
    setIndexBits = exactLog2(sets);
    entries.assign(entry_count,
                   Entry{false, 0, HistoryRegister(history_bits), 0});
}

std::size_t
SetAssocBht::setBase(Addr pc) const
{
    std::uint64_t set = bits(wordIndex(pc), setIndexBits);
    return static_cast<std::size_t>(set) * assoc;
}

std::uint64_t
SetAssocBht::tagOf(Addr pc) const
{
    return wordIndex(pc) >> setIndexBits;
}

SetAssocBht::Entry *
SetAssocBht::find(Addr pc)
{
    std::size_t base = setBase(pc);
    std::uint64_t tag = tagOf(pc);
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = entries[base + w];
        if (e.valid && e.tag == tag)
            return &e;
    }
    return nullptr;
}

BhtLookup
SetAssocBht::visit(Addr pc)
{
    ++visits_;
    ++stampCounter;

    if (Entry *hit = find(pc)) {
        hit->stamp = stampCounter;
        return BhtLookup{hit->history.value(), false};
    }

    ++misses_;
    // Choose a victim: an invalid way if any, else the LRU way.
    std::size_t base = setBase(pc);
    Entry *victim = &entries[base];
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = entries[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.stamp < victim->stamp)
            victim = &e;
    }
    victim->valid = true;
    victim->tag = tagOf(pc);
    victim->stamp = stampCounter;
    if (policy != BhtResetPolicy::Hold)
        victim->history.set(bhtResetValue(policy, historyBits_));
    return BhtLookup{victim->history.value(), true};
}

void
SetAssocBht::recordOutcome(Addr pc, bool taken)
{
    Entry *e = find(pc);
    bpsim_assert(e != nullptr,
                 "recordOutcome() without a preceding visit()");
    e->history.push(taken);
}

std::optional<std::uint64_t>
SetAssocBht::peek(Addr pc) const
{
    std::size_t base = setBase(pc);
    std::uint64_t tag = tagOf(pc);
    for (unsigned w = 0; w < assoc; ++w) {
        const Entry &e = entries[base + w];
        if (e.valid && e.tag == tag)
            return e.history.value();
    }
    return std::nullopt;
}

void
SetAssocBht::reset()
{
    for (auto &e : entries) {
        e.valid = false;
        e.tag = 0;
        e.history = HistoryRegister(historyBits_);
        e.stamp = 0;
    }
    stampCounter = 0;
    visits_ = 0;
    misses_ = 0;
}

} // namespace bpsim
