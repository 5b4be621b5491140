/**
 * @file
 * Finite first-level branch history table (BHT) for PAs schemes.
 *
 * Set-associative, tag-checked, LRU-replaced.  On a miss the paper's
 * policy applies: the victim entry is re-tagged for the new branch and
 * its history register is reset to the appropriate-length prefix of the
 * pattern 0xC3FF, "avoiding excessive aliasing for the patterns of all
 * taken or all not taken branches" (Section 5).
 */

#ifndef BPSIM_PREDICTOR_BHT_HH
#define BPSIM_PREDICTOR_BHT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitutil.hh"
#include "common/history_register.hh"

namespace bpsim {

/**
 * What a displaced BHT entry's history register is set to.  The paper
 * uses the 0xC3FF prefix; the alternatives exist for the ablation bench
 * that justifies that choice.
 */
enum class BhtResetPolicy
{
    C3ffPrefix, ///< the paper's mixture pattern (default)
    Zeros,      ///< all not-taken: aliases with never-taken branches
    Ones,       ///< all taken: aliases with the loop pattern
    Hold,       ///< keep the victim's history (no reset at all)
};

/** @return a short display name for a reset policy. */
const char *bhtResetPolicyName(BhtResetPolicy policy);

/**
 * The width-@p width register value @p policy installs in a displaced
 * entry.  Hold installs nothing (the victim keeps its history); 0 is
 * returned for it.
 */
constexpr std::uint64_t
bhtResetValue(BhtResetPolicy policy, unsigned width)
{
    switch (policy) {
      case BhtResetPolicy::C3ffPrefix: return c3ffPrefix(width);
      case BhtResetPolicy::Ones: return mask(width);
      case BhtResetPolicy::Zeros:
      case BhtResetPolicy::Hold: break;
    }
    return 0;
}

/** Result of one BHT visit. */
struct BhtLookup
{
    /** History register value for the branch (post any miss reset). */
    std::uint64_t history = 0;
    /** True when the visit missed (tag absent) and an entry was reset. */
    bool miss = false;
};

/** Set-associative per-address branch history table. */
class SetAssocBht
{
  public:
    /**
     * @param entries total entry count (power of two)
     * @param assoc associativity (divides entries; 1 = direct mapped)
     * @param history_bits width of each entry's history register
     */
    SetAssocBht(std::size_t entries, unsigned assoc,
                unsigned history_bits,
                BhtResetPolicy policy = BhtResetPolicy::C3ffPrefix);

    /**
     * Find (or allocate) the entry for @p pc, update LRU, and return its
     * current history.  A miss re-tags the LRU victim and, unless the
     * policy is Hold (the victim keeps its history), installs the
     * policy's bhtResetValue() -- the 0xC3FF prefix for C3ffPrefix --
     * before returning it.
     */
    BhtLookup visit(Addr pc);

    /** Shift @p taken into the entry for @p pc (must have been visited). */
    void recordOutcome(Addr pc, bool taken);

    /**
     * Read the history for @p pc without touching LRU or miss counters.
     * @return nullopt when the branch is not currently resident.
     */
    std::optional<std::uint64_t> peek(Addr pc) const;

    std::size_t entryCount() const { return entries.size(); }
    unsigned associativity() const { return assoc; }
    unsigned historyBits() const { return historyBits_; }
    BhtResetPolicy resetPolicy() const { return policy; }

    std::uint64_t visits() const { return visits_; }
    std::uint64_t misses() const { return misses_; }

    /** Tag miss rate, the "First-level Table Miss Rate" of Table 3. */
    double
    missRate() const
    {
        return visits_ ?
            static_cast<double>(misses_) / static_cast<double>(visits_)
            : 0.0;
    }

    void reset();

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        HistoryRegister history;
        /** Lower = older; set-relative stamp for LRU. */
        std::uint64_t stamp = 0;
    };

    /** First entry index of the set holding @p pc, and the pc's tag. */
    std::size_t setBase(Addr pc) const;
    std::uint64_t tagOf(Addr pc) const;

    /** Find a valid matching way in the pc's set, or nullptr. */
    Entry *find(Addr pc);

    std::vector<Entry> entries;
    unsigned assoc;
    unsigned historyBits_;
    BhtResetPolicy policy;
    unsigned setIndexBits;
    std::uint64_t stampCounter = 0;
    std::uint64_t visits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_BHT_HH
