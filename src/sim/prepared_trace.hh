/**
 * @file
 * Sweep-optimised trace representation.
 *
 * The figure experiments replay the same trace through hundreds of
 * predictor configurations.  All first-level state evolves identically
 * regardless of the second-level configuration, so it can be computed
 * once per trace (or once per first-level configuration) and shared:
 *
 *  - the global outcome history before each branch (GAg/GAs/gshare rows
 *    for every r come from masking one 64-bit stream);
 *  - the path-history register before each branch (per bits-per-target);
 *  - the per-branch self history before each branch (perfect first
 *    level: one stream serves every row width, since narrower registers
 *    are the low bits of wider ones);
 *  - finite-BHT self history (one BhtStream per BHT configuration:
 *    hits, misses and LRU depend only on the pc, so one simulation
 *    serves every row width, and BhtStream::row() re-inserts the
 *    width's reset prefix below the outcomes pushed since the entry's
 *    last reset).
 *
 * Column layout is sized for replay throughput: outcomes are a packed
 * bit stream (one bit per branch, consumed 64 branches at a time by the
 * lane engines); branch addresses are a 4-byte dense branch-id column
 * (ids in first-appearance order) over a static-pc table, so pc(i) is
 * one indirection and the 2-bit engine's last-writer test compares
 * ids instead of 8-byte pcs; and the path-history column stores
 * only the low 16 successor word-index bits per branch
 * (pathHistoryStream never shifts in more -- bits_per_target is capped
 * at 16) instead of full 8-byte target addresses.  bytesPerBranch()
 * reports the resulting per-branch footprint so tests can pin it.
 *
 * SweepEquivalence.FastPathMatchesOnlinePredictor (tests/test_sweep.cc)
 * pins the equivalence between this fast path and the online
 * TwoLevelPredictor.
 */

#ifndef BPSIM_SIM_PREPARED_TRACE_HH
#define BPSIM_SIM_PREPARED_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "predictor/bht.hh"
#include "trace/memory_trace.hh"

namespace bpsim {

/**
 * Finite-BHT self history for every register width at once
 * (PreparedTrace::bhtStream).  Per branch it keeps the entry's 64-bit
 * register before the branch and the outcomes pushed since that
 * entry's last reset, saturating at 64.
 */
class BhtStream
{
  public:
    /**
     * The width-@p r register of branch @p i's BHT entry before the
     * branch: exactly what SetAssocBht(entries, assoc, r, policy)
     * returns from visit().  The one place the derivation lives.
     */
    std::uint64_t
    row(std::size_t i, unsigned r) const
    {
        const std::uint64_t raw = raw_[i];
        const unsigned k = pushes_[i];
        if (k >= r || policy_ == BhtResetPolicy::Hold)
            return raw & mask(r);
        // Fewer than r pushes since the reset: the width's reset
        // value still fills the bits above them.
        return ((bhtResetValue(policy_, r) << k) | (raw & mask(k))) &
               mask(r);
    }

    /** Number of branches (the trace's size()). */
    std::size_t size() const { return raw_.size(); }
    /** Tag miss rate, identical at every width (Table 3). */
    double missRate() const { return missRate_; }

  private:
    friend class PreparedTrace;

    BhtResetPolicy policy_ = BhtResetPolicy::C3ffPrefix;
    /** 64-bit register value before each branch. */
    std::vector<std::uint64_t> raw_;
    /** Outcomes pushed since the entry's last reset (at most 64). */
    std::vector<std::uint8_t> pushes_;
    double missRate_ = 0.0;
};

/** Conditional-branch columns of a trace plus precomputed histories. */
class PreparedTrace
{
  public:
    /** Extract and precompute from a materialised trace. */
    explicit PreparedTrace(const MemoryTrace &trace);

    const std::string &name() const { return name_; }
    /** Number of conditional branch instances. */
    std::size_t size() const { return ids_.size(); }

    /**
     * Ceiling on distinct static branches: ids stay below 2^30 - 1, so
     * the 2-bit engine's packed (id + 1) << 2 | counter entry fits
     * 32 bits.
     */
    static constexpr std::size_t kMaxStaticBranches = (1u << 30) - 1;

    /**
     * Widest pathHistoryStream() shift: the path column keeps 16
     * successor bits per branch.
     */
    static constexpr unsigned kMaxPathBitsPerTarget = 16;

    /** Branch address of conditional instance @p i. */
    Addr pc(std::size_t i) const { return staticPcs_[ids_[i]]; }

    /**
     * Dense id of instance @p i's static branch: ids number the
     * distinct pcs 0, 1, 2, ... in order of first appearance, so two
     * instances share an id exactly when they share a pc.
     */
    std::uint32_t branchId(std::size_t i) const { return ids_[i]; }

    /** Address of the static branch with dense id @p id. */
    Addr staticPc(std::uint32_t id) const { return staticPcs_[id]; }

    /** Number of distinct static branches (one past the largest id). */
    std::size_t staticBranches() const { return staticPcs_.size(); }

    /** Outcome of conditional instance @p i. */
    bool
    taken(std::size_t i) const
    {
        return ((takenBits_[i >> 6] >> (i & 63)) & 1u) != 0;
    }

    /**
     * Outcomes of instances [64w, 64w+63], instance 64w in bit 0.
     * Bits past size() are zero.  The lane engines consume outcomes a
     * word at a time through this.
     */
    std::uint64_t takenWord(std::size_t w) const { return takenBits_[w]; }
    /** Number of takenWord() words ((size() + 63) / 64). */
    std::size_t takenWordCount() const { return takenBits_.size(); }

    /** Global outcome history BEFORE instance @p i (bit 0 newest). */
    std::uint64_t globalHistory(std::size_t i) const { return ghist[i]; }
    /** Perfect per-branch self history BEFORE instance @p i. */
    std::uint64_t selfHistory(std::size_t i) const { return shist[i]; }

    /**
     * Per-branch column bytes divided by branch count: 4 (branch id) +
     * 8 (ghist) + 8 (shist) + 1/8 (packed outcome bit) + 2 (path
     * successor bits).  The static-pc table (8 bytes
     * per staticBranches()) does not grow with the trace and is not
     * counted.  Zero for an empty trace.
     */
    double bytesPerBranch() const;

    /**
     * Path-history register value before each instance, shifting
     * @p bits_per_target successor-address bits per branch.
     */
    std::vector<std::uint64_t>
    pathHistoryStream(unsigned bits_per_target) const;

    /**
     * Self history through a finite BHT of @p entries entries (power
     * of two) and associativity @p assoc under @p policy, for every
     * register width: one 64-bit simulation whose displaced entries
     * reset to zeros (or hold, for Hold), with BhtStream::row()
     * deriving each width.
     */
    BhtStream bhtStream(std::size_t entries, unsigned assoc,
                        BhtResetPolicy policy) const;

  private:
    std::string name_;
    /** Dense static-branch id per branch (first-appearance order). */
    std::vector<std::uint32_t> ids_;
    /** Branch address per dense id. */
    std::vector<Addr> staticPcs_;
    /** Low 16 successor word-index bits per branch (path schemes). */
    std::vector<std::uint16_t> succBits_;
    /** Packed outcomes, branch i at bit (i & 63) of word i / 64. */
    std::vector<std::uint64_t> takenBits_;
    std::vector<std::uint64_t> ghist;
    std::vector<std::uint64_t> shist;
};

} // namespace bpsim

#endif // BPSIM_SIM_PREPARED_TRACE_HH
