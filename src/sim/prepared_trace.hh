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
 *  - finite-BHT self history (per BHT configuration and row width,
 *    because the 0xC3FF reset prefix differs by width).
 *
 * Column layout is sized for replay throughput: outcomes are a packed
 * bit stream (one bit per branch, consumed 64 branches at a time by the
 * fused kernel); branch addresses are a 4-byte dense branch-id column
 * (ids in first-appearance order) over a static-pc table, so pc(i) is
 * one indirection and the aliasing engine's last-writer test compares
 * ids instead of 8-byte pcs; the fused narrow decode reads a 2-byte
 * word-index column (wordBits); and the path-history column stores
 * only the low 16 successor word-index bits per branch
 * (pathHistoryStream never shifts in more -- bits_per_target is capped
 * at 16) instead of full 8-byte target addresses.  bytesPerBranch()
 * reports the resulting per-branch footprint so tests can pin it.
 *
 * A test (test_sweep_equivalence) pins the equivalence between this fast
 * path and the online TwoLevelPredictor.
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

/** Conditional-branch columns of a trace plus precomputed histories. */
class PreparedTrace
{
  public:
    /**
     * Extract and precompute from a materialised trace.
     * @param need_path_history keep the 2-byte successor-bits column
     *        that feeds pathHistoryStream (only Nair path-scheme
     *        groups consume it); pass false to drop it when no lane
     *        needs path history.
     */
    explicit PreparedTrace(const MemoryTrace &trace,
                           bool need_path_history = true);

    const std::string &name() const { return name_; }
    /** Number of conditional branch instances. */
    std::size_t size() const { return ids_.size(); }

    /**
     * Ceiling on distinct static branches: ids stay below 2^30 - 1, so
     * the aliasing engine's packed (id + 1) << 2 | counter entry fits
     * 32 bits.
     */
    static constexpr std::size_t kMaxStaticBranches = (1u << 30) - 1;

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

    /**
     * Low 16 bits of wordIndex(pc(i)), as a 2-byte column.  The fused
     * kernel's narrow decode masks the column index to 15 bits anyway,
     * so reading this instead of the 8-byte pc column cuts the decode
     * traffic per branch -- which matters more now that segment-
     * parallel shards each run their own decode pass (sweep.cc).
     */
    std::uint16_t wordBits(std::size_t i) const { return wordBits_[i]; }

    /** Outcome of conditional instance @p i. */
    bool
    taken(std::size_t i) const
    {
        return ((takenBits_[i >> 6] >> (i & 63)) & 1u) != 0;
    }

    /**
     * Outcomes of instances [64w, 64w+63], instance 64w in bit 0.
     * Bits past size() are zero.  The fused kernel consumes outcomes a
     * word at a time through this.
     */
    std::uint64_t takenWord(std::size_t w) const { return takenBits_[w]; }
    /** Number of takenWord() words ((size() + 63) / 64). */
    std::size_t takenWordCount() const { return takenBits_.size(); }

    /** Global outcome history BEFORE instance @p i (bit 0 newest). */
    std::uint64_t globalHistory(std::size_t i) const { return ghist[i]; }
    /** Perfect per-branch self history BEFORE instance @p i. */
    std::uint64_t selfHistory(std::size_t i) const { return shist[i]; }

    /** Whether the successor-bits column was kept at construction. */
    bool hasPathColumn() const { return !succBits_.empty() || size() == 0; }

    /**
     * Per-branch column bytes divided by branch count: 4 (branch id) +
     * 2 (word bits) + 8 (ghist) + 8 (shist) + 1/8 (packed outcome bit)
     * + 2 when the path column is kept.  The static-pc table (8 bytes
     * per staticBranches()) does not grow with the trace and is not
     * counted.  Zero for an empty trace.
     */
    double bytesPerBranch() const;

    /**
     * Path-history register value before each instance, shifting
     * @p bits_per_target successor-address bits per branch.  Requires
     * the path column (need_path_history at construction).
     */
    std::vector<std::uint64_t>
    pathHistoryStream(unsigned bits_per_target) const;

    /**
     * Self-history stream through a finite BHT.
     * @param entries BHT entries (power of two)
     * @param assoc associativity
     * @param history_bits register width (0xC3FF prefix length)
     * @param miss_rate_out when non-null, receives the BHT miss rate
     */
    std::vector<std::uint64_t>
    bhtHistoryStream(std::size_t entries, unsigned assoc,
                     unsigned history_bits,
                     double *miss_rate_out = nullptr,
                     BhtResetPolicy policy =
                         BhtResetPolicy::C3ffPrefix) const;

  private:
    std::string name_;
    /** Dense static-branch id per branch (first-appearance order). */
    std::vector<std::uint32_t> ids_;
    /** Branch address per dense id. */
    std::vector<Addr> staticPcs_;
    /** Low 16 word-index bits per branch (fused narrow decode). */
    std::vector<std::uint16_t> wordBits_;
    /** Low 16 successor word-index bits per branch (path schemes). */
    std::vector<std::uint16_t> succBits_;
    /** Packed outcomes, branch i at bit (i & 63) of word i / 64. */
    std::vector<std::uint64_t> takenBits_;
    std::vector<std::uint64_t> ghist;
    std::vector<std::uint64_t> shist;
};

} // namespace bpsim

#endif // BPSIM_SIM_PREPARED_TRACE_HH
