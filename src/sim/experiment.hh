/**
 * @file
 * Reusable experiment drivers shared by the bench binaries and examples:
 * best-configuration extraction (Table 3), difference surfaces
 * (Figures 7 and 8), and convenient profile-to-prepared-trace plumbing.
 */

#ifndef BPSIM_SIM_EXPERIMENT_HH
#define BPSIM_SIM_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/prepared_trace.hh"
#include "sim/sweep.hh"

namespace bpsim {

/** Generate a profile's trace and prepare it for sweeping. */
PreparedTrace prepareProfile(const std::string &profile,
                             std::uint64_t target_conditionals = 0);

/** A best-in-tier entry for Table 3. */
struct BestConfig
{
    unsigned rowBits = 0;
    unsigned colBits = 0;
    double mispRate = 0.0;
};

/** One scheme's Table 3 row: best config per counter budget. */
struct BestConfigRow
{
    std::string scheme;
    /** First-level miss rate; negative when not applicable. */
    double bhtMissRate = -1.0;
    /** One entry per requested budget (log2 counters). */
    std::vector<std::optional<BestConfig>> best;
};

/**
 * The scheme lineup of the paper's Table 3: GAs, gshare, PAs with an
 * infinite first level, and PAs with 2048-, 1024- and 128-entry 4-way
 * BHTs.
 */
struct Table3Options
{
    /** Budgets as log2 counter counts (paper: 512, 4096, 32768). */
    std::vector<unsigned> budgetBits = {9, 12, 15};
    std::vector<std::size_t> bhtSizes = {2048, 1024, 128};
    unsigned bhtAssoc = 4;
    /**
     * Concurrent executors across and within the per-scheme sweeps
     * (0 = one per hardware thread, 1 = serial).  The row order and
     * every value are identical for any setting.
     */
    unsigned threads = 1;
};

/** One entry of the Table 3 scheme lineup: display name + sweep. */
struct Table3SchemeSpec
{
    std::string name;
    SchemeKind kind = SchemeKind::GAs;
    SweepOptions options;
};

/**
 * Expand @p opts into the concrete per-scheme sweeps of Table 3.
 * SweepSession::bestConfigs runs these sweeps through the result cache
 * and reduces each with bestConfigRowFromSweep.
 */
std::vector<Table3SchemeSpec> table3Plan(const Table3Options &opts);

/** Reduce one scheme's sweep to its Table 3 row. */
BestConfigRow
bestConfigRowFromSweep(const Table3SchemeSpec &spec,
                       const SweepResult &sweep,
                       const std::vector<unsigned> &budget_bits);

/** The paper's tier range: 2^4 (16) through 2^15 (32768) counters. */
SweepOptions paperSweepOptions();

} // namespace bpsim

#endif // BPSIM_SIM_EXPERIMENT_HH
