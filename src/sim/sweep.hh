/**
 * @file
 * Configuration-space sweeps: every (rows x columns) split of every
 * predictor-table budget, for every scheme in the paper, over a prepared
 * trace.  This is the engine behind Figures 2-10 and Table 3.
 *
 * Sweeps run in two phases.  The *plan* phase (planSweep) enumerates the
 * configuration space into ConfigJobs, planFusedGroups partitions them
 * into FusedGroups of jobs sharing one first-level input stream, and a
 * StreamCache builds every shared immutable input once, on first use
 * (the path-history stream, and one finite-BHT stream whose rows and
 * miss rate serve every row width).  The *execute* phase replays every
 * group once over the whole trace, serially or on the shared
 * ThreadPool, governed by SweepOptions::threads (which distributes
 * groups).
 * Results land in per-job ConfigResult slots that are merged into
 * Surfaces in plan order, so every execution shape is bit-identical to
 * the serial one.
 *
 * The grid steps a group's member configurations -- its *lanes* --
 * through one of two lane engines:
 *
 *  - 2-bit: the paper's family.  One block-decoded trace pass updates
 *    every member (every split of a tier reads the same per-branch row
 *    value and word index): each block is decoded once into a 13-byte
 *    record per branch, and lane batches of up to 16 step fused
 *    last-writer+counter table words (one 4-byte slot per counter)
 *    through the SIMD alias kernel.  Misprediction and Figure 5's
 *    per-access aliasing come from the same pass, so aliasing is
 *    always measured; trackAliasing only decides whether it is
 *    reported.  Tables are capped at SweepOptions::kMaxTotalBits;
 *  - model: TAGE/perceptron lanes sharing the block decode and hash
 *    folds.
 *
 * Every group replays the whole trace once, exactly, from cold state.
 * A sweep has one parallel axis: the planner's groups, spread over
 * SweepOptions::threads.
 *
 * The sweep path is the fast counterpart of the online TwoLevelPredictor
 * (see prepared_trace.hh); their equivalence is pinned by tests.
 */

#ifndef BPSIM_SIM_SWEEP_HH
#define BPSIM_SIM_SWEEP_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "predictor/perceptron.hh"
#include "predictor/tage.hh"
#include "sim/prepared_trace.hh"
#include "stats/surface.hh"

namespace bpsim {

/** The predictor families the paper sweeps. */
enum class SchemeKind
{
    AddressIndexed, ///< row of counters, address-selected (Figure 2)
    GAg,            ///< column of counters, global history (Figure 3)
    GAs,            ///< global history x address (Figure 4)
    Gshare,         ///< (global history XOR address) x address (Fig. 6)
    Path,           ///< Nair target-bit path history (Figure 8)
    PAsPerfect,     ///< self history, unbounded first level (Figure 9)
    PAsFinite,      ///< self history through a real BHT (Figure 10)
    /**
     * The multi-table zoo: these replay full TageModel /
     * PerceptronModel state per configuration (no 2-bit-counter form --
     * the 2-bit engine's counter invariants do not hold for tagged
     * entries or signed weights).  The planner batches them
     * into MODEL groups: one trace pass decodes each block once and
     * steps every member model, sharing the hash folds across members
     * (and, for perceptron lanes, running the dot-product/update
     * through the SIMD PerceptronBatch kernel).  Their
     * aliasing/harmless surfaces stay zero -- interference
     * decomposition comes from analyzeInterference instead (see
     * interference.hh) -- so trackAliasing does not change how they
     * run.
     */
    Tage,       ///< tagged geometric-history components over a base
    Perceptron, ///< hashed perceptron (summed signed weight tables)
};

/** @return the scheme's display name ("GAs", "gshare", ...). */
const char *schemeKindName(SchemeKind kind);

/**
 * The scheme a name selects: every display name (schemeKindName), its
 * lowercase spelling, and "pas" / "pas_bht" for the two PAs variants.
 * Errors on other names, listing the valid ones; a name shaped like a
 * predictor spec string ("tage:12:10") also gets a pointer at the
 * structured per-scheme options.
 */
Result<SchemeKind> schemeKindFromName(std::string_view name);

/** Every name schemeKindFromName accepts, sorted. */
std::vector<std::string> schemeNames();

/** Sweep shape and per-scheme parameters. */
struct SweepOptions
{
    /** Smallest tier: 2^minTotalBits counters (paper: 16). */
    unsigned minTotalBits = 4;
    /**
     * Largest tier: 2^maxTotalBits counters (paper: 32768).  At most
     * kMaxTotalBits; SweepSession rejects larger requests.
     */
    unsigned maxTotalBits = 15;
    /**
     * Report aliasing alongside misprediction (Figure 5): fill the
     * aliasing and harmless surfaces and ConfigResult fields.  An
     * output filter only -- the 2-bit engine measures aliasing either
     * way, so misprediction and execution do not depend on it.
     */
    bool trackAliasing = true;
    /**
     * Path scheme: address bits contributed per branch
     * (1..PreparedTrace::kMaxPathBitsPerTarget).
     */
    unsigned pathBitsPerTarget = 2;
    /** PAsFinite: BHT entry count (power of two, <= kMaxBhtEntries). */
    std::size_t bhtEntries = 1024;
    /** PAsFinite: BHT associativity (1..kMaxBhtAssoc, divides entries). */
    unsigned bhtAssoc = 4;
    /** PAsFinite: BHT miss-reset policy (ablation knob). */
    BhtResetPolicy bhtResetPolicy = BhtResetPolicy::C3ffPrefix;
    /**
     * Tage: tag width in bits.  Sweep axes map rowBits -> per-component
     * entry bits and colBits -> base-table bits; these options carry
     * the remaining geometry.  Result-affecting: part of cache keys.
     */
    unsigned tageTagBits = 8;
    /** Tage: per-component history lengths (strictly ascending). */
    std::vector<unsigned> tageHistories = {4, 8, 16, 32};
    /**
     * Perceptron: weight tables including the bias table.  Sweep axes
     * map rowBits -> history bits and colBits -> per-table entry bits.
     * Result-affecting: part of cache keys.
     */
    unsigned perceptronTables = 4;
    /**
     * Concurrent group replays during execution: 0 = one per hardware
     * thread, 1 = serial.  The planner's groups (planFusedGroups) are
     * the only partition of the work, so this is a sweep's one
     * execution knob.  Results are identical either way.
     */
    unsigned threads = 1;

    /**
     * Largest table (rowBits + colBits) the engine replays: a full
     * 16-lane 2-bit batch keeps its slot arena (one 4-byte slot per
     * counter) addressable by signed 32-bit offsets up to 2^26
     * counters per lane.  SweepSession::sweep/point and the sweep
     * service reject anything larger with a structured error.
     */
    static constexpr unsigned kMaxTotalBits = 26;
    /** Request limits on the BHT geometry. */
    static constexpr std::size_t kMaxBhtEntries = std::size_t{1} << 24;
    static constexpr unsigned kMaxBhtAssoc = 64;
};

/**
 * Observability counters for one sweep's kernel execution, reported in
 * SweepResult::kernel and surfaced by the service `stats` op and the
 * perfbench records, so a throughput change can be traced to a
 * grouping or batching change without a profiler.
 */
struct KernelTelemetry
{
    /** 2-bit groups replayed by the 2-bit engine. */
    std::uint64_t fusedGroups = 0;
    /** Member configurations replayed by 2-bit groups. */
    std::uint64_t lanes = 0;
    /**
     * 2-bit lane batches (at most AliasBatch::kMaxLanes lanes each)
     * dispatched per block.
     */
    std::uint64_t laneBatches = 0;
    /** Decoded block tiles streamed through the lane batches. */
    std::uint64_t blocksReplayed = 0;
    /**
     * Model groups (TAGE/perceptron zoo) replayed by the model engine.
     * They share blocksReplayed and busySeconds with the 2-bit engine
     * but step full predictor models instead of 2-bit tables, so their
     * population is counted apart from fusedGroups/lanes.
     */
    std::uint64_t modelGroups = 0;
    /** Member configurations replayed as model lanes. */
    std::uint64_t modelLanes = 0;
    /**
     * Batched inner-kernel invocations by model groups: one per
     * (block tile x lane batch of at most 16 lanes), for TAGE and
     * perceptron groups alike.
     */
    std::uint64_t modelBatches = 0;
    /** Summed per-group engine time (busy seconds across workers). */
    double busySeconds = 0.0;

    /** Mean member configurations per model group. */
    double modelLanesPerGroup() const;
    /** Fold one group's counters into a sweep-level aggregate. */
    void merge(const KernelTelemetry &other);
};

/** One configuration's measurements. */
struct ConfigResult
{
    double mispRate = 0.0;
    double aliasRate = 0.0;
    /** Fraction of conflicts under the all-ones pattern. */
    double harmlessFraction = 0.0;
    /** PAsFinite: first-level miss rate; negative when inapplicable. */
    double bhtMissRate = -1.0;
};

/** One planned configuration: a 2^rowBits x 2^colBits table. */
struct ConfigJob
{
    SchemeKind kind = SchemeKind::GAs;
    unsigned totalBits = 0;
    unsigned rowBits = 0;
    unsigned colBits = 0;
};

/**
 * Enumerate the jobs a sweep of @p kind executes, in merge order
 * (budget ascending, then row bits ascending).  AddressIndexed
 * contributes only the all-columns split and GAg only the all-rows
 * split, matching the paper's Figures 2 and 3.
 */
std::vector<ConfigJob> planSweep(SchemeKind kind,
                                 const SweepOptions &opts);

/**
 * A unit of grid execution: jobs (indices into the planned job vector)
 * that replay the trace together because they read the same
 * per-branch first-level inputs (for PAsFinite, the same row width).
 * A 2-bit group runs the 2-bit lane
 * engine; a zoo group (kind Tage/Perceptron) is a MODEL group and runs
 * the model engine.
 */
struct FusedGroup
{
    SchemeKind kind = SchemeKind::GAs;
    /** Member jobs, as indices into the planned job vector. */
    std::vector<std::size_t> jobs;
};

/**
 * Partition planned jobs into grid execution groups.  Jobs of one
 * scheme share a bucket; PAsFinite jobs also bucket by row width,
 * because a group's decode derives one width's rows from the BHT
 * stream (BhtStream::row).  A 2-bit bucket chunks into one balanced group per
 * AliasBatch::kMaxLanes jobs, whatever @p threads is, so each group is
 * one full lane batch.  Zoo jobs bucket by scheme into model groups,
 * split into at most @p threads chunks so the pool can spread a large
 * group across executors.  Every job index appears in exactly one
 * group; results are bit-identical for any grouping.
 */
std::vector<FusedGroup>
planFusedGroups(const std::vector<ConfigJob> &jobs, unsigned threads);

/**
 * The one-lane group replaying planned job @p index alone: the shape
 * simulateConfig runs and the benches' per-configuration baselines
 * time.
 */
FusedGroup singleJobGroup(const std::vector<ConfigJob> &jobs,
                          std::size_t index);

/**
 * Shared immutable first-level inputs for one (trace, options) pair:
 * at most one path-history stream and one finite-BHT stream (a
 * BhtStream, whose row() serves every row width and whose missRate()
 * is the sweep's one BHT miss rate).
 *
 * Each stream is built once, on first use, under the cache's lock, and
 * kept for the cache's lifetime (sweepScheme holds one cache per sweep,
 * so it is freed when the sweep returns).  Concurrent first lookups
 * wait for the one build.  prepare() builds what a job list needs up
 * front.
 */
class StreamCache
{
  public:
    StreamCache(const PreparedTrace &trace, const SweepOptions &opts);

    const PreparedTrace &trace() const { return trace_; }
    const SweepOptions &options() const { return opts_; }

    /**
     * Build the streams @p jobs need.  At most two builds, both under
     * the one lock, so they run in the calling thread; @p threads is
     * accepted for callers that pass their pool width.
     */
    void prepare(const std::vector<ConfigJob> &jobs, unsigned threads);

    /** Path-history stream at opts.pathBitsPerTarget (Path groups). */
    const std::vector<std::uint64_t> &pathStream();

    /** Finite-BHT stream for the options' BHT (PAsFinite groups). */
    const BhtStream &bhtStream();

    /**
     * Number of first-level stream builds so far.  Each stream is
     * built at most once, so repeated probes of any configuration must
     * not grow this -- the reuse invariant the differential tests pin.
     */
    std::size_t streamBuilds() const;

  private:
    const PreparedTrace &trace_;
    SweepOptions opts_;
    /** Guards the two streams; a stream, once built, never changes. */
    mutable std::mutex mutex_;
    std::optional<std::vector<std::uint64_t>> path_;
    std::optional<BhtStream> bht_;
    std::size_t streamBuilds_ = 0;
};

/**
 * Call fn(row_of, pattern_of) with 2-bit scheme @p kind's first-level
 * mapping over the cache's trace: row_of(i) is the raw row value
 * before branch i, pattern_of(i) the first-level pattern whose
 * all-ones value makes a conflict harmless.  PAsFinite derives its
 * rows at @p row_bits.  The one row mapping of the 2-bit family,
 * shared by the lane engine and the interference analyzer; the
 * callables are distinct types, so each scheme's loop is compiled
 * with its mapping inlined.
 */
template <typename Fn>
void
withTwoBitRows(StreamCache &cache, SchemeKind kind, unsigned row_bits,
               Fn &&fn)
{
    const PreparedTrace &t = cache.trace();
    const auto none = [](std::size_t) { return std::uint64_t{0}; };
    const auto global = [&t](std::size_t i) { return t.globalHistory(i); };

    switch (kind) {
      case SchemeKind::AddressIndexed:
        fn(none, none);
        return;
      case SchemeKind::GAg:
      case SchemeKind::GAs:
        fn(global, global);
        return;
      case SchemeKind::Gshare:
        // Harmlessness keys on the outcome pattern itself.
        fn([&t](std::size_t i) {
               return t.globalHistory(i) ^ wordIndex(t.pc(i));
           },
           global);
        return;
      case SchemeKind::Path: {
        const std::vector<std::uint64_t> &path = cache.pathStream();
        fn([&path](std::size_t i) { return path[i]; }, none);
        return;
      }
      case SchemeKind::PAsPerfect: {
        const auto self = [&t](std::size_t i) { return t.selfHistory(i); };
        fn(self, self);
        return;
      }
      case SchemeKind::PAsFinite: {
        const BhtStream &bht = cache.bhtStream();
        const auto rows = [&bht, row_bits](std::size_t i) {
            return bht.row(i, row_bits);
        };
        fn(rows, rows);
        return;
      }
      case SchemeKind::Tage:
      case SchemeKind::Perceptron:
        break;
    }
    bpsim_panic(schemeKindName(kind), " is not a 2-bit scheme");
}

/**
 * Replay one group over the whole trace, writing each member
 * job's result into slots[job index].  @p slots addresses the whole
 * planned job vector.  The lane engine follows from the group's kind:
 * model for the zoo, 2-bit otherwise; the host picks every engine's
 * dispatch target.  When @p telemetry is non-null the
 * group's kernel counters are accumulated into it.  Thread-safe.
 */
void runFusedGroup(const FusedGroup &group,
                   const std::vector<ConfigJob> &jobs,
                   StreamCache &cache, ConfigResult *slots,
                   KernelTelemetry *telemetry = nullptr);

/** Surfaces over the whole configuration space of one scheme. */
struct SweepResult
{
    Surface misprediction;
    Surface aliasing;
    Surface harmless;
    /** PAsFinite only: the BHT tag miss rate (identical across tiers). */
    double bhtMissRate = 0.0;
    /** How the sweep executed (groups, lanes, batches, blocks). */
    KernelTelemetry kernel;

    SweepResult(const std::string &scheme_name,
                const std::string &trace_name);
};

/**
 * Sweep @p kind over every tier in [minTotalBits, maxTotalBits] and
 * every row/column split within each tier, using opts.threads
 * concurrent trace replays.  The result is bit-identical for any
 * thread count.
 */
SweepResult sweepScheme(const PreparedTrace &trace, SchemeKind kind,
                        const SweepOptions &opts = {});

/**
 * Measure a single configuration (2^row_bits x 2^col_bits) as a
 * one-lane group through a caller-held cache, sharing first-level
 * streams across calls.
 */
ConfigResult simulateConfig(StreamCache &cache, SchemeKind kind,
                            unsigned row_bits, unsigned col_bits);

/**
 * Measure a single configuration with a transient cache.  Slower per
 * point than the cache-taking overload when called repeatedly (the
 * first-level streams are rebuilt per call); intended for spot checks
 * and tests.
 */
ConfigResult simulateConfig(const PreparedTrace &trace, SchemeKind kind,
                            unsigned row_bits, unsigned col_bits,
                            const SweepOptions &opts = {});

/**
 * The TAGE geometry a sweep point denotes: rowBits -> per-component
 * entry bits, colBits -> base-table bits, remaining knobs from
 * SweepOptions.  One mapping shared by the sweep kernel, the
 * interference analyzer, and the differential tests.
 */
TageParams tageSweepParams(unsigned row_bits, unsigned col_bits,
                           const SweepOptions &opts);

/**
 * The hashed-perceptron geometry a sweep point denotes: rowBits ->
 * history bits, colBits -> per-table entry bits.
 */
PerceptronParams perceptronSweepParams(unsigned row_bits,
                                       unsigned col_bits,
                                       const SweepOptions &opts);

} // namespace bpsim

#endif // BPSIM_SIM_SWEEP_HH
