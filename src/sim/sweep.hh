/**
 * @file
 * Configuration-space sweeps: every (rows x columns) split of every
 * predictor-table budget, for every scheme in the paper, over a prepared
 * trace.  This is the engine behind Figures 2-10 and Table 3.
 *
 * Sweeps run in two phases.  The *plan* phase (planSweep) enumerates the
 * configuration space into ConfigJobs, planFusedGroups partitions them
 * into FusedGroups of jobs sharing one first-level input stream, and a
 * StreamCache precomputes every shared immutable input (the path-history
 * stream and the per-row-width BHT streams with their miss rates).  The
 * *execute* phase replays every group through one replay grid, serially
 * or on the shared ThreadPool, governed by SweepOptions::threads (which
 * distributes groups).  Results land in per-job ConfigResult slots that
 * are merged into Surfaces in plan order, so every execution shape is
 * bit-identical to the serial one.
 *
 * The grid steps a group's member configurations -- its *lanes* --
 * through one of three lane engines:
 *
 *  - packed 2-bit: one block-decoded trace pass updates every member's
 *    packed counter table through the SIMD lane kernel (every split of
 *    a tier reads the same per-branch row value and word index);
 *  - aliasing 2-bit: Figure 5's per-access last-writer test.  Each
 *    block is decoded once into a 13-byte record per branch and lane
 *    batches of up to 16 step fused last-writer+counter table words
 *    through the SIMD alias kernel.  trackAliasing picks this engine
 *    for the 2-bit family;
 *  - model: TAGE/perceptron lanes sharing the block decode and hash
 *    folds.
 *
 * Within one group the grid has two axes of parallelism (see DESIGN.md
 * "Segment-parallel replay"), shared by all three engines:
 *
 *  - SweepOptions::fusedThreads lane-shards the group: each executor
 *    owns a disjoint subset of the member lanes with private state, so
 *    any shard count is bit-identical to the serial pass.
 *  - SweepOptions::segments speculatively splits the *trace* into K
 *    ranges replayed concurrently from cold-start state behind a
 *    segmentWarmup-branch warm-up window.  K > 1 trades a bounded,
 *    auditable epsilon for parallelism; the exact K = 1 mode is the
 *    default and speculative results depend only on (K, warmup), never
 *    on shard/worker counts.
 *
 * The sweep path is the fast counterpart of the online TwoLevelPredictor
 * (see prepared_trace.hh); their equivalence is pinned by tests.
 */

#ifndef BPSIM_SIM_SWEEP_HH
#define BPSIM_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/simd.hh"
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
     * PerceptronModel state per configuration (no packed-PHT form --
     * the packed engine's 2-bit-counter invariants do not hold for
     * tagged entries or signed weights).  The planner batches them
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

/** Sweep shape and per-scheme parameters. */
struct SweepOptions
{
    /** Smallest tier: 2^minTotalBits counters (paper: 16). */
    unsigned minTotalBits = 4;
    /** Largest tier: 2^maxTotalBits counters (paper: 32768). */
    unsigned maxTotalBits = 15;
    /**
     * Measure aliasing alongside misprediction (Figure 5).  Selects the
     * aliasing 2-bit lane engine instead of the packed one.
     */
    bool trackAliasing = true;
    /** Path scheme: address bits contributed per branch. */
    unsigned pathBitsPerTarget = 2;
    /** PAsFinite: BHT entry count (power of two). */
    std::size_t bhtEntries = 1024;
    /** PAsFinite: BHT associativity. */
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
     * Concurrent trace replays during execution: 0 = one per hardware
     * thread, 1 = serial.  Results are identical either way.
     */
    unsigned threads = 1;
    /**
     * Dispatch target for the packed, aliasing and perceptron SIMD
     * lane kernels.  Auto defers to the BPSIM_SIMD environment override,
     * then to CPUID detection; explicit requests clamp down to the
     * widest supported target.
     * Every target is bit-identical (pinned by the forced-dispatch
     * differential tests), so this is a performance/debug knob only.
     */
    SimdTarget simd = SimdTarget::Auto;
    /**
     * Executors *inside* one group: the group's member lanes are
     * sharded across this many concurrent replay workers, each owning
     * a disjoint lane subset with private tables, slot arenas, models or
     * weight banks -- nothing is shared, so results are bit-identical
     * for any value.
     * 0 = one per hardware thread, 1 (default) reproduces the serial
     * group replay.  Composes with `threads`: groups distribute outer,
     * shards inner (the pool's nested parallelFor is deadlock-free).
     * Execution knob only: excluded from result-cache keys
     * (sweep_session.cc), exactly like `threads` and `simd`.
     */
    unsigned fusedThreads = 1;
    /**
     * Speculative segment replay: split the trace into this many
     * ranges, replay them concurrently from cold-start state after a
     * segmentWarmup-branch uncounted warm-up window, and sum the
     * per-segment counts.  0 (default) and 1 are the exact
     * single-segment replay; K > 1 trades a bounded epsilon (2-bit
     * counters converge after a handful of same-direction updates, so
     * only the few warm-up-resistant counters at each boundary can
     * disagree; last-writer state converges within one access per
     * entry; zoo model state converges more slowly, so the zoo epsilon
     * runs larger at the same warmup -- see EXPERIMENTS.md) for
     * segment parallelism.  Applies to every lane engine, aliasing
     * and harmless counts included.  Speculative results depend only
     * on (K, segmentWarmup) -- never on shard or worker counts -- and
     * are cached under a distinct key (sweep_session.cc).  Clamped to
     * kMaxSegments; see resolveSegments().
     */
    unsigned segments = 0;
    /**
     * Warm-up branches replayed (uncounted) before each speculative
     * segment to converge its cold counters; ignored when the
     * resolved segment count is 1.  A window reaching back to the
     * trace start makes the segment exact by construction.
     */
    unsigned segmentWarmup = 2048;

    /** Hard ceiling on resolveSegments() (protocol limit too). */
    static constexpr unsigned kMaxSegments = 64;
};

/**
 * The within-group shard executor count a sweep actually uses:
 * opts.fusedThreads with 0 resolved to the hardware thread count.
 */
unsigned resolveFusedThreads(const SweepOptions &opts);

/**
 * The segment count a sweep actually uses: opts.segments clamped to
 * [1, SweepOptions::kMaxSegments], so 0 and 1 both mean exact.  It
 * depends on the request alone -- no environment override.
 * Result-cache keys use the same resolution (sweep_session.cc), so a
 * speculative run can never be served an exact result or vice versa.
 */
unsigned resolveSegments(const SweepOptions &opts);

/**
 * Observability counters for one sweep's kernel execution, reported in
 * SweepResult::kernel and surfaced by bench/perf_sweep so recorded
 * BENCH_sweep.json trajectories are self-describing.
 */
struct KernelTelemetry
{
    /** Resolved dispatch target the lane batches ran on. */
    SimdTarget target = SimdTarget::Scalar;
    /** 2-bit groups replayed by the packed or aliasing engine. */
    std::uint64_t fusedGroups = 0;
    /** Member configurations replayed by 2-bit groups. */
    std::uint64_t lanes = 0;
    /**
     * Packed lanes beyond the packed-record limits, reading 64-bit
     * row/column columns in the wide loop.
     */
    std::uint64_t wideLanes = 0;
    /** Lanes replayed by the aliasing engine (AliasBatch kernels). */
    std::uint64_t aliasLanes = 0;
    /**
     * Lane batches dispatched per counted block: packed batches (at
     * most LaneBatch::kMaxLanes lanes each) and aliasing batches (at
     * most AliasBatch::kMaxLanes).
     */
    std::uint64_t laneBatches = 0;
    /** Decoded block tiles streamed through the lane batches. */
    std::uint64_t blocksReplayed = 0;
    /** Trace segments across groups (1/group = exact replay). */
    std::uint64_t segments = 0;
    /** Lane shards across groups (1/group = unsharded). */
    std::uint64_t laneShards = 0;
    /** (shard x segment) replay tasks dispatched by groups. */
    std::uint64_t shardTasks = 0;
    /** Uncounted warm-up branches replayed by speculative segments. */
    std::uint64_t warmupBranches = 0;
    /**
     * Model groups (TAGE/perceptron zoo) replayed by the model engine.
     * They run the same grid -- their segments/shards/tasks/warm-up/
     * blocks/timing fold into the shared counters above -- but step
     * full predictor models instead of 2-bit tables, so their
     * population is counted apart from fusedGroups/lanes.
     */
    std::uint64_t modelGroups = 0;
    /** Member configurations replayed as model lanes. */
    std::uint64_t modelLanes = 0;
    /**
     * Batched inner-kernel invocations by model groups: one per
     * (block tile x perceptron lane batch) or (block tile x TAGE
     * entry-bits class).
     */
    std::uint64_t modelBatches = 0;
    /** Summed per-task execution time (busy seconds across workers). */
    double busySeconds = 0.0;
    /** Summed per-group wall time of the task phase. */
    double spanSeconds = 0.0;
    /** Peak concurrent executors any group's task phase could use. */
    std::uint64_t shardWorkers = 0;

    /** Mean member configurations per 2-bit group. */
    double lanesPerGroup() const;
    /** Mean member configurations per model group. */
    double modelLanesPerGroup() const;
    /** Mean trace segments per group (1.0 = exact everywhere). */
    double segmentsPerGroup() const;
    /** Mean lane shards per group (1.0 = unsharded). */
    double shardsPerGroup() const;
    /**
     * Fraction of the task phase's worker-seconds spent executing:
     * busySeconds / (spanSeconds * shardWorkers).  1.0 means every
     * executor was busy for the whole span; 0.0 when unmeasured.
     */
    double workerUtilization() const;
    /**
     * Bytes of shared decoded record the lane inner loop reads per
     * branch per lane: 4 (one packed record) for narrow packed lanes,
     * 17 (64-bit row and column, outcome byte) for wide packed lanes,
     * 13 (32-bit row, column and tag, flags byte) for aliasing lanes,
     * averaged over the lane population.
     */
    double hotBytesPerBranch() const;
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
 * per-branch first-level inputs.  A 2-bit group runs the packed or
 * (when aliasing is tracked) the aliasing lane engine; a zoo group
 * (kind Tage/Perceptron) is a MODEL group and runs the model engine.
 */
struct FusedGroup
{
    SchemeKind kind = SchemeKind::GAs;
    /**
     * Stream key for StreamCache::stream(): the shared BHT row width
     * for PAsFinite groups, 0 for every other scheme (whose streams,
     * when they have one at all, are row-width independent).
     */
    unsigned streamRowBits = 0;
    /** Member jobs, as indices into the planned job vector. */
    std::vector<std::size_t> jobs;
};

/**
 * Partition planned jobs into grid execution groups.  Jobs sharing a
 * first-level stream (same scheme; same BHT row width for PAsFinite)
 * land in one group, split into at most @p threads chunks so the pool
 * can spread a large group across executors.  Zoo jobs bucket by
 * scheme into model groups under the same chunking.  When
 * opts.trackAliasing, 2-bit buckets chunk into one balanced group
 * per AliasBatch::kMaxLanes jobs instead, whatever @p threads is, so
 * each group is one full aliasing lane batch; zoo jobs batch as
 * without tracking -- their aliasing surfaces are identically zero.
 * Every job index appears in exactly one group; results are
 * bit-identical for any grouping.
 */
std::vector<FusedGroup>
planFusedGroups(const std::vector<ConfigJob> &jobs,
                const SweepOptions &opts, unsigned threads);

/**
 * The one-lane group replaying planned job @p index alone: the shape
 * simulateConfig runs and the benches' per-configuration baselines
 * time.
 */
FusedGroup singleJobGroup(const std::vector<ConfigJob> &jobs,
                          std::size_t index);

/**
 * Shared immutable first-level inputs for one (trace, options) pair:
 * the path-history stream and the finite-BHT history streams (one per
 * row width, because the 0xC3FF reset prefix differs by width) with
 * their miss rates.
 *
 * prepare() builds every stream a job list needs up front -- in
 * parallel when asked -- and publishes a lock-free lookup table, after
 * which stream() and bhtMissRate() are read-only lookups that take no
 * lock at all (lockedLookups() counts the ones that did, so tests can
 * pin the fused hot path to zero).  Unprepared lookups build lazily
 * under a lock, which keeps one-off simulateConfig() calls cheap to
 * write.  prepare() must not race with concurrent lookups; the sweep
 * engine always finishes it before dispatching executors.
 */
class StreamCache
{
  public:
    StreamCache(const PreparedTrace &trace, const SweepOptions &opts);

    const PreparedTrace &trace() const { return trace_; }
    const SweepOptions &options() const { return opts_; }

    /** Precompute the streams @p jobs need, @p threads at a time. */
    void prepare(const std::vector<ConfigJob> &jobs, unsigned threads);

    /**
     * First-level stream feeding a job's row index, or nullptr for the
     * schemes that index rows straight from the prepared trace.
     * Lock-free after prepare() covered the (kind, row_bits) pair.
     */
    const std::vector<std::uint64_t> *stream(SchemeKind kind,
                                             unsigned row_bits);

    /**
     * BHT miss rate observed building the width-@p row_bits stream.
     * Lock-free after prepare() covered the width.
     */
    double bhtMissRate(unsigned row_bits);

    /**
     * Lookups (stream() or bhtMissRate()) that missed the prepared
     * lock-free table and had to take the lazy-build lock.  Fused
     * execution after prepare() must leave this at zero -- the
     * invariant pinned by test_sweep.
     */
    std::size_t lockedLookups() const;

    /**
     * Number of first-level streams computed so far (path stream plus
     * one per distinct BHT row width).  Repeated probes of the same
     * configuration must not grow this -- the reuse invariant the
     * differential tests pin.
     */
    std::size_t streamBuilds() const;

    /**
     * The miss rate a whole-sweep result reports: the widest stream
     * built so far (all widths measure the same tag misses).  Negative
     * until a BHT stream exists.  Survives stream release -- the rate
     * is a scalar recorded at build time, not the buffer.
     */
    double sweepBhtMissRate() const;

    /**
     * Enable release-after-last-consumer: record how many of @p groups
     * consume each first-level stream so groupFinished() can free a
     * stream's buffer the moment its last consumer completes (a full
     * multi-scheme sweep would otherwise hold O(schemes x trace)
     * bytes).  While tracking is on, stream() and bhtMissRate() bypass
     * the lock-free prepared table -- a freed buffer must never be
     * reachable through it -- and take the lazy lock instead: one
     * short lock per group, not per branch.  Call before dispatching
     * executors; not thread-safe against concurrent lookups.
     */
    void planRelease(const std::vector<FusedGroup> &groups);

    /**
     * One group of the planned release set finished executing: drop
     * any stream whose consumers are all done.  No-op without
     * planRelease().  Thread-safe.
     */
    void groupFinished(const FusedGroup &group);

    /** First-level stream buffers currently resident. */
    std::size_t residentStreams() const;
    /** High-water mark of residentStreams() over the cache lifetime. */
    std::size_t peakResidentStreams() const;

  private:
    struct BhtStream
    {
        std::vector<std::uint64_t> stream;
        double missRate = -1.0;
        /** Buffer freed by groupFinished(); missRate still valid.  A
         *  later lookup rebuilds the stream (counted as a build). */
        bool released = false;
    };

    const std::vector<std::uint64_t> &pathStreamLocked();
    const BhtStream &bhtStreamLocked(unsigned row_bits);
    /** Count a freshly built stream toward the resident high-water. */
    void noteStreamResidentLocked();
    /** Lock-free lookup in the prepared table; nullptr on miss. */
    const BhtStream *preparedBhtStream(unsigned row_bits) const;

    const PreparedTrace &trace_;
    SweepOptions opts_;
    mutable std::mutex mutex_;
    std::optional<std::vector<std::uint64_t>> path_;
    std::map<unsigned, BhtStream> bht_;
    std::size_t streamBuilds_ = 0;
    /**
     * Lock-free lookup table published by prepare(): stable pointers
     * into path_ / bht_ (map nodes never move, lazy inserts never
     * touch these), read by stream()/bhtMissRate() without the lock.
     */
    const std::vector<std::uint64_t> *preparedPath_ = nullptr;
    std::vector<std::pair<unsigned, const BhtStream *>> preparedBht_;
    mutable std::atomic<std::size_t> lockedLookups_{0};
    /** Release-after-last-consumer state (planRelease). */
    bool releaseTracking_ = false;
    std::size_t pathConsumers_ = 0;
    std::map<unsigned, std::size_t> bhtConsumers_;
    std::size_t residentStreams_ = 0;
    std::size_t peakResidentStreams_ = 0;
};

/**
 * Execute one group through the replay grid, writing each member
 * job's result into slots[job index].  @p slots addresses the whole
 * planned job vector.  The lane engine follows from the group's kind
 * and the cache's options: model for the zoo, aliasing 2-bit when
 * trackAliasing, else packed 2-bit (SweepOptions::simd picks every
 * engine's dispatch target).  When @p telemetry is non-null the group's kernel
 * counters are accumulated into it.  Thread-safe once @p cache is
 * prepared for the group.
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
    /** How the sweep executed (dispatch target, lanes, blocks). */
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
