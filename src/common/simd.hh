/**
 * @file
 * Portable lane-batched SIMD layer for the sweep engine's lane kernels.
 *
 * The sweep replay (sim/sweep.cc) trains one private table per
 * configuration "lane", and every lane in a batch updates *disjoint*
 * state from the same per-branch decoded record -- so the per-branch
 * work is data-parallel across lanes.  This header exposes three such
 * kernels behind a dispatch target chosen once at runtime.  Each ships
 * exactly two implementations: the scalar reference and an AVX-512
 * kernel that steps 16 lanes per branch.
 *
 *   AliasBatch       the 2-bit family (Figures 2-10): fused
 *                    last-writer+counter slot words, misprediction,
 *                    conflicts and harmless conflicts per lane.  The
 *                    AVX-512 kernel does one masked 32-bit gather and
 *                    one masked scatter per branch.
 *   PerceptronBatch  the hashed-perceptron zoo: int8 weights.  The
 *                    AVX-512 kernel does one masked gather per table
 *                    and trains the weights with scalar byte stores.
 *   TageBatch        the TAGE zoo: one uint32 slot per tagged entry or
 *                    base counter.  The AVX-512 kernel does one masked
 *                    gather per table, the provider, altpred and victim
 *                    choices as mask arithmetic, and two masked
 *                    scatters.  It earns its place: TAGE is the
 *                    costliest zoo request, and from 5 live lanes the
 *                    kernel beats the scalar loop -- 6.0x at 16
 *                    (EXPERIMENTS "TAGE kernel ledger").
 *
 * Every kernel keeps a batch's tables in one arena addressed by signed
 * 32-bit element offsets, laid out by one packer (packLaneBatches).
 *
 * Both zoo kernels take their keys pre-hashed in a lane-major tile, one
 * 16-lane row per (branch, table).  One builder pair makes both tiles
 * from a LaneKeyPlan per batch: buildLaneKeys folds each lane's
 * history segment and pc into its table key, the AVX-512 builder one
 * row per vector chain (EXPERIMENTS "Zoo key-builder ledger").
 *
 * A host without AVX-512 (an AVX2 host included) runs the scalar
 * kernel for every engine.
 *
 * Every vector kernel is bit-identical to its scalar reference
 * (tests/test_simd.cc, tests/differential/test_alias_batch.cc,
 * tests/differential/test_model_batch.cc).
 *
 * Only the host and the batch occupancy choose a kernel.  Dispatch is
 * runtime CPUID -- no ISA flags are baked into any build, so one
 * binary runs everywhere -- and each under-occupied batch then drops
 * to the scalar kernel (aliasBatchKernel, perceptronBatchKernel,
 * tageBatchKernel, laneKeysKernel).  The AVX-512 kernels are compiled
 * only when the toolchain understands the avx512f target attribute
 * (CMake probe -> BPSIM_HAVE_AVX512); otherwise the target reports
 * unsupported and dispatch clamps to Scalar.  Tests and benches reach
 * one kernel directly through replayAliasBatchOn /
 * replayPerceptronBatchOn / replayTageBatchOn / buildLaneKeysOn.
 */

#ifndef BPSIM_COMMON_SIMD_HH
#define BPSIM_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bpsim {

/** A lane-kernel dispatch target. */
enum class SimdTarget
{
    Auto,   ///< pick the widest target the host supports
    Scalar, ///< reference loop, always available
    AVX512, ///< 16 lanes per vector, hardware gathers and scatters
};

/** @return "auto", "scalar" or "avx512". */
const char *simdTargetName(SimdTarget target);

/** @return whether this host can execute @p target (Auto: true). */
bool simdTargetSupported(SimdTarget target);

/**
 * The target a kernel invocation may run: Auto is the host's own
 * (AVX512 when the host supports it, else Scalar; CPUID is probed once
 * and cached, so the lane engines ask per batch); an unsupported
 * request clamps to Scalar, so the result is always executable.
 * Never returns Auto.
 */
SimdTarget resolveSimdTarget(SimdTarget requested = SimdTarget::Auto);

/** Every concrete target this host supports, narrowest first. */
std::vector<SimdTarget> supportedSimdTargets();

/**
 * The arena layout of one lane batch: its lanes' tables back to back
 * in execution order, each followed by kPadBytes of padding, addressed
 * by signed 32-bit element offsets.  The pad keeps power-of-two tables
 * from putting every lane's entry e at the same address modulo 4 KiB
 * (a gather behind a scatter to such an address stalls as a possible
 * store-forward hazard, 2x slower at 16 lanes), and it is the readable
 * slack behind a table's last weight for the perceptron kernel's
 * 4-byte gather window.
 */
struct LaneBatchLayout
{
    /** Lanes per batch: one 512-bit vector of 32-bit lanes. */
    static constexpr unsigned kMaxLanes = 16;
    /** Padding after every table, in bytes. */
    static constexpr std::size_t kPadBytes = 64;
    /** Elements an arena may hold, so every offset fits a signed int32. */
    static constexpr std::size_t kMaxElements = (std::size_t{1} << 31) - 1;

    /** The batch's first lane, in execution order. */
    std::size_t firstLane = 0;
    /** Lanes in the batch (1..kMaxLanes). */
    unsigned lanes = 0;
    /** Tables per lane. */
    unsigned tables = 0;
    /** Arena elements, every pad included. */
    std::size_t elements = 0;
    /** offset[l * tables + t]: the first element of lane l's table t. */
    std::vector<std::uint32_t> offset;

    /** The first arena element of table @p table of lane @p lane. */
    std::uint32_t
    at(unsigned lane, unsigned table) const
    {
        return offset[lane * tables + table];
    }
};

/**
 * Pack lanes into lane batches, the one layout of every lane engine:
 * @p entries holds each lane's @p tables table sizes in
 * @p elementBytes-byte elements, lane after lane in execution order.
 * A batch closes at kMaxLanes lanes, or early when the next lane
 * would take its arena past kMaxElements; a lane that cannot fit an
 * arena on its own panics.  The caller sizes each arena to elements.
 */
std::vector<LaneBatchLayout>
packLaneBatches(const std::vector<std::size_t> &entries, unsigned tables,
                std::size_t elementBytes);

/**
 * One batch of hashed-perceptron model lanes in structure-of-arrays
 * form, for the batched zoo replay (sim/sweep.cc).  Every lane's
 * tables live in one int8 arena laid out by packLaneBatches, and the
 * kernel sees only arena offsets (the idx tile).  The arena is int8
 * because the model clamps weights to [kWeightMin, kWeightMax] -- the
 * same constants as PerceptronModel, pinned by a static_assert at the
 * sweep integration point.
 */
struct PerceptronBatch
{
    static constexpr unsigned kMaxLanes = LaneBatchLayout::kMaxLanes;
    static constexpr unsigned kMaxTables = 16;
    static constexpr int kWeightMin = -64;
    static constexpr int kWeightMax = 63;
    /** The arena; signed 32-bit offsets must reach every weight. */
    std::int8_t *weights = nullptr;
    /** Live lanes (1..kMaxLanes); vector kernels pad the rest. */
    unsigned lanes = 0;
    /** Weight tables per lane -- shared across the batch (1..16). */
    unsigned tables = 0;
    /** Per-lane training threshold (PerceptronParams::threshold). */
    std::int32_t theta[kMaxLanes] = {};
    /** Per-lane mispredict accumulators. */
    std::uint64_t misses[kMaxLanes] = {};
};

/**
 * The per-batch fold plan of the zoo's lane-major key builders
 * (buildLaneKeys): for each (table, lane) of one lane batch, how to
 * turn a branch's pc word index and global history into that lane's
 * table key.  Table 0 is the raw word index, masked and offset
 * (perceptron's bias table, TAGE's base table):
 *   key = (widx & entryMask) + offset.
 * Every other table folds a history segment (the bits [start, start +
 * bits) of the history) down to entryBits and XORs the lane's folded
 * pc onto it (perceptron's history tables, TAGE's tagged components):
 *   key = ((xorFold(segment, entryBits) ^ pcFold) & entryMask) + offset.
 * The fold runs as up to kMaxSteps tree steps v = (v & low) ^ (v >>
 * shift), one per halving of the chunk count -- xorFold is linear and
 * chunk-aligned, so XORing the high chunks onto the low ones at a
 * chunk boundary keeps it.  Lanes differ in their step counts; a lane
 * whose fold has finished takes low = ~0 and shift 64 (vpsrlvq turns
 * that into 0).  Dead lanes keep all-zero entries and so key 0.
 */
struct LaneKeyPlan
{
    static constexpr unsigned kMaxLanes = LaneBatchLayout::kMaxLanes;
    /** Tables per lane: perceptron's 16, TAGE's base + 8 components. */
    static constexpr unsigned kMaxTables = 16;
    /** Tree-fold steps of a 64-bit segment at entryBits 1. */
    static constexpr unsigned kMaxSteps = 6;
    /** One table's plan, per lane. */
    struct Table
    {
        std::uint64_t start[kMaxLanes] = {};
        std::uint64_t segMask[kMaxLanes] = {};
        std::uint64_t low[kMaxSteps][kMaxLanes] = {};
        std::uint64_t shift[kMaxSteps][kMaxLanes] = {};
        std::uint32_t entryMask[kMaxLanes] = {};
        std::uint32_t offset[kMaxLanes] = {};
    };

    /** A plan of @p tables tables (1..kMaxTables) and no live lane. */
    explicit LaneKeyPlan(unsigned tables);

    /** Live lanes: every lane up to the highest one setRaw was given. */
    unsigned lanes = 0;
    /** Fold steps of the batch's deepest (table, lane). */
    unsigned steps = 0;
    /**
     * Every segment lies in history bits 0..31.  Only such plans run
     * the AVX-512 builder (on 32-bit lanes); a wider plan (a history
     * of more than 32 bits) runs the scalar one.
     */
    bool fits32 = true;
    /**
     * The entry width of each lane's folded tables: the width its
     * pcFold entries are folded to (every folded table of a lane
     * shares one).
     */
    unsigned pcBits[kMaxLanes] = {};
    /** Table 0 is raw; tables[t] for t >= 1 fold a segment. */
    std::vector<Table> tables;

    /**
     * Table 0 of @p lane: widx masked to @p entryBits, plus @p offset.
     * Makes lanes 0..@p lane live.
     */
    void setRaw(unsigned lane, unsigned entryBits, std::uint32_t offset);
    /**
     * Table @p table (>= 1) of @p lane: history bits [start, start +
     * bits) folded to @p entryBits, XORed with the lane's pc fold,
     * masked, plus @p offset.  @p start + @p bits <= 64.
     */
    void setFold(unsigned table, unsigned lane, unsigned start,
                 unsigned bits, unsigned entryBits, std::uint32_t offset);
};

/**
 * The builder buildLaneKeys runs for @p plan under the concrete
 * @p target: AVX512 (one 16-lane row per branch and table, whatever
 * the occupancy) for a fits32 plan once enough lanes are live to pay
 * for it, Scalar (one key per live lane) otherwise (the laneKeys rows
 * of bench/micro_predictor_ops set the break-even).
 */
SimdTarget laneKeysKernel(SimdTarget target, const LaneKeyPlan &plan);

/**
 * Build the lane-major key tile of @p n branches on exactly the
 * @p kernel builder (an unsupported kernel, or AVX512 for a plan that
 * is not fits32, runs Scalar): with T =
 * plan.tables.size(),
 *   keys[(i * T + t) * kMaxLanes + l]   lane l's key for table t
 * from widx[i] (the pc word index), gh[i] (the global history) and
 * pcFold[i * kMaxLanes + l] (xorFold(widx[i], plan.pcBits[l])).
 * This is the `idx` tile replayPerceptronBatch takes and the
 * TageKeys::slot tile replayTageBatch takes.  Both builders write
 * every live lane's keys, bit-identical; the AVX-512 builder writes
 * dead lanes' keys too (0), the scalar one leaves them alone (no
 * kernel reads them).  Tests and benches call this to exercise a
 * builder at any occupancy; the sweep engine calls buildLaneKeys.
 */
void buildLaneKeysOn(SimdTarget kernel, const LaneKeyPlan &plan,
                     const std::uint64_t *widx, const std::uint64_t *gh,
                     const std::uint32_t *pcFold, std::size_t n,
                     std::uint32_t *keys);

/**
 * Occupancy-aware build on the host's builder: runs
 * laneKeysKernel(resolveSimdTarget(), plan).
 */
void buildLaneKeys(const LaneKeyPlan &plan, const std::uint64_t *widx,
                   const std::uint64_t *gh, const std::uint32_t *pcFold,
                   std::size_t n, std::uint32_t *keys);

/**
 * The kernel replayPerceptronBatch runs for a @p lanes-wide batch
 * under the concrete @p target: AVX512 (one masked 16-wide gather per
 * table) once enough lanes are live to pay for the full-width
 * gathers, Scalar otherwise (the perceptronBatchReplay rows of
 * bench/micro_predictor_ops set the break-even).
 */
SimdTarget perceptronBatchKernel(SimdTarget target, unsigned lanes);

/**
 * Replay @p n branches through every lane of @p batch on exactly the
 * @p kernel implementation (an unsupported kernel runs Scalar).
 * idx[(i * batch.tables + t) * PerceptronBatch::kMaxLanes + l] holds
 * lane l's arena offset for branch i and table t -- its table's first
 * element plus the table index -- so the kernel needs no per-lane
 * geometry: the weight read is weights[idx...].  The sweep engine
 * builds this tile lane-major with buildLaneKeys, one 16-lane row per
 * (branch, table), from a LaneKeyPlan per batch.  taken[i] is the
 * branch outcome (0/1).  Per branch each lane sums its tables' signed
 * weights, predicts sum >= 0, counts a mispredict into batch.misses,
 * and on a mispredict or |sum| <= theta[l] trains every addressed
 * weight by +/-1 clamped to [kWeightMin, kWeightMax] -- exactly
 * PerceptronModel::step.  All targets are bit-identical: identical
 * final weights, identical miss counts (integer sums are
 * order-free and every update is a single-byte store).  @p n must
 * stay below 2^30 (per-call int32 miss accumulators); the sweep
 * engine's block tiles are 4 orders of magnitude smaller.  Tests and
 * benches call this to exercise a kernel at any occupancy; the sweep
 * engine calls replayPerceptronBatch.
 */
void replayPerceptronBatchOn(SimdTarget kernel, const std::uint32_t *idx,
                             const std::uint8_t *taken, std::size_t n,
                             PerceptronBatch &batch);

/**
 * Occupancy-aware replay on the host's kernels: runs
 * perceptronBatchKernel(resolveSimdTarget(), batch.lanes).
 */
void replayPerceptronBatch(const std::uint32_t *idx,
                           const std::uint8_t *taken, std::size_t n,
                           PerceptronBatch &batch);

/**
 * One decoded block of branches for the aliasing lane kernel, in
 * structure-of-arrays form (sim/sweep.cc decodes each 2048-branch
 * block once and replays every lane batch over it).  Per branch i:
 * row[i] and col[i] are the low 32 bits of the raw row value and of
 * the pc word index; tag[i] is (branchId + 1) << 2 for the branch's
 * dense id (PreparedTrace::branchId); flags[i] carries the outcome in
 * bit 7 and countr_one(first-level pattern) -- at most 64 -- in bits
 * 0..6.
 */
struct AliasRecords
{
    const std::uint32_t *row = nullptr;
    const std::uint32_t *col = nullptr;
    const std::uint32_t *tag = nullptr;
    const std::uint8_t *flags = nullptr;
};

/**
 * One batch of aliasing 2-bit lanes (Figure 5) in structure-of-arrays
 * form.  Every lane's table lives in one arena laid out by
 * packLaneBatches: lane l's slot s is entries[offset[l] + s].  A slot
 * is one uint32 fusing the last writer and the 2-bit counter, tag |
 * counter with tag = (branchId + 1) << 2, so tag 0 means "never
 * written"; a fresh slot holds kFreshEntry (untouched, weakly taken).
 * Per branch each lane indexes slot
 * ((row & rowMask[l]) << colBits[l]) | (col & colMask[l]), counts a
 * conflict when the slot was written by a different branch, counts
 * it harmless as well when the branch's trailing-ones count reaches
 * harmlessOnes[l] (the lane's row width; kNeverHarmless for
 * row-less lanes), counts a misprediction when the counter's
 * prediction differs from the outcome, and writes back its own tag
 * with the trained counter.  The counters accumulate.
 */
struct AliasBatch
{
    static constexpr unsigned kMaxLanes = LaneBatchLayout::kMaxLanes;
    /** Initial slot value: no last writer, counter weakly taken. */
    static constexpr std::uint32_t kFreshEntry = 2;
    /** harmlessOnes for lanes whose conflicts are never harmless. */
    static constexpr std::uint32_t kNeverHarmless = 128;
    /** The arena; signed 32-bit slot offsets must reach every slot. */
    std::uint32_t *entries = nullptr;
    std::uint32_t offset[kMaxLanes] = {};
    std::uint32_t rowMask[kMaxLanes] = {};
    std::uint32_t colMask[kMaxLanes] = {};
    std::uint32_t colBits[kMaxLanes] = {};
    std::uint32_t harmlessOnes[kMaxLanes] = {};
    std::uint64_t misses[kMaxLanes] = {};
    std::uint64_t conflicts[kMaxLanes] = {};
    std::uint64_t harmless[kMaxLanes] = {};
    /** Live lanes (1..kMaxLanes). */
    unsigned lanes = 0;
};

/**
 * The kernel replayAliasBatch runs for a @p lanes-wide batch under the
 * concrete @p target: AVX512 (one masked 16-wide gather and scatter
 * per branch) once enough lanes are live to pay for the full-width
 * gather, Scalar otherwise.
 */
SimdTarget aliasBatchKernel(SimdTarget target, unsigned lanes);

/**
 * Replay @p n decoded branches through every lane of @p batch on
 * exactly the @p kernel implementation (Scalar or AVX512; other
 * targets run Scalar).  Every kernel is bit-identical: identical final
 * arena words and identical counts.  Tests and benches call this to
 * exercise a kernel at any occupancy; the sweep engine calls
 * replayAliasBatch.
 */
void replayAliasBatchOn(SimdTarget kernel, const AliasRecords &records,
                        std::size_t n, AliasBatch &batch);

/**
 * Occupancy-aware replay on the host's kernels: runs
 * aliasBatchKernel(resolveSimdTarget(), batch.lanes).
 */
void replayAliasBatch(const AliasRecords &records, std::size_t n,
                      AliasBatch &batch);

/**
 * One batch of TAGE lanes (TageModel, predictor/tage.hh) in one arena
 * of uint32 slots laid out by packLaneBatches.  A lane owns a base
 * table of 2-bit counters, one slot each, and `components` tagged
 * tables; lanes own pairwise-disjoint slots, so a lane's entry width
 * and base size are the caller's business -- the kernel only sees slot numbers
 * (TageKeys), and lanes of different geometry share one batch.
 *
 * A tagged slot packs one entry: the 3-bit counter in bits 0..2, the
 * 2-bit useful counter in bits 3..4, the valid bit (kValid) and the
 * tag in bits 16..31.  A fresh tagged slot is kFreshEntry (invalid);
 * a fresh base slot is kFreshBase (weakly taken).
 */
struct TageBatch
{
    static constexpr unsigned kMaxLanes = LaneBatchLayout::kMaxLanes;
    static constexpr unsigned kMaxComponents = 8;
    static constexpr std::uint32_t kCounterMask = 7;
    static constexpr unsigned kUsefulShift = 3;
    static constexpr std::uint32_t kUsefulMask = 3u << kUsefulShift;
    static constexpr std::uint32_t kValid = 1u << 5;
    static constexpr unsigned kTagShift = 16;
    static constexpr std::uint32_t kFreshEntry = 0;
    static constexpr std::uint32_t kFreshBase = 2;
    /** The arena; signed 32-bit slot numbers must reach every slot. */
    std::uint32_t *entries = nullptr;
    /** Live lanes (1..kMaxLanes). */
    unsigned lanes = 0;
    /** Tagged components per lane -- shared across the batch (1..8). */
    unsigned components = 0;
    /** Per-lane mispredict accumulators. */
    std::uint64_t misses[kMaxLanes] = {};
};

/**
 * The per-branch keys of a TageBatch replay: hashes already reduced
 * to arena slots, so the kernel needs no per-lane geometry.  For
 * branch i, with K = components + 1:
 *   slot[(i * K) * kMaxLanes + l]            lane l's base slot;
 *   slot[(i * K + 1 + c) * kMaxLanes + l]    lane l's slot in tagged
 *                                            component c;
 *   tag[i * components + c]                  component c's tag, which
 *                                            every lane shares (tags
 *                                            depend on tagBits and the
 *                                            histories only);
 *   taken[i]                                 the outcome (0/1).
 * The sweep engine builds the slot tile with buildLaneKeys (table 0
 * the base, table c + 1 component c).
 */
struct TageKeys
{
    const std::uint32_t *slot = nullptr;
    const std::uint16_t *tag = nullptr;
    const std::uint8_t *taken = nullptr;
};

/**
 * The kernel replayTageBatch runs for a @p lanes-wide batch under the
 * concrete @p target: AVX512 (one masked 16-wide gather per component
 * and one masked scatter per written component) once enough lanes are
 * live to pay for the full-width gathers, Scalar otherwise (the
 * tageBatchReplay rows of bench/micro_predictor_ops set the
 * break-even).
 */
SimdTarget tageBatchKernel(SimdTarget target, unsigned lanes);

/**
 * Replay @p n branches through every lane of @p batch on exactly the
 * @p kernel implementation (Scalar or AVX512; other targets run
 * Scalar).  Per branch each lane does what TageModel::step does: the
 * longest matching component provides and the next match below is
 * the altpred (the base table when none); the provider's useful
 * counter moves when it disagreed with the altpred; the provider (or
 * the base) trains; and on a mispredict the first not-useful entry
 * above the provider is allocated, or every entry above it ages.
 * Every kernel is bit-identical: identical final arena words and
 * identical miss counts.  @p n must stay below 2^30 (per-call int32
 * miss accumulators).  Tests and benches call this to exercise a
 * kernel at any occupancy; the sweep engine calls replayTageBatch.
 */
void replayTageBatchOn(SimdTarget kernel, const TageKeys &keys,
                       std::size_t n, TageBatch &batch);

/**
 * Occupancy-aware replay on the host's kernels: runs
 * tageBatchKernel(resolveSimdTarget(), batch.lanes).
 */
void replayTageBatch(const TageKeys &keys, std::size_t n,
                     TageBatch &batch);

} // namespace bpsim

#endif // BPSIM_COMMON_SIMD_HH
