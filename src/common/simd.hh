/**
 * @file
 * Portable lane-batched SIMD layer for the fused sweep kernel.
 *
 * The fused replay (sim/sweep.cc) trains one packed pattern table per
 * configuration "lane", and every lane in a group updates a *disjoint*
 * table from the same per-branch fused record -- so the per-branch work
 * is trivially data-parallel across lanes.  This header exposes that
 * parallelism behind a dispatch target chosen once at runtime:
 *
 *   Scalar  the reference implementation -- exactly the PR 3 fused
 *           inner loop (one load, one AND, one packed-counter RMW per
 *           lane).  Always available, and the semantics every vector
 *           kernel is held to, bit for bit (tests/test_simd.cc,
 *           tests/differential/test_fused_kernel.cc).
 *   SSE2    4 lanes per 128-bit vector.  No variable per-element
 *           shifts exist in SSE2, so counter extraction and insertion
 *           go through power-of-two multiplies (pmullw); table bytes
 *           are moved with scalar loads/stores.
 *   AVX2    8 lanes per 256-bit vector with hardware gathers
 *           (vpgatherqd on absolute byte addresses) and variable
 *           shifts (vpsrlvd/vpsllvd); stores remain scalar because x86
 *           has no AVX2 scatter.
 *   AVX512  16 lanes per 512-bit vector.  Gathers as AVX2 (two
 *           8-wide vpgatherqd on absolute addresses), but stores go
 *           through hardware scatters (vpscatterqd), which is safe
 *           precisely because lanes train disjoint tables -- the
 *           4-byte scatter element only ever lands inside the owning
 *           lane's allocation (table bytes + PackedPht slack).
 *           Compiled only when the toolchain understands the avx512f
 *           target attribute (CMake probe -> BPSIM_HAVE_AVX512);
 *           otherwise the target reports unsupported and dispatch
 *           clamps to AVX2.
 *
 * The aliasing lane kernel (AliasBatch, Figure 5) has only two
 * implementations: the scalar reference and an AVX-512 kernel that
 * steps 16 lanes per branch with one masked 32-bit gather and one
 * masked scatter over fused last-writer+counter words.  SSE2 and AVX2
 * run the scalar kernel: without a hardware scatter the per-lane
 * read-modify-write is the whole cost.
 *
 * Dispatch is runtime CPUID -- no ISA flags are baked into tier-1
 * builds, so one binary runs everywhere and selects the widest kernel
 * the host supports.  `BPSIM_SIMD=scalar|sse2|avx2|avx512` in the
 * environment overrides auto-detection (the sanitizer CI presets force
 * `scalar` so they stay green on hardware without AVX2); an explicit
 * `SweepOptions::simd` request beats the environment.  Requests wider
 * than the host supports clamp down to the widest available target.
 * A malformed BPSIM_SIMD value is reported two ways: kernels resolve
 * it leniently to Auto (a library deep inside a sweep must not abort),
 * while CLI boundaries call simdEnvStatus() and surface the structured
 * Status before any work starts.
 *
 * AVX2/AVX-512 gathers load 4 bytes at the addressed table byte -- and
 * the AVX-512 replay scatters 4 bytes back -- so every buffer a
 * LaneBatch points at must carry PackedPht::kGatherSlack writable
 * padding bytes past its last addressable byte (PackedPht allocates
 * the slack itself).
 */

#ifndef BPSIM_COMMON_SIMD_HH
#define BPSIM_COMMON_SIMD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"

namespace bpsim {

/** A fused-kernel dispatch target. */
enum class SimdTarget
{
    Auto,   ///< pick the widest target the host supports
    Scalar, ///< reference loop, always available
    SSE2,   ///< 4 lanes per vector
    AVX2,   ///< 8 lanes per vector, hardware gathers
    AVX512, ///< 16 lanes per vector, hardware gathers and scatters
};

/** @return "auto", "scalar", "sse2", "avx2" or "avx512". */
const char *simdTargetName(SimdTarget target);

/**
 * Parse a target name as accepted by BPSIM_SIMD.  Unknown names are a
 * structured error naming the offending value and the accepted set;
 * tests pin the message (tests/test_simd.cc).
 */
Result<SimdTarget> parseSimdTargetName(const std::string &name);

/**
 * Validate the BPSIM_SIMD environment override.  Success when the
 * variable is unset, empty, or a recognised target name; otherwise the
 * same structured error parseSimdTargetName() raises.  CLI boundaries
 * (bench drivers, the sweep service) check this once at startup so a
 * typo'd override fails loudly instead of silently running Auto.
 * Reads the environment on every call so it observes setenv() from
 * tests; resolveSimdTarget() keeps its own first-use cache.
 */
Status simdEnvStatus();

/** @return whether this host can execute @p target (Auto: true). */
bool simdTargetSupported(SimdTarget target);

/** Widest target the host supports (CPUID probe, cached). */
SimdTarget detectSimdTarget();

/**
 * The target a kernel invocation actually runs: an explicit request
 * wins, then the BPSIM_SIMD environment override, then detection.
 * Unsupported requests clamp to the widest supported narrower target,
 * so the result is always executable.  Never returns Auto.
 */
SimdTarget resolveSimdTarget(SimdTarget requested = SimdTarget::Auto);

/** Every concrete target this host supports, narrowest first. */
std::vector<SimdTarget> supportedSimdTargets();

/**
 * One batch of fused-kernel lanes in structure-of-arrays form.  Lane l
 * trains the packed 2-bit counter table at pht[l] (a PackedPht data()
 * pointer -- the table carries PackedPht::kGatherSlack writable bytes
 * of padding for the AVX2/AVX-512 gathers and scatters) with counter
 * index `record & totalMask[l]`; misses[l] accumulates its
 * mispredictions.  Live lanes must point at pairwise-disjoint
 * allocations: the AVX-512 replay kernel read-modify-writes a 4-byte
 * window around each addressed table byte, which is only race- and
 * clobber-free when no two lanes share bytes.
 */
struct LaneBatch
{
    static constexpr unsigned kMaxLanes = 16;
    std::uint32_t totalMask[kMaxLanes] = {};
    std::uint8_t *pht[kMaxLanes] = {};
    std::uint64_t misses[kMaxLanes] = {};
    /** Live lanes (1..kMaxLanes); vector kernels pad the rest. */
    unsigned lanes = 0;
};

/**
 * Replay @p n fused records through every lane of @p batch on
 * @p target.  A record carries the branch outcome in bit 31 and the
 * pre-shifted row|column index in bits 0..30 (see sim/sweep.cc); per
 * record each lane masks out its table index and performs one
 * predict-and-update, accumulating the misprediction into
 * batch.misses.  All targets are bit-identical: identical final table
 * bytes, identical miss counts.  @p target must be concrete
 * (resolveSimdTarget), not Auto.  @p target is a ceiling, not a
 * mandate: an under-occupied batch (fewer live lanes than a vector
 * kernel's break-even width) drops to the next narrower kernel,
 * because vector kernels pay for dead padding lanes.  Batches wider
 * than a kernel's native width are processed in native-width chunks
 * (16 lanes on an AVX2 host run as two 8-wide calls).
 */
void replayLaneBatch(SimdTarget target, const std::uint32_t *records,
                     std::size_t n, LaneBatch &batch);

/**
 * One batch of hashed-perceptron model lanes in structure-of-arrays
 * form, for the batched zoo replay (sim/sweep.cc).  Lane l owns an
 * int8 weight bank at weights[l]: all of its tables concatenated, the
 * weight for (table t, entry e) at byte (t << entryBits) + e.  Banks
 * must be pairwise disjoint and carry PackedPht::kGatherSlack writable
 * padding bytes past the last weight (the AVX2/AVX-512 kernels gather
 * a 4-byte window at each addressed weight; updates are written back
 * as single-byte stores, so the padding is only ever read).  The bank
 * is int8 because the model clamps weights to [kWeightMin, kWeightMax]
 * -- the same constants as PerceptronModel, pinned by a static_assert
 * at the sweep integration point.
 */
struct PerceptronBatch
{
    static constexpr unsigned kMaxLanes = 16;
    static constexpr unsigned kMaxTables = 16;
    static constexpr int kWeightMin = -64;
    static constexpr int kWeightMax = 63;
    /** Live lanes (1..kMaxLanes); vector kernels pad the rest. */
    unsigned lanes = 0;
    /** Weight tables per lane -- shared across the batch (1..16). */
    unsigned tables = 0;
    std::int8_t *weights[kMaxLanes] = {};
    /** Per-lane integer training threshold ((193 * h) / 100 + 14). */
    std::int32_t theta[kMaxLanes] = {};
    /** Per-lane mispredict accumulators. */
    std::uint64_t misses[kMaxLanes] = {};
};

/**
 * Replay @p n branches through every lane of @p batch on @p target.
 * idx[(i * batch.tables + t) * PerceptronBatch::kMaxLanes + l] holds
 * lane l's PRE-OFFSET weight index for branch i and table t -- i.e.
 * (t << entryBits_l) + tableIndex -- so the kernel needs no per-lane
 * geometry: the weight read is weights[l][idx...].  taken[i] is the
 * branch outcome (0/1).  Per branch each lane sums its tables' signed
 * weights, predicts sum >= 0, counts a mispredict into batch.misses,
 * and on a mispredict or |sum| <= theta[l] trains every addressed
 * weight by +/-1 clamped to [kWeightMin, kWeightMax] -- exactly
 * PerceptronModel::step.  All targets are bit-identical: identical
 * final weight banks, identical miss counts (integer sums are
 * order-free and every update is a single-byte store).  @p target must
 * be concrete and is a ceiling as in replayLaneBatch: under-occupied
 * batches drop to the next narrower kernel (same break-evens), and
 * wider batches run in native-width chunks.  @p n must stay below
 * 2^30 (per-call int32 miss accumulators); the sweep engine's block
 * tiles are 4 orders of magnitude smaller.
 */
void replayPerceptronBatch(SimdTarget target, const std::uint32_t *idx,
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
 * form.  Every lane's table lives in one shared arena: lane l's slot
 * s is entries[offset[l] + s], and lanes own pairwise-disjoint slot
 * ranges.  A slot is one uint32 fusing the last writer and the 2-bit
 * counter, tag | counter with tag = (branchId + 1) << 2, so tag 0
 * means "never written"; a fresh slot holds kFreshEntry (untouched,
 * weakly taken).  Per branch each lane indexes slot
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
    static constexpr unsigned kMaxLanes = LaneBatch::kMaxLanes;
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
 * gather, Scalar otherwise.  SSE2 and AVX2 resolve to Scalar: neither
 * has a scatter, and without one the fused entry's read-modify-write
 * stays scalar.
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
 * Occupancy-aware replay: runs aliasBatchKernel(target, batch.lanes).
 * @p target must be concrete (resolveSimdTarget).
 */
void replayAliasBatch(SimdTarget target, const AliasRecords &records,
                      std::size_t n, AliasBatch &batch);

/**
 * Gather one table byte per lane: out[l] = bases[l][byteIdx[l]] for
 * l < lanes (lanes <= LaneBatch::kMaxLanes).  The AVX2/AVX-512
 * variants use hardware gathers over absolute addresses, so each
 * bases[l] buffer must extend PackedPht::kGatherSlack bytes past
 * byteIdx[l].
 */
void gatherLaneBytes(SimdTarget target,
                     const std::uint8_t *const *bases,
                     const std::uint32_t *byteIdx, unsigned lanes,
                     std::uint8_t *out);

/**
 * Scatter one table byte per lane: bases[l][byteIdx[l]] = in[l].
 * Every target issues scalar stores: AVX-512's vpscatterqd moves
 * 4-byte elements, so a byte-granular scatter would need a
 * read-modify-write round trip that costs more than four byte stores
 * (the replay kernel can use the hardware scatter only because it
 * already holds the gathered 4-byte window).  The helper exists so
 * gather/scatter round-trips are pinned per target (tests) and
 * measurable (bench/micro_predictor_ops).
 */
void scatterLaneBytes(SimdTarget target, std::uint8_t *const *bases,
                      const std::uint32_t *byteIdx, unsigned lanes,
                      const std::uint8_t *in);

} // namespace bpsim

#endif // BPSIM_COMMON_SIMD_HH
