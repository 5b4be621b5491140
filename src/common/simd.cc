#include "common/simd.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

#if defined(BPSIM_HAVE_AVX512)
#include <immintrin.h>
#endif

namespace bpsim {

namespace {

// ---------------------------------------------------------------------
// Scalar kernels: the reference semantics every vector variant is held
// to.

/**
 * The aliasing reference kernel, lane-major: each lane walks the whole
 * decoded block against its own slots.  Branchless per branch -- the
 * conflict, harmless and miss tests and the counter step all come from
 * the one fused slot word.  The AVX-512 kernel is held to this loop
 * bit for bit.
 */
void
replayAliasBatchScalar(const AliasRecords &rec, std::size_t n,
                       AliasBatch &batch)
{
    for (unsigned l = 0; l < batch.lanes; ++l) {
        std::uint32_t *slots = batch.entries + batch.offset[l];
        const std::uint32_t row_mask = batch.rowMask[l];
        const std::uint32_t col_mask = batch.colMask[l];
        const std::uint32_t col_bits = batch.colBits[l];
        const std::uint32_t harmless_ones = batch.harmlessOnes[l];
        std::uint64_t misses = 0;
        std::uint64_t conflicts = 0;
        std::uint64_t harmless = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t idx =
                ((rec.row[i] & row_mask) << col_bits) |
                (rec.col[i] & col_mask);
            const std::uint32_t entry = slots[idx];
            const std::uint32_t tag = rec.tag[i];
            const std::uint32_t flags = rec.flags[i];
            const std::uint32_t taken = flags >> 7;
            const std::uint32_t counter = entry & 3u;
            const std::uint32_t conflict =
                static_cast<std::uint32_t>(entry >= 4u) &
                static_cast<std::uint32_t>((entry & ~3u) != tag);
            conflicts += conflict;
            harmless += conflict &
                        static_cast<std::uint32_t>((flags & 0x7Fu) >=
                                                   harmless_ones);
            misses += (counter >> 1) ^ taken;
            const std::uint32_t next =
                counter +
                (taken & static_cast<std::uint32_t>(counter != 3u)) -
                ((taken ^ 1u) & static_cast<std::uint32_t>(counter != 0u));
            slots[idx] = tag | next;
        }
        batch.misses[l] += misses;
        batch.conflicts[l] += conflicts;
        batch.harmless[l] += harmless;
    }
}

/**
 * The perceptron reference kernel: the semantics of
 * PerceptronModel::step over a pre-hashed index stream, one lane at a
 * time.  Every vector variant below is held to this loop bit for bit.
 */
void
replayPerceptronBatchScalar(const std::uint32_t *idx,
                            const std::uint8_t *taken, std::size_t n,
                            PerceptronBatch &batch)
{
    const unsigned tables = batch.tables;
    const std::size_t stride =
        static_cast<std::size_t>(tables) * PerceptronBatch::kMaxLanes;
    std::int8_t *const arena = batch.weights;
    for (unsigned l = 0; l < batch.lanes; ++l) {
        const int theta = batch.theta[l];
        std::uint64_t misses = 0;
        const std::uint32_t *row = idx + l;
        for (std::size_t i = 0; i < n; ++i, row += stride) {
            int sum = 0;
            for (unsigned t = 0; t < tables; ++t)
                sum += arena[row[t * PerceptronBatch::kMaxLanes]];
            const bool pred = sum >= 0;
            const bool tk = taken[i] != 0;
            misses += pred != tk;
            const int magnitude = sum < 0 ? -sum : sum;
            if (pred != tk || magnitude <= theta) {
                const int delta = tk ? 1 : -1;
                for (unsigned t = 0; t < tables; ++t) {
                    std::int8_t &w =
                        arena[row[t * PerceptronBatch::kMaxLanes]];
                    int next = w + delta;
                    if (next > PerceptronBatch::kWeightMax)
                        next = PerceptronBatch::kWeightMax;
                    if (next < PerceptronBatch::kWeightMin)
                        next = PerceptronBatch::kWeightMin;
                    w = static_cast<std::int8_t>(next);
                }
            }
        }
        batch.misses[l] += misses;
    }
}

/**
 * The reference key builder: one live lane at a time, each (table,
 * lane) folding only its own steps (a finished lane's shift 64 would
 * be undefined here), so its cost scales with the live lanes.  The
 * AVX-512 builder is held to this loop bit for bit.
 */
void
buildLaneKeysScalar(const LaneKeyPlan &plan, const std::uint64_t *widx,
                    const std::uint64_t *gh, const std::uint32_t *pcFold,
                    std::size_t n, std::uint32_t *keys)
{
    constexpr unsigned kLanes = LaneKeyPlan::kMaxLanes;
    const auto tables = static_cast<unsigned>(plan.tables.size());
    const std::size_t stride = std::size_t{tables} * kLanes;
    const LaneKeyPlan::Table &raw = plan.tables[0];
    for (unsigned l = 0; l < plan.lanes; ++l) {
        const std::uint32_t entry_mask = raw.entryMask[l];
        const std::uint32_t offset = raw.offset[l];
        for (std::size_t i = 0; i < n; ++i)
            keys[i * stride + l] =
                (static_cast<std::uint32_t>(widx[i]) & entry_mask) + offset;
    }
    for (unsigned t = 1; t < tables; ++t) {
        const LaneKeyPlan::Table &p = plan.tables[t];
        for (unsigned l = 0; l < plan.lanes; ++l) {
            unsigned steps = 0;
            while (steps < plan.steps && p.shift[steps][l] < 64)
                ++steps;
            const std::uint64_t start = p.start[l];
            const std::uint64_t seg_mask = p.segMask[l];
            const std::uint32_t entry_mask = p.entryMask[l];
            const std::uint32_t offset = p.offset[l];
            std::uint32_t *out = keys + t * kLanes + l;
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t v = (gh[i] >> start) & seg_mask;
                for (unsigned s = 0; s < steps; ++s)
                    v = (v & p.low[s][l]) ^ (v >> p.shift[s][l]);
                out[i * stride] = ((static_cast<std::uint32_t>(v) ^
                                    pcFold[i * kLanes + l]) &
                                   entry_mask) +
                                  offset;
            }
        }
    }
}

/** Tagged-slot bits a tag match compares: the valid bit and the tag. */
constexpr std::uint32_t kTageMatchMask =
    (0xFFFFu << TageBatch::kTagShift) | TageBatch::kValid;

/** The matched bits of a valid tagged slot holding @p tag. */
constexpr std::uint32_t
tageTagWord(std::uint16_t tag)
{
    return (std::uint32_t{tag} << TageBatch::kTagShift) |
           TageBatch::kValid;
}

/**
 * The TAGE reference kernel, lane-major: each lane walks the span's
 * keys against its own slots, step for step as TageModel::step.  The
 * AVX-512 kernel is held to this loop bit for bit.
 */
void
replayTageBatchScalar(const TageKeys &keys, std::size_t n,
                      TageBatch &batch)
{
    constexpr unsigned kLanes = TageBatch::kMaxLanes;
    const int ncomp = static_cast<int>(batch.components);
    const std::size_t stride =
        static_cast<std::size_t>(ncomp + 1) * kLanes;
    std::uint32_t *const arena = batch.entries;
    for (unsigned l = 0; l < batch.lanes; ++l) {
        std::uint64_t misses = 0;
        const std::uint32_t *row = keys.slot + l;
        for (std::size_t i = 0; i < n; ++i, row += stride) {
            const std::uint16_t *tag = keys.tag + i * batch.components;
            const std::uint32_t taken = keys.taken[i];
            const auto entry = [&](int c) -> std::uint32_t & {
                return arena[row[(c + 1) * kLanes]];
            };

            // Provider = longest-history match; altpred = next match
            // below it; either falls back to the base counter.
            int provider = -1;
            int alt = -1;
            for (int c = ncomp - 1; c >= 0; --c) {
                if ((entry(c) & kTageMatchMask) != tageTagWord(tag[c]))
                    continue;
                if (provider < 0) {
                    provider = c;
                } else {
                    alt = c;
                    break;
                }
            }
            std::uint32_t &base = arena[row[0]];
            const auto says_taken = [&](int c) {
                return c < 0 ? base >> 1 : (entry(c) >> 2) & 1u;
            };
            const std::uint32_t pred = says_taken(provider);
            const std::uint32_t alt_pred = says_taken(alt);
            const bool correct = pred == taken;
            misses += !correct;

            // The provider's useful counter tracks whether it beats
            // its altpred; the provider (only) trains.
            if (provider >= 0) {
                std::uint32_t &e = entry(provider);
                std::uint32_t useful =
                    (e & TageBatch::kUsefulMask) >> TageBatch::kUsefulShift;
                if (pred != alt_pred)
                    useful = correct ? useful + (useful < 3)
                                     : useful - (useful > 0);
                std::uint32_t ctr = e & TageBatch::kCounterMask;
                ctr = taken ? ctr + (ctr < 7) : ctr - (ctr > 0);
                e = (e & ~(TageBatch::kCounterMask |
                           TageBatch::kUsefulMask)) |
                    (useful << TageBatch::kUsefulShift) | ctr;
            } else {
                base = taken ? base + (base < 3) : base - (base > 0);
            }

            // On a mispredict, allocate the first not-useful entry
            // above the provider, weakly toward the outcome; if every
            // candidate is useful, age them all.
            if (!correct && provider + 1 < ncomp) {
                int victim = -1;
                for (int c = provider + 1; c < ncomp; ++c) {
                    const std::uint32_t e = entry(c);
                    if ((e & TageBatch::kValid) == 0 ||
                        (e & TageBatch::kUsefulMask) == 0) {
                        victim = c;
                        break;
                    }
                }
                if (victim >= 0) {
                    entry(victim) = tageTagWord(tag[victim]) | (3 + taken);
                } else {
                    for (int c = provider + 1; c < ncomp; ++c) {
                        std::uint32_t &e = entry(c);
                        if ((e & TageBatch::kUsefulMask) != 0)
                            e -= 1u << TageBatch::kUsefulShift;
                    }
                }
            }
        }
        batch.misses[l] += misses;
    }
}

#if defined(BPSIM_HAVE_AVX512)

// ---------------------------------------------------------------------
// AVX-512: 16 lanes per 512-bit vector.  Only avx512f intrinsics are
// used, so one CPUID feature gates execution and one probe gates
// compilation.  Where GCC's unmasked form of an intrinsic merges into
// an undefined source (and so trips -Wmaybe-uninitialized), the
// kernels use its zero-masked form instead.

/**
 * The 16-lane perceptron kernel.  Per table one masked vpgatherdd
 * (scale 1, base the int8 arena; the table pad is the window's slack)
 * reads each live lane's weight as the low byte of a 4-byte window.
 * Updates CANNOT use vpscatterdd: its 4-byte window would clobber
 * three neighbouring int8 weights -- including, when two of a lane's
 * own table indices land within 4 bytes of each other, a weight this
 * very branch just trained.  Stores stay scalar per byte, one per live
 * lane and table; everything else is vector, with the train decision
 * carried in mask registers.  Dead lanes neither gather nor store.
 */
__attribute__((target("avx512f"))) void
replayPerceptronBatchAvx512(const std::uint32_t *idx,
                            const std::uint8_t *taken, std::size_t n,
                            PerceptronBatch &batch)
{
    static_assert(LaneBatchLayout::kPadBytes >= sizeof(int) - 1,
                  "the table pad must cover the 4-byte gather window");
    constexpr unsigned kLanes = PerceptronBatch::kMaxLanes;
    const unsigned lanes = batch.lanes;
    const unsigned tables = batch.tables;
    std::int8_t *const arena = batch.weights;
    const __mmask16 live = static_cast<__mmask16>((1u << lanes) - 1u);
    const __m512i theta = _mm512_loadu_si512(batch.theta);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i over =
        _mm512_set1_epi32(PerceptronBatch::kWeightMax + 1);
    const __m512i under =
        _mm512_set1_epi32(PerceptronBatch::kWeightMin - 1);

    alignas(64) std::int32_t wa[PerceptronBatch::kMaxTables][kLanes];
    alignas(64) std::int32_t nb[kLanes];

    const std::size_t stride = static_cast<std::size_t>(tables) * kLanes;
    __m512i acc = zero;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t *row = idx + i * stride;
        __m512i sum = zero;
        for (unsigned t = 0; t < tables; ++t) {
            const __m512i g = _mm512_mask_i32gather_epi32(
                zero, live, _mm512_loadu_si512(row + t * kLanes), arena,
                1);
            // Sign-extend the gathered low byte: << 24 then >> 24.
            const __m512i w = _mm512_maskz_srai_epi32(
                live, _mm512_maskz_slli_epi32(live, g, 24), 24);
            _mm512_store_si512(wa[t], w);
            sum = _mm512_add_epi32(sum, w);
        }
        const std::uint32_t tk = taken[i] & 1u;
        const __m512i miss01 = _mm512_xor_si512(
            _mm512_maskz_srli_epi32(live, sum, 31),
            _mm512_set1_epi32(static_cast<int>(tk ^ 1u)));
        acc = _mm512_add_epi32(acc, miss01);
        const __mmask16 missk =
            _mm512_test_epi32_mask(miss01, miss01);
        const __mmask16 lowk = _mm512_cmple_epi32_mask(
            _mm512_maskz_abs_epi32(live, sum), theta);
        const __mmask16 traink = (missk | lowk) & live;
        if (traink == 0)
            continue;
        const __m512i delta = _mm512_maskz_mov_epi32(
            traink, _mm512_set1_epi32(tk ? 1 : -1));
        for (unsigned t = 0; t < tables; ++t) {
            __m512i next = _mm512_add_epi32(
                _mm512_load_si512(wa[t]), delta);
            next = _mm512_mask_sub_epi32(
                next, _mm512_cmpeq_epi32_mask(next, over), next,
                _mm512_set1_epi32(1));
            next = _mm512_mask_add_epi32(
                next, _mm512_cmpeq_epi32_mask(next, under), next,
                _mm512_set1_epi32(1));
            _mm512_store_si512(nb, next);
            const std::uint32_t *ix = row + t * kLanes;
#pragma GCC unroll 16
            for (unsigned l = 0; l < lanes; ++l)
                arena[ix[l]] = static_cast<std::int8_t>(nb[l]);
        }
    }
    alignas(64) std::uint32_t out[kLanes];
    _mm512_store_si512(out, acc);
    for (unsigned l = 0; l < lanes; ++l)
        batch.misses[l] += out[l];
}

/**
 * The 16-lane aliasing kernel.  Per branch: the lanes' slot offsets
 * come from per-lane masks and variable shifts over the broadcast row
 * and column; one masked vpgatherdd reads every live lane's fused
 * slot word; compare masks give conflict, harmless and miss; a
 * clamped add steps the counter; one masked vpscatterdd writes
 * tag | counter back.  Lanes own disjoint slots, so the scatter never
 * collides within a branch, and x86 orders each branch's gather after
 * the previous branch's scatter.  Counts accumulate in 32-bit vectors
 * flushed every 2^30 branches.
 */
__attribute__((target("avx512f"))) void
replayAliasBatchAvx512(const AliasRecords &rec, std::size_t n,
                       AliasBatch &batch)
{
    const __mmask16 live =
        static_cast<__mmask16>((1u << batch.lanes) - 1u);
    // Zero-masking under every lane folds to the unmasked instruction.
    constexpr __mmask16 all = 0xFFFF;
    const __m512i offset = _mm512_loadu_si512(batch.offset);
    const __m512i row_mask = _mm512_loadu_si512(batch.rowMask);
    const __m512i col_mask = _mm512_loadu_si512(batch.colMask);
    const __m512i col_bits = _mm512_loadu_si512(batch.colBits);
    const __m512i harmless_ones = _mm512_loadu_si512(batch.harmlessOnes);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i three = _mm512_set1_epi32(3);
    const __m512i not_three = _mm512_set1_epi32(~3);
    int *const entries = reinterpret_cast<int *>(batch.entries);

    alignas(64) std::uint32_t out[16];
    std::size_t done = 0;
    while (done < n) {
        const std::size_t stop =
            done + std::min<std::size_t>(n - done,
                                         std::size_t{1} << 30);
        __m512i acc_miss = zero;
        __m512i acc_conflict = zero;
        __m512i acc_harmless = zero;
        for (std::size_t i = done; i < stop; ++i) {
            const __m512i row = _mm512_set1_epi32(
                static_cast<int>(rec.row[i]));
            const __m512i col = _mm512_set1_epi32(
                static_cast<int>(rec.col[i]));
            const __m512i tag = _mm512_set1_epi32(
                static_cast<int>(rec.tag[i]));
            const std::uint32_t flags = rec.flags[i];
            const auto taken = static_cast<int>(flags >> 7);

            const __m512i slot = _mm512_add_epi32(
                offset,
                _mm512_or_si512(
                    _mm512_maskz_sllv_epi32(
                        all, _mm512_and_si512(row, row_mask), col_bits),
                    _mm512_and_si512(col, col_mask)));
            const __m512i entry = _mm512_mask_i32gather_epi32(
                zero, live, slot, entries, 4);

            // Conflict: a last writer exists (tag != 0) and differs.
            const __mmask16 conflict = _mm512_mask_cmpneq_epi32_mask(
                _mm512_mask_cmpge_epu32_mask(live, entry,
                                             _mm512_set1_epi32(4)),
                _mm512_and_si512(entry, not_three), tag);
            const __mmask16 harmless = _mm512_mask_cmple_epu32_mask(
                conflict, harmless_ones,
                _mm512_set1_epi32(static_cast<int>(flags & 0x7Fu)));
            const __m512i counter = _mm512_and_si512(entry, three);
            const __mmask16 miss = _mm512_mask_cmpneq_epi32_mask(
                live, _mm512_maskz_srli_epi32(all, counter, 1),
                _mm512_set1_epi32(taken));
            // Saturating step: +1 toward taken, -1 toward not-taken.
            const __m512i next = _mm512_maskz_min_epi32(
                all,
                _mm512_maskz_max_epi32(
                    all,
                    _mm512_add_epi32(counter,
                                     _mm512_set1_epi32(2 * taken - 1)),
                    zero),
                three);
            _mm512_mask_i32scatter_epi32(entries, live, slot,
                                         _mm512_or_si512(tag, next), 4);

            acc_miss = _mm512_mask_add_epi32(acc_miss, miss, acc_miss, one);
            acc_conflict = _mm512_mask_add_epi32(acc_conflict, conflict,
                                                 acc_conflict, one);
            acc_harmless = _mm512_mask_add_epi32(acc_harmless, harmless,
                                                 acc_harmless, one);
        }
        _mm512_store_si512(out, acc_miss);
        for (unsigned l = 0; l < batch.lanes; ++l)
            batch.misses[l] += out[l];
        _mm512_store_si512(out, acc_conflict);
        for (unsigned l = 0; l < batch.lanes; ++l)
            batch.conflicts[l] += out[l];
        _mm512_store_si512(out, acc_harmless);
        for (unsigned l = 0; l < batch.lanes; ++l)
            batch.harmless[l] += out[l];
        done = stop;
    }
}

/**
 * The 16-lane TAGE kernel for @p NC tagged components (unrolled, so
 * the component vectors and masks stay in registers).  Per branch: one
 * masked gather per component and one for the base; a tag compare
 * per component gives its match mask; a scan of the masks from the
 * longest history down yields each lane's provider and altpred and
 * the "above the provider" masks; running-OR candidate masks pick
 * each mispredicting lane's first not-useful entry above its provider.
 * Writes go out in at most two masked scatters: the trained provider
 * entry or base counter (one slot per lane), then the allocated
 * victims; only the rare age-them-all path scatters per component.
 * The slots a lane writes lie in different tables, lanes own disjoint
 * slots, so no scatter collides, and x86 orders each branch's gathers
 * after the previous branch's scatters.
 */
template <unsigned NC>
__attribute__((target("avx512f"))) void
tageLanes16Avx512(const TageKeys &keys, std::size_t n, TageBatch &batch)
{
    constexpr std::size_t kStride = (NC + 1) * TageBatch::kMaxLanes;
    const __mmask16 live =
        static_cast<__mmask16>((1u << batch.lanes) - 1u);
    int *const arena = reinterpret_cast<int *>(batch.entries);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i three = _mm512_set1_epi32(3);
    const __m512i seven = _mm512_set1_epi32(TageBatch::kCounterMask);
    const __m512i match = _mm512_set1_epi32(kTageMatchMask);
    const __m512i ctr_taken = _mm512_set1_epi32(4);
    const __m512i base_taken = _mm512_set1_epi32(2);
    const __m512i valid = _mm512_set1_epi32(TageBatch::kValid);
    const __m512i useful_mask = _mm512_set1_epi32(TageBatch::kUsefulMask);
    const __m512i useful_one =
        _mm512_set1_epi32(1 << TageBatch::kUsefulShift);

    __m512i acc = zero;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t *row = keys.slot + i * kStride;
        const std::uint16_t *tag = keys.tag + i * NC;
        const bool tk = keys.taken[i] != 0;
        const __mmask16 taken_k = tk ? live : 0;

        const __m512i bslot = _mm512_loadu_si512(row);
        const __m512i b =
            _mm512_mask_i32gather_epi32(zero, live, bslot, arena, 4);
        __m512i slot[NC];
        __m512i e[NC];
        __mmask16 hit_at[NC];
#pragma GCC unroll 8
        for (unsigned c = 0; c < NC; ++c) {
            slot[c] = _mm512_loadu_si512(row + (c + 1) *
                                                   TageBatch::kMaxLanes);
            e[c] = _mm512_mask_i32gather_epi32(zero, live, slot[c],
                                               arena, 4);
            hit_at[c] = _mm512_mask_cmpeq_epi32_mask(
                live, _mm512_and_si512(e[c], match),
                _mm512_set1_epi32(static_cast<int>(tageTagWord(tag[c]))));
        }

        // Scan from the longest history down: the first hit is the
        // provider, the second the altpred; components scanned before
        // any hit lie above the provider.  The provider's slot and
        // entry are blended over the base's as the scan goes.
        __mmask16 hit = 0;
        __mmask16 has_alt = 0;
        __mmask16 pred = 0;
        __mmask16 alt_pred = 0;
        __mmask16 above[NC];
        __m512i pslot = bslot;
        __m512i pentry = zero;
#pragma GCC unroll 8
        for (unsigned k = 0; k < NC; ++k) {
            const unsigned c = NC - 1 - k;
            const __mmask16 says =
                _mm512_test_epi32_mask(e[c], ctr_taken);
            const __mmask16 prov = hit_at[c] & ~hit;
            const __mmask16 alt = hit_at[c] & hit & ~has_alt;
            pred |= prov & says;
            alt_pred |= alt & says;
            has_alt |= alt;
            hit |= hit_at[c];
            above[c] = live & ~hit;
            pslot = _mm512_mask_mov_epi32(pslot, prov, slot[c]);
            pentry = _mm512_mask_mov_epi32(pentry, prov, e[c]);
        }
        const __mmask16 base_says =
            _mm512_mask_test_epi32_mask(live, b, base_taken);
        pred |= base_says & ~hit;
        alt_pred |= base_says & ~has_alt;
        const __mmask16 miss = (pred ^ taken_k) & live;
        acc = _mm512_mask_add_epi32(acc, miss, acc, one);

        // Train: the provider's counter steps toward the outcome
        // unless saturated, and its useful counter moves where it
        // disagreed with the altpred (up when right, down when wrong);
        // lanes without a provider step the base counter.  Every step
        // is a masked add or subtract on the whole slot word.
        const __mmask16 moved = hit & (pred ^ alt_pred);
        const __m512i ctr = _mm512_and_si512(pentry, seven);
        const __m512i useful = _mm512_and_si512(pentry, useful_mask);
        const __mmask16 ctr_up =
            tk ? _mm512_cmpneq_epi32_mask(ctr, seven) : 0;
        const __mmask16 ctr_down =
            tk ? 0 : _mm512_test_epi32_mask(ctr, ctr);
        __m512i trained =
            _mm512_mask_add_epi32(pentry, ctr_up, pentry, one);
        trained = _mm512_mask_sub_epi32(trained, ctr_down, trained, one);
        trained = _mm512_mask_add_epi32(
            trained,
            moved & ~miss & _mm512_cmpneq_epi32_mask(useful, useful_mask),
            trained, useful_one);
        trained = _mm512_mask_sub_epi32(
            trained, moved & miss & _mm512_test_epi32_mask(useful, useful),
            trained, useful_one);
        const __mmask16 base_up =
            tk ? _mm512_cmpneq_epi32_mask(b, three) : 0;
        const __mmask16 base_down = tk ? 0 : _mm512_test_epi32_mask(b, b);
        __m512i base = _mm512_mask_add_epi32(b, base_up, b, one);
        base = _mm512_mask_sub_epi32(base, base_down, base, one);
        trained = _mm512_mask_mov_epi32(base, hit, trained);
        _mm512_mask_i32scatter_epi32(arena, live, pslot, trained, 4);

        // Allocate on a mispredict: the first free (invalid or not
        // useful) entry above the provider, weakly toward the outcome.
        __mmask16 chosen = 0;
        __m512i vslot = zero;
        __m512i ventry = zero;
#pragma GCC unroll 8
        for (unsigned c = 0; c < NC; ++c) {
            const __mmask16 free_k =
                _mm512_testn_epi32_mask(e[c], valid) |
                _mm512_testn_epi32_mask(e[c], useful_mask);
            const __mmask16 victim = miss & above[c] & free_k & ~chosen;
            chosen |= victim;
            vslot = _mm512_mask_mov_epi32(vslot, victim, slot[c]);
            ventry = _mm512_mask_mov_epi32(
                ventry, victim,
                _mm512_set1_epi32(static_cast<int>(
                    tageTagWord(tag[c]) | (tk ? 4u : 3u))));
        }
        if (chosen != 0)
            _mm512_mask_i32scatter_epi32(arena, chosen, vslot, ventry, 4);

        // Mispredicting lanes with no free entry age every one above.
        const __mmask16 age = miss & ~chosen;
        if (age == 0)
            continue;
#pragma GCC unroll 8
        for (unsigned c = 0; c < NC; ++c) {
            const __mmask16 aged =
                age & above[c] & _mm512_test_epi32_mask(e[c], useful_mask);
            if (aged != 0)
                _mm512_mask_i32scatter_epi32(
                    arena, aged, slot[c],
                    _mm512_sub_epi32(e[c], useful_one), 4);
        }
    }
    alignas(64) std::uint32_t out[16];
    _mm512_store_si512(out, acc);
    for (unsigned l = 0; l < batch.lanes; ++l)
        batch.misses[l] += out[l];
}

void
replayTageBatchAvx512(const TageKeys &keys, std::size_t n,
                      TageBatch &batch)
{
    switch (batch.components) {
      case 1: tageLanes16Avx512<1>(keys, n, batch); break;
      case 2: tageLanes16Avx512<2>(keys, n, batch); break;
      case 3: tageLanes16Avx512<3>(keys, n, batch); break;
      case 4: tageLanes16Avx512<4>(keys, n, batch); break;
      case 5: tageLanes16Avx512<5>(keys, n, batch); break;
      case 6: tageLanes16Avx512<6>(keys, n, batch); break;
      case 7: tageLanes16Avx512<7>(keys, n, batch); break;
      default: tageLanes16Avx512<8>(keys, n, batch); break;
    }
}

/**
 * The 16-lane key builder: table 0 of every branch, the raw word index
 * masked and offset per lane in one row.
 */
__attribute__((target("avx512f"))) void
rawKeysAvx512(const LaneKeyPlan &plan, const std::uint64_t *widx,
              std::size_t n, std::uint32_t *keys)
{
    const std::size_t stride =
        plan.tables.size() * std::size_t{LaneKeyPlan::kMaxLanes};
    const LaneKeyPlan::Table &raw = plan.tables[0];
    const __m512i entry_mask = _mm512_loadu_si512(raw.entryMask);
    const __m512i offset = _mm512_loadu_si512(raw.offset);
    for (std::size_t i = 0; i < n; ++i)
        _mm512_storeu_si512(
            keys + i * stride,
            _mm512_add_epi32(
                _mm512_and_si512(
                    _mm512_set1_epi32(static_cast<int>(widx[i])),
                    entry_mask),
                offset));
}

/** The 16 uint64 lanes at @p v narrowed to one vector of uint32. */
__attribute__((target("avx512f"))) inline __m512i
narrowLanes(const std::uint64_t *v)
{
    constexpr __mmask8 all = 0xFF;
    return _mm512_maskz_inserti64x4(
        all,
        _mm512_castsi256_si512(
            _mm512_maskz_cvtepi64_epi32(all, _mm512_loadu_si512(v))),
        _mm512_maskz_cvtepi64_epi32(all, _mm512_loadu_si512(v + 8)), 1);
}

/**
 * The 16-lane key builder: the folded tables for @p S fold steps
 * (unrolled, so a table's plan vectors stay in registers across the
 * branches) of a plan whose every segment lies in history bits 0..31
 * (LaneKeyPlan::fits32), so the whole fold runs on one vector of
 * 32-bit lanes.  The plan narrows losslessly: its segments, masks and
 * live shifts fit 32 bits, and a finished lane's shift 64 still
 * shifts a 32-bit lane to 0.  Per branch and table: the broadcast
 * history shifted and masked per lane, S tree-fold steps, the lanes'
 * pc folds XORed on, masked, offset, and one 64-byte row stored.
 * Dead lanes have zero plans, so they store key 0.
 */
template <unsigned S>
__attribute__((target("avx512f"))) void
foldKeysAvx512(const LaneKeyPlan &plan, const std::uint64_t *gh,
               const std::uint32_t *pcFold, std::size_t n,
               std::uint32_t *keys)
{
    constexpr unsigned kLanes = LaneKeyPlan::kMaxLanes;
    constexpr __mmask16 all = 0xFFFF;
    const auto tables = static_cast<unsigned>(plan.tables.size());
    const std::size_t stride = std::size_t{tables} * kLanes;
    for (unsigned t = 1; t < tables; ++t) {
        const LaneKeyPlan::Table &p = plan.tables[t];
        const __m512i start = narrowLanes(p.start);
        const __m512i seg = narrowLanes(p.segMask);
        __m512i low[S + 1], shift[S + 1];
#pragma GCC unroll 6
        for (unsigned s = 0; s < S; ++s) {
            low[s] = narrowLanes(p.low[s]);
            shift[s] = narrowLanes(p.shift[s]);
        }
        const __m512i entry_mask = _mm512_loadu_si512(p.entryMask);
        const __m512i offset = _mm512_loadu_si512(p.offset);
        std::uint32_t *out = keys + t * kLanes;
        for (std::size_t i = 0; i < n; ++i) {
            __m512i v = _mm512_and_si512(
                _mm512_maskz_srlv_epi32(
                    all, _mm512_set1_epi32(static_cast<int>(gh[i])), start),
                seg);
#pragma GCC unroll 6
            for (unsigned s = 0; s < S; ++s)
                v = _mm512_xor_si512(
                    _mm512_and_si512(v, low[s]),
                    _mm512_maskz_srlv_epi32(all, v, shift[s]));
            _mm512_storeu_si512(
                out + i * stride,
                _mm512_add_epi32(
                    _mm512_and_si512(
                        _mm512_xor_si512(
                            v, _mm512_loadu_si512(pcFold + i * kLanes)),
                        entry_mask),
                    offset));
        }
    }
}

void
buildLaneKeysAvx512(const LaneKeyPlan &plan, const std::uint64_t *widx,
                    const std::uint64_t *gh, const std::uint32_t *pcFold,
                    std::size_t n, std::uint32_t *keys)
{
    using FoldKeys = void (*)(const LaneKeyPlan &, const std::uint64_t *,
                              const std::uint32_t *, std::size_t,
                              std::uint32_t *);
    static constexpr FoldKeys kFold[LaneKeyPlan::kMaxSteps + 1] = {
        foldKeysAvx512<0>, foldKeysAvx512<1>, foldKeysAvx512<2>,
        foldKeysAvx512<3>, foldKeysAvx512<4>, foldKeysAvx512<5>,
        foldKeysAvx512<6>};
    rawKeysAvx512(plan, widx, n, keys);
    kFold[plan.steps](plan, gh, pcFold, n, keys);
}

#endif // BPSIM_HAVE_AVX512

/**
 * Every engine's occupancy-aware dispatch: under the concrete @p target,
 * AVX512 from @p min_lanes live lanes (the engine's break-even in its
 * bench/micro_predictor_ops ledger rows), Scalar below.
 */
SimdTarget
occupancyKernel(SimdTarget target, unsigned lanes, unsigned min_lanes)
{
    bpsim_assert(target != SimdTarget::Auto,
                 "lane kernel dispatch needs a resolved target");
#if defined(BPSIM_HAVE_AVX512)
    if (target == SimdTarget::AVX512 && lanes >= min_lanes)
        return SimdTarget::AVX512;
#else
    (void)lanes;
    (void)min_lanes;
#endif
    return SimdTarget::Scalar;
}

} // namespace

const char *
simdTargetName(SimdTarget target)
{
    switch (target) {
      case SimdTarget::Auto: return "auto";
      case SimdTarget::Scalar: return "scalar";
      case SimdTarget::AVX512: return "avx512";
    }
    return "?";
}

bool
simdTargetSupported(SimdTarget target)
{
    switch (target) {
      case SimdTarget::Auto:
      case SimdTarget::Scalar:
        return true;
      case SimdTarget::AVX512:
#if defined(BPSIM_HAVE_AVX512)
        return __builtin_cpu_supports("avx512f") != 0;
#else
        // The toolchain could not compile the kernels (or the host is
        // not x86): report unsupported, so dispatch clamps to Scalar.
        return false;
#endif
    }
    return false;
}

SimdTarget
resolveSimdTarget(SimdTarget requested)
{
    static const SimdTarget host = [] {
#if defined(BPSIM_HAVE_AVX512)
        __builtin_cpu_init();
#endif
        return simdTargetSupported(SimdTarget::AVX512) ? SimdTarget::AVX512
                                                       : SimdTarget::Scalar;
    }();
    if (requested == SimdTarget::Auto)
        return host;
    return simdTargetSupported(requested) ? requested : SimdTarget::Scalar;
}

std::vector<SimdTarget>
supportedSimdTargets()
{
    std::vector<SimdTarget> targets{SimdTarget::Scalar};
    if (simdTargetSupported(SimdTarget::AVX512))
        targets.push_back(SimdTarget::AVX512);
    return targets;
}

std::vector<LaneBatchLayout>
packLaneBatches(const std::vector<std::size_t> &entries, unsigned tables,
                std::size_t elementBytes)
{
    using Layout = LaneBatchLayout;
    bpsim_assert(tables >= 1 && entries.size() % tables == 0 &&
                     elementBytes >= 1 &&
                     Layout::kPadBytes % elementBytes == 0,
                 "lane batch packing of ", entries.size(), " tables at ",
                 tables, " per lane, ", elementBytes, "-byte elements");
    const std::size_t pad = Layout::kPadBytes / elementBytes;
    std::vector<Layout> batches;
    for (std::size_t j = 0; j < entries.size() / tables; ++j) {
        const std::size_t *sizes = entries.data() + j * tables;
        std::size_t lane_elements = 0;
        for (unsigned t = 0; t < tables; ++t)
            lane_elements += sizes[t] + pad;
        bpsim_assert(lane_elements <= Layout::kMaxElements, "lane ", j,
                     " needs ", lane_elements,
                     " arena elements, past the 2^31 - 1 cap");
        if (batches.empty() || batches.back().lanes == Layout::kMaxLanes ||
            batches.back().elements + lane_elements > Layout::kMaxElements)
            batches.push_back(Layout{j, 0, tables, 0, {}});
        Layout &batch = batches.back();
        ++batch.lanes;
        for (unsigned t = 0; t < tables; ++t) {
            batch.offset.push_back(
                static_cast<std::uint32_t>(batch.elements));
            batch.elements += sizes[t] + pad;
        }
    }
    return batches;
}

LaneKeyPlan::LaneKeyPlan(unsigned tables) : tables(tables)
{
    bpsim_assert(tables >= 1 && tables <= kMaxTables, "lane key plan of ",
                 tables, " tables");
}

void
LaneKeyPlan::setRaw(unsigned lane, unsigned entryBits, std::uint32_t offset)
{
    bpsim_assert(lane < kMaxLanes, "lane key plan lane ", lane);
    tables[0].entryMask[lane] = static_cast<std::uint32_t>(mask(entryBits));
    tables[0].offset[lane] = offset;
    lanes = std::max(lanes, lane + 1);
}

void
LaneKeyPlan::setFold(unsigned table, unsigned lane, unsigned start,
                     unsigned bits, unsigned entryBits, std::uint32_t offset)
{
    bpsim_assert(table >= 1 && table < tables.size() && lane < kMaxLanes &&
                     start + bits <= 64 &&
                     (table == 1 || pcBits[lane] == entryBits),
                 "lane key plan fold (", table, ", ", lane, ", ", start,
                 ", ", bits, ", ", entryBits, ")");
    pcBits[lane] = entryBits;
    Table &p = tables[table];
    p.start[lane] = bits == 0 ? 0 : start; // keep shifts below 64
    p.segMask[lane] = mask(bits);
    p.entryMask[lane] = static_cast<std::uint32_t>(mask(entryBits));
    p.offset[lane] = offset;
    // Halve the chunk count per step until one chunk is left (an
    // entry width of 0 masks the key to 0 whatever the fold).
    unsigned chunks = entryBits == 0 ? 1 : (bits + entryBits - 1) / entryBits;
    unsigned s = 0;
    for (; chunks > 1; ++s) {
        chunks = (chunks + 1) / 2;
        const unsigned shift = chunks * entryBits;
        p.low[s][lane] = mask(shift);
        p.shift[s][lane] = shift;
    }
    steps = std::max(steps, s);
    fits32 = fits32 && p.start[lane] + bits <= 32;
    for (; s < kMaxSteps; ++s) {
        p.low[s][lane] = ~std::uint64_t{0};
        p.shift[s][lane] = 64;
    }
}

SimdTarget
laneKeysKernel(SimdTarget target, const LaneKeyPlan &plan)
{
    // The AVX-512 builder costs the same per branch however many lanes
    // are live, the scalar one scales with them, and the AVX-512 one
    // wins from kLaneKeysAvx512MinLanes (the laneKeys rows).
    constexpr unsigned kLaneKeysAvx512MinLanes = 2;
    const SimdTarget kernel =
        occupancyKernel(target, plan.lanes, kLaneKeysAvx512MinLanes);
    return plan.fits32 ? kernel : SimdTarget::Scalar;
}

void
buildLaneKeysOn(SimdTarget kernel, const LaneKeyPlan &plan,
                const std::uint64_t *widx, const std::uint64_t *gh,
                const std::uint32_t *pcFold, std::size_t n,
                std::uint32_t *keys)
{
    bpsim_assert(plan.lanes >= 1 && plan.lanes <= LaneKeyPlan::kMaxLanes,
                 "lane key plan width ", plan.lanes, " out of range");
#if defined(BPSIM_HAVE_AVX512)
    if (kernel == SimdTarget::AVX512 && plan.fits32 &&
        simdTargetSupported(SimdTarget::AVX512)) {
        buildLaneKeysAvx512(plan, widx, gh, pcFold, n, keys);
        return;
    }
#else
    (void)kernel;
#endif
    buildLaneKeysScalar(plan, widx, gh, pcFold, n, keys);
}

void
buildLaneKeys(const LaneKeyPlan &plan, const std::uint64_t *widx,
              const std::uint64_t *gh, const std::uint32_t *pcFold,
              std::size_t n, std::uint32_t *keys)
{
    buildLaneKeysOn(laneKeysKernel(resolveSimdTarget(), plan), plan, widx,
                    gh, pcFold, n, keys);
}

SimdTarget
perceptronBatchKernel(SimdTarget target, unsigned lanes)
{
    // The 16-wide gathers cost the same per branch however many lanes
    // are live, and they overtake the scalar lane-major loop at
    // kPerceptronAvx512MinLanes (the perceptronBatchReplay rows).
    constexpr unsigned kPerceptronAvx512MinLanes = 2;
    return occupancyKernel(target, lanes, kPerceptronAvx512MinLanes);
}

void
replayPerceptronBatchOn(SimdTarget kernel, const std::uint32_t *idx,
                        const std::uint8_t *taken, std::size_t n,
                        PerceptronBatch &batch)
{
    bpsim_assert(batch.lanes >= 1 &&
                     batch.lanes <= PerceptronBatch::kMaxLanes,
                 "perceptron batch width ", batch.lanes,
                 " out of range");
    bpsim_assert(batch.tables >= 1 &&
                     batch.tables <= PerceptronBatch::kMaxTables,
                 "perceptron batch tables ", batch.tables,
                 " out of range");
    bpsim_assert(n < (std::size_t{1} << 30),
                 "perceptron batch span ", n,
                 " overflows the per-call miss accumulator");
#if defined(BPSIM_HAVE_AVX512)
    if (kernel == SimdTarget::AVX512 &&
        simdTargetSupported(SimdTarget::AVX512)) {
        replayPerceptronBatchAvx512(idx, taken, n, batch);
        return;
    }
#else
    (void)kernel;
#endif
    replayPerceptronBatchScalar(idx, taken, n, batch);
}

void
replayPerceptronBatch(const std::uint32_t *idx, const std::uint8_t *taken,
                      std::size_t n, PerceptronBatch &batch)
{
    replayPerceptronBatchOn(
        perceptronBatchKernel(resolveSimdTarget(), batch.lanes), idx, taken,
        n, batch);
}

SimdTarget
aliasBatchKernel(SimdTarget target, unsigned lanes)
{
    // The 16-wide gather/scatter costs the same per branch however
    // many lanes are live, and it overtakes the scalar lane-major loop
    // at kAliasAvx512MinLanes (the aliasBatchReplay rows).  The ledger
    // also reads AVX-512 ahead at 2 lanes, but no end-to-end PAs(bht)
    // sweep or paper_cold run shows it (EXPERIMENTS "2-bit lane
    // batches: the kernel"), so the threshold stays at 3.
    constexpr unsigned kAliasAvx512MinLanes = 3;
    return occupancyKernel(target, lanes, kAliasAvx512MinLanes);
}

void
replayAliasBatchOn(SimdTarget kernel, const AliasRecords &records,
                   std::size_t n, AliasBatch &batch)
{
    bpsim_assert(batch.lanes >= 1 && batch.lanes <= AliasBatch::kMaxLanes,
                 "alias batch width ", batch.lanes, " out of range");
#if defined(BPSIM_HAVE_AVX512)
    if (kernel == SimdTarget::AVX512 &&
        simdTargetSupported(SimdTarget::AVX512)) {
        replayAliasBatchAvx512(records, n, batch);
        return;
    }
#else
    (void)kernel;
#endif
    replayAliasBatchScalar(records, n, batch);
}

void
replayAliasBatch(const AliasRecords &records, std::size_t n,
                 AliasBatch &batch)
{
    replayAliasBatchOn(aliasBatchKernel(resolveSimdTarget(), batch.lanes),
                       records, n, batch);
}

SimdTarget
tageBatchKernel(SimdTarget target, unsigned lanes)
{
    // The 16-wide gathers and scatters cost the same per branch however
    // many lanes are live, and they overtake the scalar lane-major loop
    // at kTageAvx512MinLanes (the tageBatchReplay rows).
    constexpr unsigned kTageAvx512MinLanes = 5;
    return occupancyKernel(target, lanes, kTageAvx512MinLanes);
}

void
replayTageBatchOn(SimdTarget kernel, const TageKeys &keys, std::size_t n,
                  TageBatch &batch)
{
    bpsim_assert(batch.lanes >= 1 && batch.lanes <= TageBatch::kMaxLanes,
                 "tage batch width ", batch.lanes, " out of range");
    bpsim_assert(batch.components >= 1 &&
                     batch.components <= TageBatch::kMaxComponents,
                 "tage batch components ", batch.components,
                 " out of range");
    bpsim_assert(n < (std::size_t{1} << 30), "tage batch span ", n,
                 " overflows the per-call miss accumulator");
#if defined(BPSIM_HAVE_AVX512)
    if (kernel == SimdTarget::AVX512 &&
        simdTargetSupported(SimdTarget::AVX512)) {
        replayTageBatchAvx512(keys, n, batch);
        return;
    }
#else
    (void)kernel;
#endif
    replayTageBatchScalar(keys, n, batch);
}

void
replayTageBatch(const TageKeys &keys, std::size_t n, TageBatch &batch)
{
    replayTageBatchOn(tageBatchKernel(resolveSimdTarget(), batch.lanes),
                      keys, n, batch);
}

} // namespace bpsim
