#include "sim/sweep.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/logging.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace bpsim {

namespace {

/**
 * Trace tile of the block-decoded engines.  2048 branches keep the
 * 2-bit engine's decoded block at 26 KiB (13 bytes per branch),
 * L1/L2-resident while every lane batch streams it.  A multiple of 64
 * so blocks consume whole packed-outcome words.
 */
constexpr std::size_t kBlockSize = 2048;
static_assert(kBlockSize % 64 == 0, "blocks must consume whole taken words");

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/**
 * One lane's counts over the trace.  The aliasing fields stay zero for
 * engines that do not track last writers.
 */
struct LaneCounts
{
    std::uint64_t misses = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t harmless = 0;
};

/**
 * Replay one group: the engine steps every lane over the whole trace
 * [0, n) from cold state, and each lane's counts land in its member's
 * ConfigResult slot -- misprediction and aliasing over the trace
 * length, harmless over the conflicts.
 *
 * An Engine provides
 *   std::size_t lanes() const;          lanes in execution order
 *   std::size_t member(std::size_t lane) const;   its job index
 *   void run(std::size_t n, LaneCounts *, KernelTelemetry &) const;
 * where run() writes lane j's counts to counts[j] and touches no state
 * another group can see.  The returned telemetry carries the engine's
 * counters and busy time; callers add the population counters.
 */
template <typename Engine>
KernelTelemetry
replayGroup(const Engine &engine, std::size_t n, ConfigResult *slots)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<LaneCounts> counts(engine.lanes());
    KernelTelemetry tel;
    engine.run(n, counts.data(), tel);
    tel.busySeconds = secondsSince(t0);
    for (std::size_t j = 0; j < counts.size(); ++j) {
        const LaneCounts &c = counts[j];
        ConfigResult &out = slots[engine.member(j)];
        out = ConfigResult{};
        out.mispRate = ratio(c.misses, n);
        out.aliasRate = ratio(c.conflicts, n);
        out.harmlessFraction = ratio(c.harmless, c.conflicts);
    }
    return tel;
}

/**
 * The 2-bit engine (Figures 2-10): one block-tiled trace pass updates
 * every member configuration, with a record rich enough for Figure 5's
 * per-access last-writer test.  Per branch the raw row value and the
 * pc word index are computed once (the members share them by
 * construction); each lane derives its own slot by masking.  Each
 * 2048-branch block is decoded once into AliasRecords -- the low 32
 * bits of the row value and of the word index, the branch's tag
 * ((dense id + 1) << 2) and a flags byte with the outcome and
 * countr_one of the first-level pattern -- and then every lane
 * batch packLaneBatches lays out replays the block through the
 * dispatched alias kernel (common/simd.hh).  A lane's slot is one
 * uint32 fusing its last writer and its 2-bit counter, so the
 * conflict, harmless and miss tests and the counter update all come
 * from one gathered word.  A conflict is harmless when the low rowBits
 * of pattern_of(i) -- the first-level history pattern in effect --
 * are all ones, i.e. countr_one(pattern) >= rowBits; schemes without
 * such a pattern pass a constant 0.
 */
template <typename RowFn, typename PatternFn>
class AliasLanes
{
  public:
    AliasLanes(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
               const std::vector<std::size_t> &members, RowFn row_of,
               PatternFn pattern_of)
        : t_(t), jobs_(jobs), members_(members), rowOf_(row_of),
          patternOf_(pattern_of)
    {
    }

    std::size_t lanes() const { return members_.size(); }
    std::size_t member(std::size_t lane) const { return members_[lane]; }

    void
    run(std::size_t n, LaneCounts *counts, KernelTelemetry &tel) const
    {
        // Private arenas, one per lane batch: every group starts cold.
        const std::size_t lane_count = lanes();
        std::vector<std::size_t> entries(lane_count);
        for (std::size_t j = 0; j < lane_count; ++j) {
            const ConfigJob &job = jobs_[members_[j]];
            // The kernels index with signed 32-bit slot offsets, which
            // also keeps every row and column value a lane reads inside
            // the decoded 32 bits.
            bpsim_assert(job.rowBits + job.colBits <= 30,
                         "aliasing lane table exceeds 2^30 slots");
            entries[j] = std::size_t{1} << (job.rowBits + job.colBits);
        }
        const std::vector<LaneBatchLayout> layouts =
            packLaneBatches(entries, 1, sizeof(std::uint32_t));
        std::vector<AliasBatch> batches(layouts.size());
        std::vector<std::vector<std::uint32_t>> arenas(layouts.size());
        for (std::size_t b = 0; b < layouts.size(); ++b) {
            const LaneBatchLayout &layout = layouts[b];
            AliasBatch &batch = batches[b];
            batch.lanes = layout.lanes;
            for (unsigned l = 0; l < batch.lanes; ++l) {
                const ConfigJob &job =
                    jobs_[members_[layout.firstLane + l]];
                batch.offset[l] = layout.at(l, 0);
                batch.rowMask[l] =
                    static_cast<std::uint32_t>(mask(job.rowBits));
                batch.colMask[l] =
                    static_cast<std::uint32_t>(mask(job.colBits));
                batch.colBits[l] = job.colBits;
                batch.harmlessOnes[l] = job.rowBits > 0
                                            ? job.rowBits
                                            : AliasBatch::kNeverHarmless;
            }
            arenas[b].assign(layout.elements, AliasBatch::kFreshEntry);
            batch.entries = arenas[b].data();
        }

        std::vector<std::uint32_t> rows(kBlockSize), cols(kBlockSize),
            tags(kBlockSize);
        std::vector<std::uint8_t> flags(kBlockSize);
        const AliasRecords records{rows.data(), cols.data(), tags.data(),
                                   flags.data()};
        for (std::size_t base = 0; base < n; base += kBlockSize) {
            const std::size_t m = std::min(kBlockSize, n - base);
            ++tel.blocksReplayed;
            decode(base, m, rows.data(), cols.data(), tags.data(),
                   flags.data());
            for (AliasBatch &batch : batches) {
                replayAliasBatch(records, m, batch);
                ++tel.laneBatches;
            }
        }

        for (std::size_t b = 0; b < layouts.size(); ++b)
            for (unsigned l = 0; l < batches[b].lanes; ++l)
                counts[layouts[b].firstLane + l] =
                    LaneCounts{batches[b].misses[l], batches[b].conflicts[l],
                               batches[b].harmless[l]};
    }

  private:
    void
    decode(std::size_t base, std::size_t m, std::uint32_t *rows,
           std::uint32_t *cols, std::uint32_t *tags,
           std::uint8_t *flags) const
    {
        std::uint64_t taken_word = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t g = base + i;
            // Outcomes arrive packed; reload at word boundaries and on
            // the first (possibly unaligned) branch.
            if (i == 0 || (g & 63) == 0)
                taken_word = t_.takenWord(g >> 6);
            const auto taken =
                static_cast<unsigned>((taken_word >> (g & 63)) & 1u);
            const std::uint32_t id = t_.branchId(g);
            rows[i] = static_cast<std::uint32_t>(rowOf_(g));
            cols[i] =
                static_cast<std::uint32_t>(wordIndex(t_.staticPc(id)));
            tags[i] = (id + 1) << 2;
            flags[i] = static_cast<std::uint8_t>(
                (taken << 7) |
                static_cast<unsigned>(std::countr_one(patternOf_(g))));
        }
    }

    const PreparedTrace &t_;
    const std::vector<ConfigJob> &jobs_;
    const std::vector<std::size_t> &members_;
    RowFn rowOf_;
    PatternFn patternOf_;
};

/**
 * The model engine: one trace pass steps every member TAGE or
 * perceptron model of a model group (DESIGN.md "Batched model-lane
 * replay").  The multi-table zoo has no 2-bit-counter form, but it
 * shares the 2-bit engine's two amortisable costs: the per-branch
 * decode (pc word index, global history, outcome) is identical for
 * every member, and the xorFold hash chains are the same for every
 * member up to its geometry -- every member of a sweep shares
 * tagBits/histories (TAGE) or the table count (perceptron), so TAGE's
 * tags are shared outright, and a member's table keys differ from its
 * neighbours' only in segment bounds, entry width and table offsets.
 * So the pass block-tiles the trace in the same 2048-branch tiles,
 * decodes each block once, and per 64-branch tile and lane batch folds
 * the pc word index once per entry width, then builds the batch's key
 * tile lane-major -- one 16-lane row per (branch, table) -- with the
 * dispatched key builder (common/simd.hh buildLaneKeys) from a
 * LaneKeyPlan made once per batch.  TAGE lanes pack each entry into
 * one uint32 arena slot, perceptron lanes each weight into one int8
 * arena byte, both laid out by packLaneBatches, and each lane batch
 * replays through its runtime-dispatched kernel (common/simd.hh),
 * which takes the keys as arena offsets -- bit-identical to
 * TageModel::step and PerceptronModel::step.
 */
class ModelLanes
{
  public:
    ModelLanes(const PreparedTrace &t, const SweepOptions &opts,
               const std::vector<ConfigJob> &jobs,
               const std::vector<std::size_t> &members)
        : t_(t), opts_(opts)
    {
        static_assert(
            PerceptronBatch::kWeightMin == PerceptronModel::kWeightMin &&
                PerceptronBatch::kWeightMax == PerceptronModel::kWeightMax,
            "the SIMD perceptron kernel clamps to the model's range");

        bpsim_assert(!members.empty(), "empty model group");
        const SchemeKind kind = jobs[members.front()].kind;
        bpsim_assert(kind == SchemeKind::Tage ||
                         kind == SchemeKind::Perceptron,
                     "model groups hold only multi-table schemes");
        isTage_ = kind == SchemeKind::Tage;
        specs_.reserve(members.size());
        for (std::size_t member : members) {
            bpsim_assert(jobs[member].kind == kind,
                         "model groups never mix schemes");
            specs_.push_back(Spec{member, jobs[member].rowBits,
                                  jobs[member].colBits});
        }
        // Keep entry-width classes contiguous (TAGE components and
        // perceptron tables are 2^entryBits entries: rowBits for TAGE,
        // colBits for perceptron): lanes of one width share their pc
        // fold per tile, and a batch of similar widths takes similar
        // fold depths, so its key plan's step count (its deepest
        // lane's) stays low.  Stable, execution placement only.
        const bool is_tage = isTage_;
        std::stable_sort(specs_.begin(), specs_.end(),
                         [is_tage](const Spec &a, const Spec &b) {
                             return (is_tage ? a.rowBits : a.colBits) <
                                    (is_tage ? b.rowBits : b.colBits);
                         });
    }

    std::size_t lanes() const { return specs_.size(); }
    std::size_t member(std::size_t lane) const
    {
        return specs_[lane].member;
    }

    void
    run(std::size_t n, LaneCounts *counts, KernelTelemetry &tel) const
    {
        // Shared per-block decode: full 64-bit pc word index (the zoo
        // hashes fold all of it, unlike the 32-bit 2-bit columns), the
        // history register, and the unpacked outcome byte the
        // perceptron kernel consumes directly.
        Block block;
        if (isTage_) {
            runTage(n, block, counts, tel);
        } else {
            runPerceptron(n, block, counts, tel);
        }
    }

  private:
    /**
     * Branches per key tile of both zoo engines: a tile of 64
     * branches' slot or weight numbers at kMaxLanes stride stays
     * L1-resident (TAGE: 20 KiB at 4 components).
     */
    static constexpr std::size_t kTile = 64;

    struct Spec
    {
        std::size_t member;
        unsigned rowBits;
        unsigned colBits;
    };

    struct Block
    {
        std::vector<std::uint64_t> widx =
            std::vector<std::uint64_t>(kBlockSize);
        std::vector<std::uint64_t> gh =
            std::vector<std::uint64_t>(kBlockSize);
        std::vector<std::uint8_t> tk =
            std::vector<std::uint8_t>(kBlockSize);
    };

    void
    decode(Block &block, std::size_t base, std::size_t m) const
    {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t g = base + i;
            block.widx[i] = wordIndex(t_.pc(g));
            block.gh[i] = t_.globalHistory(g);
            block.tk[i] = static_cast<std::uint8_t>(t_.taken(g));
        }
    }

    /**
     * The key tile of branches [off, off + m) of @p block for one lane
     * batch: the pc word index folded once per run of equal entry
     * widths (lanes are sorted by width) and laid out lane-major in
     * @p pc_fold, then every (branch, table) row built by the
     * dispatched key builder into @p keys.
     */
    void
    keyTile(const LaneKeyPlan &keys, const Block &block, std::size_t off,
            std::size_t m, std::uint32_t *pc_fold,
            std::uint32_t *out) const
    {
        constexpr unsigned kLanes = LaneKeyPlan::kMaxLanes;
        const std::uint64_t *widx = block.widx.data() + off;
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < m; ++i)
            any |= widx[i];
        std::uint32_t wfold[kTile] = {};
        for (unsigned l = 0; l < keys.lanes; ++l) {
            const unsigned eb = keys.pcBits[l];
            // Entry width 0 masks every key to its offset: no fold.
            if (eb != 0 && (l == 0 || eb != keys.pcBits[l - 1]))
                foldColumn(widx, ~std::uint64_t{0}, std::bit_width(any), eb,
                           m, wfold);
            for (std::size_t i = 0; i < m; ++i)
                pc_fold[i * kLanes + l] = wfold[i];
        }
        buildLaneKeys(keys, widx, block.gh.data() + off, pc_fold, m, out);
    }

    /**
     * The block loop both zoo engines share: decode each block once,
     * run @p on_block(m) over its m branches, then per lane batch and
     * kTile-branch tile build the batch's key tile and replay it with
     * @p replay(keys, off, mt, batch).  Each lane's misses land in
     * @p counts.
     */
    template <typename Batch, typename OnBlock, typename Replay>
    void
    replayBatches(std::size_t n, Block &block,
                  const std::vector<LaneBatchLayout> &layouts,
                  const std::vector<LaneKeyPlan> &plans,
                  std::vector<Batch> &batches, LaneCounts *counts,
                  KernelTelemetry &tel, OnBlock on_block,
                  Replay replay) const
    {
        constexpr unsigned kLanes = LaneKeyPlan::kMaxLanes;
        std::vector<std::uint32_t> keys(kTile * layouts.front().tables *
                                        kLanes);
        std::vector<std::uint32_t> pc_fold(kTile * kLanes);
        for (std::size_t base = 0; base < n; base += kBlockSize) {
            const std::size_t m = std::min(kBlockSize, n - base);
            ++tel.blocksReplayed;
            decode(block, base, m);
            on_block(m);
            for (std::size_t b = 0; b < batches.size(); ++b) {
                ++tel.modelBatches;
                for (std::size_t off = 0; off < m; off += kTile) {
                    const std::size_t mt = std::min(kTile, m - off);
                    keyTile(plans[b], block, off, mt, pc_fold.data(),
                            keys.data());
                    replay(keys.data(), off, mt, batches[b]);
                }
            }
        }
        for (std::size_t b = 0; b < batches.size(); ++b)
            for (unsigned l = 0; l < batches[b].lanes; ++l)
                counts[layouts[b].firstLane + l].misses =
                    batches[b].misses[l];
    }

    void
    runTage(std::size_t n, Block &block, LaneCounts *counts,
            KernelTelemetry &tel) const
    {
        const std::vector<std::uint64_t> &widx = block.widx;
        const std::vector<std::uint64_t> &gh = block.gh;
        const auto ncomp =
            static_cast<unsigned>(opts_.tageHistories.size());
        const unsigned tag_bits = opts_.tageTagBits;

        // A lane's tables: its base table, then its components.  Each
        // batch's key plan maps table 0 to the base, c + 1 to component c.
        std::vector<std::size_t> entries;
        for (const Spec &spec : specs_) {
            // Validate through the real params (geometry errors surface
            // exactly as TageModel would raise them).
            tageSweepParams(spec.rowBits, spec.colBits, opts_).validate();
            entries.push_back(std::size_t{1} << spec.colBits);
            entries.insert(entries.end(), ncomp,
                           std::size_t{1} << spec.rowBits);
        }
        const std::vector<LaneBatchLayout> layouts = packLaneBatches(
            entries, ncomp + 1, sizeof(std::uint32_t));
        // Private arenas, one per lane batch: every group starts cold.
        std::vector<TageBatch> batches(layouts.size());
        std::vector<LaneKeyPlan> plans;
        std::vector<std::vector<std::uint32_t>> arenas(layouts.size());
        for (std::size_t b = 0; b < layouts.size(); ++b) {
            const LaneBatchLayout &layout = layouts[b];
            LaneKeyPlan &keys = plans.emplace_back(ncomp + 1);
            arenas[b].assign(layout.elements, TageBatch::kFreshEntry);
            for (unsigned l = 0; l < layout.lanes; ++l) {
                const Spec &spec = specs_[layout.firstLane + l];
                const std::uint32_t base = layout.at(l, 0);
                keys.setRaw(l, spec.colBits, base);
                for (unsigned c = 0; c < ncomp; ++c)
                    keys.setFold(c + 1, l, 0, opts_.tageHistories[c],
                                 spec.rowBits, layout.at(l, c + 1));
                std::fill_n(arenas[b].begin() + base,
                            std::size_t{1} << spec.colBits,
                            TageBatch::kFreshBase);
            }
            batches[b].entries = arenas[b].data();
            batches[b].lanes = layout.lanes;
            batches[b].components = ncomp;
        }

        // Tags depend only on (tagBits, histories), so they are
        // group-wide: one branch-major tile per block, folded per
        // 64-branch tile as TageModel::taggedTag does -- the pc folded
        // to tagBits, XOR the component's history folded to tagBits and
        // (shifted up one) to tagBits - 1 (>= 1: tagBits >= 2), every
        // term below 2^tagBits.  Slots depend on each lane's geometry:
        // every lane-batch sub-tile builds its lane-major slot tile,
        // which the kernel gathers through one 16-lane row at a time.
        std::vector<std::uint16_t> tags(kBlockSize * ncomp);
        std::uint32_t wtag[kTile] = {};
        std::uint32_t htag[kTile] = {};
        std::uint32_t hshift[kTile] = {};
        const auto fold_tags = [&](std::size_t m) {
            for (std::size_t off = 0; off < m; off += kTile) {
                const std::size_t mt = std::min(kTile, m - off);
                std::uint64_t any = 0;
                for (std::size_t i = 0; i < mt; ++i)
                    any |= widx[off + i];
                foldColumn(widx.data() + off, ~std::uint64_t{0},
                           std::bit_width(any), tag_bits, mt, wtag);
                for (unsigned c = 0; c < ncomp; ++c) {
                    const unsigned h = opts_.tageHistories[c];
                    foldColumn(gh.data() + off, mask(h), h, tag_bits, mt,
                               htag);
                    foldColumn(gh.data() + off, mask(h), h, tag_bits - 1,
                               mt, hshift);
                    for (std::size_t i = 0; i < mt; ++i)
                        tags[(off + i) * ncomp + c] =
                            static_cast<std::uint16_t>(
                                wtag[i] ^ htag[i] ^ (hshift[i] << 1));
                }
            }
        };
        replayBatches(
            n, block, layouts, plans, batches, counts, tel, fold_tags,
            [&](const std::uint32_t *slots, std::size_t off,
                std::size_t mt, TageBatch &batch) {
                replayTageBatch(TageKeys{slots, tags.data() + off * ncomp,
                                         block.tk.data() + off},
                                mt, batch);
            });
    }

    /**
     * out[i] = xorFold(v[i] & vmask, eb) for @p m <= kTile values
     * below 2^bits, @p eb >= 1.  The fold is linear and chunk-aligned,
     * so XORing the high chunks onto the low ones at a chunk boundary
     * keeps it: halving the chunk count each step reaches one chunk in
     * ceil(log2(ceil(bits / eb))) steps, where xorFold's own loop
     * takes a step per chunk and a mispredicted exit per value.  Every
     * value takes the same steps, so each runs branch-free across the
     * tile and vectorises -- on 32-bit words once the value fits them
     * (pc word indices up to 32 bits fit from the start).
     */
    static void
    foldColumn(const std::uint64_t *v, std::uint64_t vmask,
               unsigned bits, unsigned eb, std::size_t m,
               std::uint32_t *out)
    {
        unsigned chunks = (bits + eb - 1) / eb;
        if (bits > 32) {
            std::uint64_t wide[kTile];
            for (std::size_t i = 0; i < m; ++i)
                wide[i] = v[i] & vmask;
            while (chunks * eb > 32) {
                chunks = (chunks + 1) / 2;
                const unsigned shift = chunks * eb;
                for (std::size_t i = 0; i < m; ++i)
                    wide[i] = (wide[i] & mask(shift)) ^ (wide[i] >> shift);
            }
            for (std::size_t i = 0; i < m; ++i)
                out[i] = static_cast<std::uint32_t>(wide[i]);
        } else {
            for (std::size_t i = 0; i < m; ++i)
                out[i] = static_cast<std::uint32_t>(v[i] & vmask);
        }
        while (chunks > 1) {
            chunks = (chunks + 1) / 2;
            const unsigned shift = chunks * eb;
            const auto low = static_cast<std::uint32_t>(mask(shift));
            for (std::size_t i = 0; i < m; ++i)
                out[i] = (out[i] & low) ^ (out[i] >> shift);
        }
    }

    void
    runPerceptron(std::size_t n, Block &block, LaneCounts *counts,
                  KernelTelemetry &tel) const
    {
        const unsigned tables = opts_.perceptronTables;
        const unsigned nseg = tables - 1;
        // A lane's table 0 is the bias table; table tb >= 1 hashes the
        // history bits [(tb - 1) * h / nseg, tb * h / nseg)
        // (PerceptronModel::tableIndex).
        std::vector<std::size_t> entries;
        for (const Spec &spec : specs_) {
            // Validate through the real params (geometry errors surface
            // exactly as PerceptronModel would raise them).
            perceptronSweepParams(spec.rowBits, spec.colBits, opts_)
                .validate();
            entries.insert(entries.end(), tables,
                           std::size_t{1} << spec.colBits);
        }
        const std::vector<LaneBatchLayout> layouts =
            packLaneBatches(entries, tables, sizeof(std::int8_t));
        // Private arenas, one per lane batch: every group starts cold.
        std::vector<PerceptronBatch> batches(layouts.size());
        std::vector<LaneKeyPlan> plans;
        std::vector<std::vector<std::int8_t>> arenas(layouts.size());
        for (std::size_t b = 0; b < layouts.size(); ++b) {
            const LaneBatchLayout &layout = layouts[b];
            PerceptronBatch &batch = batches[b];
            LaneKeyPlan &keys = plans.emplace_back(tables);
            for (unsigned l = 0; l < layout.lanes; ++l) {
                const Spec &spec = specs_[layout.firstLane + l];
                const unsigned h = spec.rowBits;
                const unsigned eb = spec.colBits;
                batch.theta[l] = perceptronSweepParams(h, eb, opts_)
                                     .threshold();
                keys.setRaw(l, eb, layout.at(l, 0));
                for (unsigned tb = 1; tb < tables; ++tb) {
                    const unsigned seg_l = (tb - 1) * h / nseg;
                    const unsigned seg_h = tb * h / nseg;
                    keys.setFold(tb, l, seg_l, seg_h - seg_l, eb,
                                 layout.at(l, tb));
                }
            }
            arenas[b].assign(layout.elements, 0);
            batch.weights = arenas[b].data();
            batch.lanes = layout.lanes;
            batch.tables = tables;
        }

        replayBatches(
            n, block, layouts, plans, batches, counts, tel,
            [](std::size_t) {},
            [&](const std::uint32_t *idx, std::size_t off, std::size_t mt,
                PerceptronBatch &batch) {
                replayPerceptronBatch(idx, block.tk.data() + off, mt,
                                      batch);
            });
    }

    const PreparedTrace &t_;
    const SweepOptions &opts_;
    bool isTage_ = false;
    std::vector<Spec> specs_;
};

/**
 * Planner bucket width of a job: PAsFinite groups decode one row
 * width's BHT rows, so they bucket by it; every other scheme buckets
 * by kind alone.
 */
unsigned
bucketWidth(const ConfigJob &job)
{
    return job.kind == SchemeKind::PAsFinite ? job.rowBits : 0;
}

} // namespace

double
KernelTelemetry::modelLanesPerGroup() const
{
    return modelGroups ? static_cast<double>(modelLanes) /
                             static_cast<double>(modelGroups)
                       : 0.0;
}

void
KernelTelemetry::merge(const KernelTelemetry &other)
{
    fusedGroups += other.fusedGroups;
    lanes += other.lanes;
    laneBatches += other.laneBatches;
    blocksReplayed += other.blocksReplayed;
    modelGroups += other.modelGroups;
    modelLanes += other.modelLanes;
    modelBatches += other.modelBatches;
    busySeconds += other.busySeconds;
}

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::AddressIndexed: return "addr";
      case SchemeKind::GAg: return "GAg";
      case SchemeKind::GAs: return "GAs";
      case SchemeKind::Gshare: return "gshare";
      case SchemeKind::Path: return "path";
      case SchemeKind::PAsPerfect: return "PAs(inf)";
      case SchemeKind::PAsFinite: return "PAs(bht)";
      case SchemeKind::Tage: return "tage";
      case SchemeKind::Perceptron: return "perceptron";
    }
    return "?";
}

namespace {

struct SchemeName
{
    const char *name;
    SchemeKind kind;
};

/** The one scheme-name table, sorted by name. */
constexpr SchemeName kSchemeNames[] = {
    {"GAg", SchemeKind::GAg},
    {"GAs", SchemeKind::GAs},
    {"PAs(bht)", SchemeKind::PAsFinite},
    {"PAs(inf)", SchemeKind::PAsPerfect},
    {"addr", SchemeKind::AddressIndexed},
    {"gag", SchemeKind::GAg},
    {"gas", SchemeKind::GAs},
    {"gshare", SchemeKind::Gshare},
    {"pas", SchemeKind::PAsPerfect},
    {"pas(bht)", SchemeKind::PAsFinite},
    {"pas(inf)", SchemeKind::PAsPerfect},
    {"pas_bht", SchemeKind::PAsFinite},
    {"path", SchemeKind::Path},
    {"perceptron", SchemeKind::Perceptron},
    {"tage", SchemeKind::Tage},
};

} // namespace

Result<SchemeKind>
schemeKindFromName(std::string_view name)
{
    for (const SchemeName &entry : kSchemeNames) {
        if (name == entry.name)
            return entry.kind;
    }
    std::string known;
    for (const SchemeName &entry : kSchemeNames) {
        if (!known.empty())
            known += ", ";
        known += entry.name;
    }
    // A multi-component factory spec ("tage:12:10:8:4,8,16,32",
    // "tournament(...)") is a different namespace: a sweep takes a
    // bare scheme name plus structured options, so point the caller
    // at the right shape instead of just listing names.
    if (name.find_first_of(":(,") != std::string_view::npos)
        return BPSIM_ERROR(
            "unknown scheme \"", name,
            "\" -- looks like a predictor spec string; a sweep takes "
            "a bare scheme name (one of: ", known,
            ") with per-scheme parameters in \"options\" (e.g. "
            "tage_tag_bits, tage_histories, perceptron_tables)");
    return BPSIM_ERROR("unknown scheme \"", name, "\" (one of: ", known,
                       ")");
}

std::vector<std::string>
schemeNames()
{
    std::vector<std::string> out;
    for (const SchemeName &entry : kSchemeNames)
        out.emplace_back(entry.name);
    return out;
}

TageParams
tageSweepParams(unsigned row_bits, unsigned col_bits,
                const SweepOptions &opts)
{
    TageParams params;
    params.entryBits = row_bits;
    params.baseBits = col_bits;
    params.tagBits = opts.tageTagBits;
    params.histories = opts.tageHistories;
    return params;
}

PerceptronParams
perceptronSweepParams(unsigned row_bits, unsigned col_bits,
                      const SweepOptions &opts)
{
    PerceptronParams params;
    params.historyBits = row_bits;
    params.entryBits = col_bits;
    params.tables = opts.perceptronTables;
    return params;
}

std::vector<ConfigJob>
planSweep(SchemeKind kind, const SweepOptions &opts)
{
    bpsim_assert(opts.minTotalBits <= opts.maxTotalBits,
                 "sweep tier range reversed");
    std::vector<ConfigJob> jobs;
    for (unsigned total = opts.minTotalBits; total <= opts.maxTotalBits;
         ++total) {
        for (unsigned r = 0; r <= total; ++r) {
            unsigned c = total - r;
            // Degenerate schemes contribute a single split per tier.
            if (kind == SchemeKind::AddressIndexed && r != 0)
                continue;
            if (kind == SchemeKind::GAg && c != 0)
                continue;
            // The zoo schemes have hard geometry floors: TAGE needs a
            // real component table AND a real base table; perceptron
            // needs at least one history bit (entryBits 0 is a legal
            // single-weight-per-table point).  Out-of-range splits are
            // simply absent from the surface, like the degenerate
            // schemes' missing splits.
            if (kind == SchemeKind::Tage && (r < 1 || c < 1))
                continue;
            if (kind == SchemeKind::Perceptron && (r < 1 || r > 64))
                continue;
            jobs.push_back(ConfigJob{kind, total, r, c});
        }
    }
    return jobs;
}

FusedGroup
singleJobGroup(const std::vector<ConfigJob> &jobs, std::size_t index)
{
    return FusedGroup{jobs[index].kind, {index}};
}

std::vector<FusedGroup>
planFusedGroups(const std::vector<ConfigJob> &jobs, unsigned threads)
{
    // Bucket by kind (and PAsFinite row width), in first-appearance
    // order.  Zoo jobs bucket by kind: one sweep's members share
    // tagBits/histories/tables by construction.
    std::vector<FusedGroup> buckets;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ConfigJob &job = jobs[i];
        FusedGroup *bucket = nullptr;
        for (FusedGroup &b : buckets) {
            if (b.kind == job.kind &&
                bucketWidth(jobs[b.jobs.front()]) == bucketWidth(job)) {
                bucket = &b;
                break;
            }
        }
        if (!bucket) {
            buckets.push_back(singleJobGroup(jobs, i));
            continue;
        }
        bucket->jobs.push_back(i);
    }

    // Chunk each bucket into balanced contiguous groups; each chunk
    // replays the trace once, and per-job results are identical for
    // any chunking.  2-bit buckets split into one chunk per
    // AliasBatch::kMaxLanes jobs, so each group is one full lane batch
    // whatever the thread count (a 126-job sweep makes 8 groups).
    // Model buckets split into at most `threads` chunks so the pool can
    // spread one large bucket across executors.
    std::vector<FusedGroup> groups;
    for (FusedGroup &bucket : buckets) {
        const std::size_t size = bucket.jobs.size();
        const bool zoo = bucket.kind == SchemeKind::Tage ||
                         bucket.kind == SchemeKind::Perceptron;
        const std::size_t chunks =
            zoo ? std::min<std::size_t>(threads > 1 ? threads : 1, size)
                : (size + AliasBatch::kMaxLanes - 1) /
                      AliasBatch::kMaxLanes;
        const std::size_t base = size / chunks;
        const std::size_t extra = size % chunks;
        std::size_t next = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t take = base + (c < extra ? 1 : 0);
            FusedGroup g;
            g.kind = bucket.kind;
            g.jobs.assign(bucket.jobs.begin() +
                              static_cast<std::ptrdiff_t>(next),
                          bucket.jobs.begin() +
                              static_cast<std::ptrdiff_t>(next + take));
            next += take;
            groups.push_back(std::move(g));
        }
    }
    return groups;
}

StreamCache::StreamCache(const PreparedTrace &trace,
                         const SweepOptions &opts)
    : trace_(trace), opts_(opts)
{
}

const std::vector<std::uint64_t> &
StreamCache::pathStream()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!path_) {
        path_ = trace_.pathHistoryStream(opts_.pathBitsPerTarget);
        ++streamBuilds_;
    }
    return *path_;
}

const BhtStream &
StreamCache::bhtStream()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!bht_) {
        bht_ = trace_.bhtStream(opts_.bhtEntries, opts_.bhtAssoc,
                                opts_.bhtResetPolicy);
        ++streamBuilds_;
    }
    return *bht_;
}

void
StreamCache::prepare(const std::vector<ConfigJob> &jobs, unsigned)
{
    for (const ConfigJob &job : jobs) {
        if (job.kind == SchemeKind::Path)
            pathStream();
        else if (job.kind == SchemeKind::PAsFinite)
            bhtStream();
    }
}

std::size_t
StreamCache::streamBuilds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return streamBuilds_;
}

void
runFusedGroup(const FusedGroup &group,
              const std::vector<ConfigJob> &jobs, StreamCache &cache,
              ConfigResult *slots, KernelTelemetry *telemetry)
{
    const PreparedTrace &t = cache.trace();
    const SweepOptions &opts = cache.options();
    // The 2-bit family, over withTwoBitRows' mapping.  Aliasing is
    // always measured; trackAliasing only decides whether it is
    // reported.
    KernelTelemetry counters;
    const auto two_bit = [&](auto row_of, auto pattern_of) {
        const AliasLanes<decltype(row_of), decltype(pattern_of)> engine(
            t, jobs, group.jobs, row_of, pattern_of);
        counters = replayGroup(engine, t.size(), slots);
        counters.fusedGroups = 1;
        counters.lanes = group.jobs.size();
        if (!opts.trackAliasing) {
            for (std::size_t member : group.jobs) {
                slots[member].aliasRate = 0.0;
                slots[member].harmlessFraction = 0.0;
            }
        }
    };
    if (group.kind == SchemeKind::Tage ||
        group.kind == SchemeKind::Perceptron) {
        const ModelLanes engine(t, opts, jobs, group.jobs);
        counters = replayGroup(engine, t.size(), slots);
        counters.modelGroups = 1;
        counters.modelLanes = group.jobs.size();
    } else {
        // A PAsFinite decode derives one width's rows, so every member
        // must share it (planFusedGroups buckets them so).
        const unsigned width = jobs[group.jobs.front()].rowBits;
        if (group.kind == SchemeKind::PAsFinite) {
            for (std::size_t member : group.jobs)
                bpsim_assert(jobs[member].rowBits == width,
                             "finite-PAs group mixes row widths");
        }
        withTwoBitRows(cache, group.kind, width, two_bit);
        if (group.kind == SchemeKind::PAsFinite) {
            for (std::size_t member : group.jobs)
                slots[member].bhtMissRate = cache.bhtStream().missRate();
        }
    }
    if (telemetry)
        telemetry->merge(counters);
}

SweepResult::SweepResult(const std::string &scheme_name,
                         const std::string &trace_name)
    : misprediction(scheme_name + " misprediction: " + trace_name),
      aliasing(scheme_name + " aliasing: " + trace_name),
      harmless(scheme_name + " harmless-alias fraction: " + trace_name)
{
}

SweepResult
sweepScheme(const PreparedTrace &trace, SchemeKind kind,
            const SweepOptions &opts)
{
    SweepResult result(schemeKindName(kind), trace.name());

    // Plan: enumerate the space and partition it into groups.  The
    // sweep's one first-level stream is built lazily by the first group
    // that needs it, and freed with the cache when the sweep returns.
    const std::vector<ConfigJob> jobs = planSweep(kind, opts);
    const unsigned threads = ThreadPool::resolveThreads(opts.threads);
    const std::vector<FusedGroup> groups =
        planFusedGroups(jobs, threads);
    StreamCache cache(trace, opts);

    // Execute: the pool distributes whole groups; every group writes
    // only its own members' slots (and telemetry slot), so placement
    // stays deterministic.
    std::vector<ConfigResult> slots(jobs.size());
    std::vector<KernelTelemetry> group_telemetry(groups.size());
    ThreadPool::shared().parallelFor(
        groups.size(), threads, [&](std::size_t g) {
            runFusedGroup(groups[g], jobs, cache, slots.data(),
                          &group_telemetry[g]);
        });
    // Aggregate: the counters are sums, so merging in any order yields
    // one coherent telemetry record.
    for (const KernelTelemetry &group : group_telemetry)
        result.kernel.merge(group);

    // Merge in plan order: bit-identical to the serial sweep.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ConfigJob &job = jobs[i];
        result.misprediction.add(job.totalBits, job.rowBits,
                                 job.colBits, slots[i].mispRate);
        if (opts.trackAliasing) {
            result.aliasing.add(job.totalBits, job.rowBits, job.colBits,
                                slots[i].aliasRate);
            result.harmless.add(job.totalBits, job.rowBits, job.colBits,
                                slots[i].harmlessFraction);
        }
    }
    if (kind == SchemeKind::PAsFinite)
        result.bhtMissRate = cache.bhtStream().missRate();
    return result;
}

ConfigResult
simulateConfig(StreamCache &cache, SchemeKind kind, unsigned row_bits,
               unsigned col_bits)
{
    const std::vector<ConfigJob> jobs{
        ConfigJob{kind, row_bits + col_bits, row_bits, col_bits}};
    ConfigResult out;
    runFusedGroup(singleJobGroup(jobs, 0), jobs, cache, &out);
    return out;
}

ConfigResult
simulateConfig(const PreparedTrace &trace, SchemeKind kind,
               unsigned row_bits, unsigned col_bits,
               const SweepOptions &opts)
{
    StreamCache cache(trace, opts);
    return simulateConfig(cache, kind, row_bits, col_bits);
}

} // namespace bpsim
