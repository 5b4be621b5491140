#include "sim/sweep.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <set>

#include "common/logging.hh"
#include "common/packed_pht.hh"
#include "common/thread_pool.hh"

namespace bpsim {

namespace {

/**
 * Trace tile of the block-decoded engines and the grain of segment
 * cuts.  2048 * 4 bytes keeps a packed decoded block at 8 KiB -- small
 * enough to share L1 with the largest packed table a paper sweep uses
 * (2^15 counters = 8 KiB).  A multiple of 64 so blocks consume whole
 * packed-outcome words.
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

/** Resolved within-group execution shape for one group replay. */
struct ReplayExec
{
    /** Lane shard executors (resolveFusedThreads, >= 1). */
    unsigned shards = 1;
    /** Trace segments (resolveSegments, >= 1; 1 = exact). */
    unsigned segments = 1;
    /** Warm-up branches before each speculative segment. */
    std::size_t warmup = 2048;
};

/**
 * One lane's counts over one task's counted span.  The aliasing fields
 * stay zero for engines that do not track last writers.
 */
struct LaneCounts
{
    std::uint64_t misses = 0;
    std::uint64_t accesses = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t harmless = 0;
};

/**
 * One grid task: lanes [laneLo, laneHi) start from cold private state,
 * replay [warmLo, segLo) uncounted, then count [segLo, segHi).
 */
struct TaskSpan
{
    std::size_t laneLo = 0;
    std::size_t laneHi = 0;
    std::size_t warmLo = 0;
    std::size_t segLo = 0;
    std::size_t segHi = 0;
};

/**
 * The replay grid every group runs through (DESIGN.md "Segment-parallel
 * replay").  A group's replay is decomposed into (shard x segment)
 * tasks.  Shards partition the *lanes*: each task owns a disjoint,
 * contiguous run of the engine's lane order with private state, so
 * sharding never changes any lane's update sequence and results are
 * bit-identical for any shard count -- the only cost is that each shard
 * repeats its engine's per-branch decode.  Segments partition the
 * *trace* at block boundaries: segment k > 0 starts from cold state,
 * replays an uncounted warm-up window of exec.warmup branches before
 * its range, then counts its own range.  Segment boundaries and warm-up
 * depend only on (trace length, segments, warmup), so speculative
 * results are deterministic and independent of shard/worker counts;
 * segments == 1 replays [0, n) cold-started exactly.
 *
 * The per-(segment, lane) counts are reconciled in segment order into
 * each lane's ConfigResult slot: misprediction over the trace length,
 * aliasing over the counted accesses, harmless over the conflicts.
 *
 * An Engine provides
 *   std::size_t lanes() const;          lanes in execution order
 *   std::size_t member(std::size_t lane) const;   its job index
 *   void run(const TaskSpan &, LaneCounts *, KernelTelemetry &) const;
 * where run() steps lanes [laneLo, laneHi) over the task's spans,
 * writes lane j's counts to counts[j - laneLo], and touches no state
 * another task can see.  The returned telemetry carries the grid's
 * shape, timing and the tasks' engine counters; callers add the
 * population counters.
 */
template <typename Engine>
KernelTelemetry
runGrid(const Engine &engine, std::size_t n, const ReplayExec &exec,
        ConfigResult *slots)
{
    // Segments never exceed the block count and shards never exceed
    // the lane count.  Balanced integer splits keep both partitions
    // deterministic.
    const std::size_t lane_count = engine.lanes();
    const std::size_t nblocks = (n + kBlockSize - 1) / kBlockSize;
    const std::size_t shards = std::max<std::size_t>(
        1, std::min<std::size_t>(exec.shards, lane_count));
    const std::size_t segs = std::max<std::size_t>(
        1, std::min<std::size_t>(exec.segments,
                                 std::max<std::size_t>(nblocks, 1)));
    const std::size_t tasks = shards * segs;
    const auto shard_begin = [&](std::size_t s) {
        return s * lane_count / shards;
    };
    const auto seg_begin = [&](std::size_t k) {
        return std::min(n, k * nblocks / segs * kBlockSize);
    };

    // Task (s, k) writes only its shard's slice of row k, so placement
    // is deterministic and unsynchronised.
    std::vector<LaneCounts> seg_counts(segs * lane_count);
    std::vector<KernelTelemetry> task_tel(tasks);
    const auto run_task = [&](std::size_t task_idx) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t s = task_idx / segs;
        const std::size_t k = task_idx % segs;
        TaskSpan span;
        span.laneLo = shard_begin(s);
        span.laneHi = shard_begin(s + 1);
        span.segLo = seg_begin(k);
        span.segHi = seg_begin(k + 1);
        // Segment 0 starts at the true trace start and needs no
        // warm-up.
        span.warmLo =
            span.segLo > exec.warmup ? span.segLo - exec.warmup : 0;
        KernelTelemetry &tel = task_tel[task_idx];
        tel.warmupBranches = span.segLo - span.warmLo;
        engine.run(span, &seg_counts[k * lane_count + span.laneLo], tel);
        tel.busySeconds = secondsSince(t0);
    };

    // Executors: the fusedThreads knob sizes the shard dimension, and
    // a speculative request implies its segments want to run
    // concurrently, so the task phase may use whichever is larger --
    // purely an execution choice, results never depend on it.
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        tasks,
        std::max<std::size_t>(exec.shards, segs > 1 ? segs : 1)));
    const auto span0 = std::chrono::steady_clock::now();
    if (tasks == 1 || workers <= 1) {
        for (std::size_t task_idx = 0; task_idx < tasks; ++task_idx)
            run_task(task_idx);
    } else {
        ThreadPool::shared().parallelFor(tasks, workers, run_task);
    }

    KernelTelemetry counters;
    for (const KernelTelemetry &tel : task_tel)
        counters.merge(tel);
    counters.segments = segs;
    counters.laneShards = shards;
    counters.shardTasks = tasks;
    counters.shardWorkers = workers;
    counters.spanSeconds = secondsSince(span0);

    // Reconcile: for segs == 1 this is exactly the serial total; for
    // segs > 1 it is the speculative estimate whose delta against
    // exact mode the bench and differential tests report.
    for (std::size_t j = 0; j < lane_count; ++j) {
        LaneCounts total;
        for (std::size_t k = 0; k < segs; ++k) {
            const LaneCounts &c = seg_counts[k * lane_count + j];
            total.misses += c.misses;
            total.accesses += c.accesses;
            total.conflicts += c.conflicts;
            total.harmless += c.harmless;
        }
        ConfigResult &out = slots[engine.member(j)];
        out = ConfigResult{};
        out.mispRate = ratio(total.misses, n);
        out.aliasRate = ratio(total.conflicts, total.accesses);
        out.harmlessFraction = ratio(total.harmless, total.conflicts);
    }
    return counters;
}

/**
 * The packed 2-bit engine: one trace pass updates every member
 * configuration.  Per branch the raw row value and the pc word index
 * are computed once (the members share them by construction); each
 * member then derives its own table index by masking and trains its
 * packed counter table.
 *
 * The pass is block-tiled for locality: a block of branches is decoded
 * once into a compact per-branch record, then every lane makes one
 * tight pass over the decoded block.  The decode cost (row functor,
 * word-index column, outcome bit) is amortised over all lanes, the
 * block stays L1-resident while the lanes stream it, and each lane's
 * packed table stays cache-hot for the whole block instead of being
 * evicted between branches by a hundred sibling tables.
 *
 * When every member fits narrow limits (row and column <= 15 bits --
 * always true for the paper's <= 2^15-counter tables), lanes are
 * further grouped by column width: every lane with colBits == c indexes
 * its table with ((row & rowMask) << c) | (col & colMask), which is
 * ((row << c) | (col & mask(c))) & mask(totalBits).  The c-dependent
 * part is shared, so it is materialised once per (block, c) as a
 * structure-of-arrays uint32 record stream carrying the outcome in bit
 * 31 (outcomes come from the prepared trace's packed bit stream, one
 * 64-branch word at a time), and the hot loop touches only that
 * stream, the outcome bits already folded into it, and the lane
 * tables.  Lanes sharing a record stream are then replayed
 * LaneBatch::kMaxLanes at a time through the runtime-dispatched SIMD
 * kernel (common/simd.hh): per record, one shared stream load feeds
 * 4-16 lanes' mask+gather+packed-counter-RMW in parallel, instead of
 * one scalar pass per lane.  Every dispatch target is bit-identical to
 * the scalar loop.
 */
template <typename RowFn>
class PackedLanes
{
  public:
    PackedLanes(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
                const std::vector<std::size_t> &members, RowFn row_of,
                SimdTarget target)
        : t_(t), rowOf_(row_of), target_(target)
    {
        specs_.reserve(members.size());
        for (std::size_t member : members) {
            const ConfigJob &job = jobs[member];
            specs_.push_back(Spec{member, mask(job.rowBits),
                                  mask(job.colBits), job.colBits});
            if (job.rowBits > 15 || job.colBits > 15)
                narrow_ = false;
        }
        // Keep column classes contiguous so each shard materialises as
        // few per-column record streams as possible.  Stable: plan
        // order is preserved within a class, and the sort affects
        // execution placement only.
        std::stable_sort(specs_.begin(), specs_.end(),
                         [](const Spec &a, const Spec &b) {
                             return a.colBits < b.colBits;
                         });
    }

    std::size_t lanes() const { return specs_.size(); }
    std::size_t member(std::size_t lane) const
    {
        return specs_[lane].member;
    }
    /** Whether every lane fits the packed 4-byte record. */
    bool narrow() const { return narrow_; }

    void
    run(const TaskSpan &span, LaneCounts *counts,
        KernelTelemetry &tel) const
    {
        // Private tables per task: shards must not share bytes (the
        // SIMD kernels require disjoint lanes), and speculative
        // segments must start cold by construction.
        std::vector<Lane> lanes;
        lanes.reserve(span.laneHi - span.laneLo);
        for (std::size_t j = span.laneLo; j < span.laneHi; ++j)
            lanes.emplace_back(specs_[j]);
        if (narrow_) {
            runNarrow(lanes, span.warmLo, span.segLo, false, tel);
            runNarrow(lanes, span.segLo, span.segHi, true, tel);
        } else {
            runWide(lanes, span.warmLo, span.segLo, false, tel);
            runWide(lanes, span.segLo, span.segHi, true, tel);
        }
        for (std::size_t j = 0; j < lanes.size(); ++j)
            counts[j].misses = lanes[j].mispredicts;
    }

  private:
    struct Spec
    {
        std::size_t member;
        std::uint64_t rowMask;
        std::uint64_t colMask;
        unsigned colBits;
    };

    struct Lane
    {
        std::uint64_t rowMask;
        std::uint64_t colMask;
        unsigned colBits;
        std::uint64_t mispredicts = 0;
        PackedPht pht;

        explicit Lane(const Spec &spec)
            : rowMask(spec.rowMask), colMask(spec.colMask),
              colBits(spec.colBits),
              pht((static_cast<std::size_t>(spec.rowMask) + 1) *
                  (static_cast<std::size_t>(spec.colMask) + 1))
        {
        }
    };

    void
    runNarrow(std::vector<Lane> &lanes, std::size_t lo, std::size_t hi,
              bool count, KernelTelemetry &tel) const
    {
        // Lanes sharing a column width share their fused record; the
        // record for c occupies bits 0..29 (row << c tops out at bit
        // 14 + 15), so the outcome bit in 31 never collides with any
        // total-bits mask.
        std::vector<std::vector<Lane *>> by_col(16);
        for (Lane &lane : lanes)
            by_col[lane.colBits].push_back(&lane);

        // Raw decode: outcome in bit 31, row in bits 29..15, column in
        // bits 14..0.  Lanes only read the row/column bits their masks
        // cover, so the 15-bit truncation is lossless.
        std::vector<std::uint32_t> decoded(kBlockSize);
        std::vector<std::uint32_t> record(kBlockSize);
        for (std::size_t base = lo; base < hi; base += kBlockSize) {
            const std::size_t m = std::min(kBlockSize, hi - base);
            if (count)
                ++tel.blocksReplayed;
            std::uint64_t taken_word = 0;
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t g = base + i;
                // Outcomes arrive packed, one 64-branch word at a time;
                // reload at word boundaries and on the first (possibly
                // unaligned, for warm-up spans) branch.
                if (i == 0 || (g & 63) == 0)
                    taken_word = t_.takenWord(g >> 6);
                const auto tk = static_cast<std::uint32_t>(
                    (taken_word >> (g & 63)) & 1u);
                decoded[i] =
                    (tk << 31) |
                    ((static_cast<std::uint32_t>(rowOf_(g)) & 0x7FFFu)
                     << 15) |
                    (t_.wordBits(g) & 0x7FFFu);
            }
            for (unsigned c = 0; c < by_col.size(); ++c) {
                std::vector<Lane *> &col_lanes = by_col[c];
                if (col_lanes.empty())
                    continue;
                const auto col_mask = static_cast<std::uint32_t>(mask(c));
                for (std::size_t i = 0; i < m; ++i) {
                    const std::uint32_t d = decoded[i];
                    record[i] = (d & 0x80000000u) |
                                (((d >> 15) & 0x7FFFu) << c) |
                                (d & col_mask);
                }
                // Replay the shared record stream through the lanes,
                // LaneBatch::kMaxLanes at a time, on the dispatched
                // SIMD kernel.
                for (std::size_t first = 0; first < col_lanes.size();
                     first += LaneBatch::kMaxLanes) {
                    LaneBatch batch;
                    batch.lanes = static_cast<unsigned>(
                        std::min<std::size_t>(LaneBatch::kMaxLanes,
                                              col_lanes.size() - first));
                    for (unsigned l = 0; l < batch.lanes; ++l) {
                        Lane *lane = col_lanes[first + l];
                        batch.totalMask[l] = static_cast<std::uint32_t>(
                            (lane->rowMask << c) | lane->colMask);
                        batch.pht[l] = lane->pht.data();
                    }
                    replayLaneBatch(target_, record.data(), m, batch);
                    if (count) {
                        for (unsigned l = 0; l < batch.lanes; ++l)
                            col_lanes[first + l]->mispredicts +=
                                batch.misses[l];
                        ++tel.laneBatches;
                    }
                }
            }
        }
    }

    /** Configurations beyond the packed-record limits: same tiling,
     *  64-bit row/column records, one scalar pass per lane. */
    void
    runWide(std::vector<Lane> &lanes, std::size_t lo, std::size_t hi,
            bool count, KernelTelemetry &tel) const
    {
        std::vector<std::uint64_t> rows(kBlockSize), cols(kBlockSize);
        std::vector<std::uint8_t> takens(kBlockSize);
        for (std::size_t base = lo; base < hi; base += kBlockSize) {
            const std::size_t m = std::min(kBlockSize, hi - base);
            if (count)
                ++tel.blocksReplayed;
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t g = base + i;
                rows[i] = rowOf_(g);
                cols[i] = wordIndex(t_.pc(g));
                takens[i] = static_cast<std::uint8_t>(t_.taken(g));
            }
            for (Lane &lane : lanes) {
                std::uint8_t *bytes = lane.pht.data();
                std::uint64_t misses = 0;
                for (std::size_t i = 0; i < m; ++i) {
                    const auto idx = static_cast<std::size_t>(
                        ((rows[i] & lane.rowMask) << lane.colBits) |
                        (cols[i] & lane.colMask));
                    misses += PackedPht::predictAndUpdateRaw(bytes, idx,
                                                             takens[i]);
                }
                if (count)
                    lane.mispredicts += misses;
            }
        }
    }

    const PreparedTrace &t_;
    RowFn rowOf_;
    SimdTarget target_;
    bool narrow_ = true;
    std::vector<Spec> specs_;
};

/**
 * The aliasing 2-bit engine (Figure 5): the packed engine's block
 * tiling, with a record rich enough for the per-access last-writer
 * test.  Each 2048-branch block is decoded once into AliasRecords --
 * the low 32 bits of the row value and of the word index, the
 * branch's tag ((dense id + 1) << 2) and a flags byte with the outcome
 * and countr_one of the first-level pattern -- and then every lane
 * batch of up to AliasBatch::kMaxLanes lanes replays the block through
 * the dispatched alias kernel (common/simd.hh).  A lane's slot is one
 * uint32 fusing its last writer and its 2-bit counter, so the
 * conflict, harmless and miss tests and the counter update all come
 * from one gathered word.  A conflict is harmless when the low rowBits
 * of pattern_of(i) -- the first-level history pattern in effect --
 * are all ones, i.e. countr_one(pattern) >= rowBits; schemes without
 * such a pattern pass a constant 0.  Warm-up spans train the slots
 * but are not counted.
 */
template <typename RowFn, typename PatternFn>
class AliasLanes
{
  public:
    AliasLanes(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
               const std::vector<std::size_t> &members, RowFn row_of,
               PatternFn pattern_of, SimdTarget target)
        : t_(t), jobs_(jobs), members_(members), rowOf_(row_of),
          patternOf_(pattern_of), target_(target)
    {
    }

    std::size_t lanes() const { return members_.size(); }
    std::size_t member(std::size_t lane) const { return members_[lane]; }

    void
    run(const TaskSpan &span, LaneCounts *counts,
        KernelTelemetry &tel) const
    {
        // Private arenas per task, one per lane batch: shards never
        // share slots and speculative segments start cold.
        const std::size_t task_lanes = span.laneHi - span.laneLo;
        std::vector<AliasBatch> batches(
            (task_lanes + AliasBatch::kMaxLanes - 1) /
            AliasBatch::kMaxLanes);
        std::vector<std::vector<std::uint32_t>> arenas(batches.size());
        for (std::size_t b = 0; b < batches.size(); ++b) {
            AliasBatch &batch = batches[b];
            batch.lanes = static_cast<unsigned>(std::min<std::size_t>(
                AliasBatch::kMaxLanes,
                task_lanes - b * AliasBatch::kMaxLanes));
            std::size_t slots = 0;
            for (unsigned l = 0; l < batch.lanes; ++l) {
                const ConfigJob &job = jobs_[members_[
                    span.laneLo + b * AliasBatch::kMaxLanes + l]];
                // The kernels index with signed 32-bit slot offsets,
                // which also keeps every row and column value a lane
                // reads inside the decoded 32 bits.
                bpsim_assert(job.rowBits + job.colBits <= 30,
                             "aliasing lane table exceeds 2^30 slots");
                batch.offset[l] = static_cast<std::uint32_t>(slots);
                batch.rowMask[l] =
                    static_cast<std::uint32_t>(mask(job.rowBits));
                batch.colMask[l] =
                    static_cast<std::uint32_t>(mask(job.colBits));
                batch.colBits[l] = job.colBits;
                batch.harmlessOnes[l] = job.rowBits > 0
                                            ? job.rowBits
                                            : AliasBatch::kNeverHarmless;
                // Pad each table by one cache line: power-of-two
                // tables would otherwise put every lane's slot s at the
                // same address modulo 4 KiB, and the CPU treats a
                // gather behind a scatter to such an address as a
                // possible store-forward hazard (4K aliasing) -- 2x
                // slower at 16 lanes.
                slots += (std::size_t{1} << (job.rowBits + job.colBits)) +
                         kLanePad;
                bpsim_assert(slots <= (std::size_t{1} << 31) - 1,
                             "aliasing lane batch exceeds 2^31 slots");
            }
            arenas[b].assign(slots, AliasBatch::kFreshEntry);
            batch.entries = arenas[b].data();
        }

        std::vector<std::uint32_t> rows(kBlockSize), cols(kBlockSize),
            tags(kBlockSize);
        std::vector<std::uint8_t> flags(kBlockSize);
        const AliasRecords records{rows.data(), cols.data(), tags.data(),
                                   flags.data()};
        const auto replay = [&](std::size_t lo, std::size_t hi,
                                bool count) {
            for (std::size_t base = lo; base < hi; base += kBlockSize) {
                const std::size_t m = std::min(kBlockSize, hi - base);
                if (count)
                    ++tel.blocksReplayed;
                decode(base, m, rows.data(), cols.data(), tags.data(),
                       flags.data());
                for (AliasBatch &batch : batches) {
                    replayAliasBatch(target_, records, m, batch);
                    if (count)
                        ++tel.laneBatches;
                }
            }
        };
        replay(span.warmLo, span.segLo, false);
        for (AliasBatch &batch : batches) {
            std::fill(std::begin(batch.misses), std::end(batch.misses), 0);
            std::fill(std::begin(batch.conflicts),
                      std::end(batch.conflicts), 0);
            std::fill(std::begin(batch.harmless), std::end(batch.harmless),
                      0);
        }
        replay(span.segLo, span.segHi, true);

        for (std::size_t j = 0; j < task_lanes; ++j) {
            const AliasBatch &batch = batches[j / AliasBatch::kMaxLanes];
            const std::size_t l = j % AliasBatch::kMaxLanes;
            counts[j].misses = batch.misses[l];
            counts[j].accesses = span.segHi - span.segLo;
            counts[j].conflicts = batch.conflicts[l];
            counts[j].harmless = batch.harmless[l];
        }
    }

  private:
    /** Slots between consecutive lane tables in an arena (64 bytes). */
    static constexpr std::size_t kLanePad = 16;

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
    SimdTarget target_;
};

/**
 * The model engine: one trace pass steps every member TAGE or
 * perceptron model of a model group (DESIGN.md "Batched model-lane
 * replay").  The multi-table zoo has no packed-2-bit form, but it
 * shares the packed engine's two amortisable costs: the per-branch
 * decode (pc word index, global history, outcome) is identical for
 * every member, and the xorFold hash chains depend only on shared
 * geometry -- every member of a sweep shares tagBits/histories (TAGE)
 * or the table count (perceptron), and members sharing an entry width
 * share their index folds exactly.  So the pass block-tiles the trace
 * in the same 2048-branch tiles, decodes each block once, materialises
 * the hash keys once per (block, shared-geometry class), and then:
 *
 *  - TAGE lanes replay through TageModel::stepWithKeys on the
 *    component-major key blocks -- the predict/train/allocate logic is
 *    the model's own, so the batched replay and the model cannot drift;
 *  - perceptron lanes drop their weights into int8 structure-of-arrays
 *    banks and replay PerceptronBatch::kMaxLanes at a time through the
 *    runtime-dispatched SIMD dot-product/update kernel
 *    (common/simd.hh), bit-identical to PerceptronModel::step.
 */
class ModelLanes
{
  public:
    ModelLanes(const PreparedTrace &t, const SweepOptions &opts,
               const std::vector<ConfigJob> &jobs,
               const std::vector<std::size_t> &members, SimdTarget target)
        : t_(t), opts_(opts), target_(target)
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
        // colBits for perceptron) so each shard materialises as few
        // index folds as possible.  Stable, execution placement only.
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
    run(const TaskSpan &span, LaneCounts *counts,
        KernelTelemetry &tel) const
    {
        // Shared per-block decode: full 64-bit pc word index (the zoo
        // hashes fold all of it, unlike the 15-bit packed columns), the
        // history register, and the unpacked outcome byte the
        // perceptron kernel consumes directly.
        Block block;
        if (isTage_) {
            runTage(span, block, counts, tel);
        } else {
            runPerceptron(span, block, counts, tel);
        }
    }

  private:
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

    void
    runTage(const TaskSpan &span, Block &block, LaneCounts *counts,
            KernelTelemetry &tel) const
    {
        const std::vector<std::uint64_t> &widx = block.widx;
        const std::vector<std::uint64_t> &gh = block.gh;
        const auto ncomp =
            static_cast<unsigned>(opts_.tageHistories.size());
        const unsigned tag_bits = opts_.tageTagBits;
        std::uint64_t hmask[8];
        for (unsigned j = 0; j < ncomp && j < 8; ++j)
            hmask[j] = mask(opts_.tageHistories[j]);

        const std::size_t task_lanes = span.laneHi - span.laneLo;
        std::vector<TageModel> models;
        models.reserve(task_lanes);
        for (std::size_t j = span.laneLo; j < span.laneHi; ++j)
            models.emplace_back(tageSweepParams(
                specs_[j].rowBits, specs_[j].colBits, opts_));

        // Component-major key blocks, shared across lanes: tags depend
        // only on (tagBits, histories) -- group-wide -- and entry
        // indices additionally on entryBits, so they are materialised
        // once per (block, entry-width class).
        std::vector<std::uint16_t> tags(ncomp * kBlockSize);
        std::vector<std::uint32_t> idxf(ncomp * kBlockSize);
        std::vector<std::uint16_t> wtagf(kBlockSize);
        std::vector<std::uint32_t> wfold(kBlockSize);

        const auto replay_span = [&](std::size_t lo, std::size_t hi,
                                     bool count) {
            for (std::size_t base = lo; base < hi; base += kBlockSize) {
                const std::size_t m = std::min(kBlockSize, hi - base);
                if (count)
                    ++tel.blocksReplayed;
                decode(block, base, m);
                for (std::size_t i = 0; i < m; ++i)
                    wtagf[i] = static_cast<std::uint16_t>(
                        xorFold(widx[i], tag_bits));
                for (unsigned j = 0; j < ncomp; ++j) {
                    std::uint16_t *out = tags.data() + j * kBlockSize;
                    for (std::size_t i = 0; i < m; ++i) {
                        const std::uint64_t h = gh[i] & hmask[j];
                        out[i] = static_cast<std::uint16_t>(
                            (wtagf[i] ^ xorFold(h, tag_bits) ^
                             (xorFold(h, tag_bits - 1) << 1)) &
                            mask(tag_bits));
                    }
                }
                for (std::size_t first = 0; first < task_lanes;) {
                    const unsigned eb = specs_[span.laneLo + first].rowBits;
                    std::size_t last = first;
                    while (last < task_lanes &&
                           specs_[span.laneLo + last].rowBits == eb)
                        ++last;
                    if (count)
                        ++tel.modelBatches;
                    const std::uint64_t eb_mask = mask(eb);
                    for (std::size_t i = 0; i < m; ++i)
                        wfold[i] = static_cast<std::uint32_t>(
                            xorFold(widx[i], eb));
                    for (unsigned j = 0; j < ncomp; ++j) {
                        std::uint32_t *out = idxf.data() + j * kBlockSize;
                        for (std::size_t i = 0; i < m; ++i)
                            out[i] = static_cast<std::uint32_t>(
                                (xorFold(gh[i] & hmask[j], eb) ^
                                 wfold[i]) &
                                eb_mask);
                    }
                    for (std::size_t j = first; j < last; ++j) {
                        TageModel &model = models[j];
                        const std::uint64_t base_mask =
                            mask(specs_[span.laneLo + j].colBits);
                        std::uint64_t misses = 0;
                        for (std::size_t i = 0; i < m; ++i) {
                            const bool taken = block.tk[i] != 0;
                            const bool pred =
                                model
                                    .stepWithKeys(
                                        static_cast<std::size_t>(
                                            widx[i] & base_mask),
                                        idxf.data() + i, kBlockSize,
                                        tags.data() + i, kBlockSize,
                                        taken)
                                    .prediction;
                            misses += pred != taken;
                        }
                        if (count)
                            counts[j].misses += misses;
                    }
                    first = last;
                }
            }
        };
        replay_span(span.warmLo, span.segLo, false);
        replay_span(span.segLo, span.segHi, true);
    }

    void
    runPerceptron(const TaskSpan &span, Block &block, LaneCounts *counts,
                  KernelTelemetry &tel) const
    {
        const std::vector<std::uint64_t> &widx = block.widx;
        const std::vector<std::uint64_t> &gh = block.gh;
        const unsigned tables = opts_.perceptronTables;
        struct PerceptronLane
        {
            std::vector<std::int8_t> bank;
            std::int32_t theta;
            unsigned entryBits;
        };
        const std::size_t task_lanes = span.laneHi - span.laneLo;
        std::vector<PerceptronLane> lanes;
        lanes.reserve(task_lanes);
        for (std::size_t j = span.laneLo; j < span.laneHi; ++j) {
            // Validate through the real params (geometry errors surface
            // exactly as PerceptronModel would raise them).
            perceptronSweepParams(specs_[j].rowBits, specs_[j].colBits,
                                  opts_)
                .validate();
            PerceptronLane lane;
            lane.entryBits = specs_[j].colBits;
            // The SoA bank: table t's weight e at (t << eb) + e, gather
            // slack past the last weight (simd.hh).
            lane.bank.assign((static_cast<std::size_t>(tables)
                              << lane.entryBits) +
                                 PackedPht::kGatherSlack,
                             0);
            lane.theta = static_cast<std::int32_t>(
                (193u * specs_[j].rowBits) / 100u + 14u);
            lanes.push_back(std::move(lane));
        }

        // Sub-tile the block for the pre-offset index buffer: 64
        // branches x tables x kMaxLanes stays L1-resident.
        constexpr std::size_t kTile = 64;
        std::vector<std::uint32_t> idxbuf(kTile * tables *
                                          PerceptronBatch::kMaxLanes);

        const auto replay_span = [&](std::size_t lo, std::size_t hi,
                                     bool count) {
            for (std::size_t base = lo; base < hi; base += kBlockSize) {
                const std::size_t m = std::min(kBlockSize, hi - base);
                if (count)
                    ++tel.blocksReplayed;
                decode(block, base, m);
                for (std::size_t b_lo = 0; b_lo < task_lanes;
                     b_lo += PerceptronBatch::kMaxLanes) {
                    PerceptronBatch batch;
                    batch.lanes = static_cast<unsigned>(
                        std::min<std::size_t>(PerceptronBatch::kMaxLanes,
                                              task_lanes - b_lo));
                    batch.tables = tables;
                    for (unsigned l = 0; l < batch.lanes; ++l) {
                        PerceptronLane &lane = lanes[b_lo + l];
                        batch.weights[l] = lane.bank.data();
                        batch.theta[l] = lane.theta;
                    }
                    if (count)
                        ++tel.modelBatches;
                    std::uint32_t wfold[kTile];
                    for (std::size_t off = 0; off < m; off += kTile) {
                        const std::size_t mt = std::min(kTile, m - off);
                        int cur_eb = -1;
                        for (unsigned l = 0; l < batch.lanes; ++l) {
                            const unsigned eb = lanes[b_lo + l].entryBits;
                            const auto eb_mask =
                                static_cast<std::uint32_t>(mask(eb));
                            if (static_cast<int>(eb) != cur_eb) {
                                cur_eb = static_cast<int>(eb);
                                for (std::size_t i = 0; i < mt; ++i)
                                    wfold[i] = static_cast<std::uint32_t>(
                                        xorFold(widx[off + i], eb));
                            }
                            const unsigned h =
                                specs_[span.laneLo + b_lo + l].rowBits;
                            const std::size_t stride =
                                static_cast<std::size_t>(tables) *
                                PerceptronBatch::kMaxLanes;
                            std::uint32_t *col = idxbuf.data() + l;
                            for (std::size_t i = 0; i < mt; ++i)
                                col[i * stride] =
                                    static_cast<std::uint32_t>(
                                        widx[off + i]) &
                                    eb_mask;
                            const unsigned nseg = tables - 1;
                            for (unsigned tb = 1; tb < tables; ++tb) {
                                const unsigned seg_l = (tb - 1) * h / nseg;
                                const unsigned seg_h = tb * h / nseg;
                                const auto off_t =
                                    static_cast<std::uint32_t>(tb) << eb;
                                std::uint32_t *out =
                                    idxbuf.data() +
                                    tb * PerceptronBatch::kMaxLanes + l;
                                for (std::size_t i = 0; i < mt; ++i) {
                                    const std::uint64_t seg =
                                        bitsAt(gh[off + i], seg_l,
                                               seg_h - seg_l);
                                    out[i * stride] =
                                        ((static_cast<std::uint32_t>(
                                              xorFold(seg, eb)) ^
                                          wfold[i]) &
                                         eb_mask) +
                                        off_t;
                                }
                            }
                        }
                        replayPerceptronBatch(target_, idxbuf.data(),
                                              block.tk.data() + off, mt,
                                              batch);
                    }
                    if (count)
                        for (unsigned l = 0; l < batch.lanes; ++l)
                            counts[b_lo + l].misses += batch.misses[l];
                }
            }
        };
        replay_span(span.warmLo, span.segLo, false);
        replay_span(span.segLo, span.segHi, true);
    }

    const PreparedTrace &t_;
    const SweepOptions &opts_;
    SimdTarget target_;
    bool isTage_ = false;
    std::vector<Spec> specs_;
};

/** StreamCache key of a job's first-level stream (FusedGroup). */
unsigned
streamKey(const ConfigJob &job)
{
    // Only PAsFinite streams depend on the row width (the 0xC3FF reset
    // prefix differs); every other scheme shares one stream per kind.
    return job.kind == SchemeKind::PAsFinite ? job.rowBits : 0;
}

} // namespace

double
KernelTelemetry::lanesPerGroup() const
{
    return fusedGroups ? static_cast<double>(lanes) /
                             static_cast<double>(fusedGroups)
                       : 0.0;
}

double
KernelTelemetry::modelLanesPerGroup() const
{
    return modelGroups ? static_cast<double>(modelLanes) /
                             static_cast<double>(modelGroups)
                       : 0.0;
}

double
KernelTelemetry::hotBytesPerBranch() const
{
    if (lanes == 0)
        return 0.0;
    const std::uint64_t narrow = lanes - wideLanes - aliasLanes;
    return (4.0 * static_cast<double>(narrow) +
            17.0 * static_cast<double>(wideLanes) +
            13.0 * static_cast<double>(aliasLanes)) /
           static_cast<double>(lanes);
}

double
KernelTelemetry::segmentsPerGroup() const
{
    // Every group runs the shard x segment grid, so the per-group
    // means average over the combined population.
    const std::uint64_t groups = fusedGroups + modelGroups;
    return groups ? static_cast<double>(segments) /
                        static_cast<double>(groups)
                  : 0.0;
}

double
KernelTelemetry::shardsPerGroup() const
{
    const std::uint64_t groups = fusedGroups + modelGroups;
    return groups ? static_cast<double>(laneShards) /
                        static_cast<double>(groups)
                  : 0.0;
}

double
KernelTelemetry::workerUtilization() const
{
    if (spanSeconds <= 0.0 || shardWorkers == 0)
        return 0.0;
    return busySeconds /
           (spanSeconds * static_cast<double>(shardWorkers));
}

void
KernelTelemetry::merge(const KernelTelemetry &other)
{
    // Only a record that replayed something knows its dispatch target;
    // an empty one (a cache-hit-only drain) must not reset it.
    if (other.fusedGroups + other.modelGroups > 0)
        target = other.target;
    fusedGroups += other.fusedGroups;
    lanes += other.lanes;
    wideLanes += other.wideLanes;
    aliasLanes += other.aliasLanes;
    laneBatches += other.laneBatches;
    blocksReplayed += other.blocksReplayed;
    segments += other.segments;
    laneShards += other.laneShards;
    shardTasks += other.shardTasks;
    warmupBranches += other.warmupBranches;
    modelGroups += other.modelGroups;
    modelLanes += other.modelLanes;
    modelBatches += other.modelBatches;
    busySeconds += other.busySeconds;
    spanSeconds += other.spanSeconds;
    // The widest task phase seen; utilisation divides busy time by
    // span * this, so taking the max keeps the ratio conservative.
    shardWorkers = std::max(shardWorkers, other.shardWorkers);
}

unsigned
resolveFusedThreads(const SweepOptions &opts)
{
    return ThreadPool::resolveThreads(opts.fusedThreads);
}

unsigned
resolveSegments(const SweepOptions &opts)
{
    return std::max(1u, std::min(opts.segments,
                                 SweepOptions::kMaxSegments));
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
    return FusedGroup{jobs[index].kind, streamKey(jobs[index]), {index}};
}

std::vector<FusedGroup>
planFusedGroups(const std::vector<ConfigJob> &jobs,
                const SweepOptions &opts, unsigned threads)
{
    // Bucket by shared first-level stream, in first-appearance order.
    // Zoo jobs bucket by kind whether or not aliasing is tracked: their
    // aliasing surfaces are identically zero (analyzeInterference owns
    // their interference story), and one sweep's members share
    // tagBits/histories/tables by construction.
    std::vector<FusedGroup> buckets;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ConfigJob &job = jobs[i];
        FusedGroup *bucket = nullptr;
        for (FusedGroup &b : buckets) {
            if (b.kind == job.kind && b.streamRowBits == streamKey(job)) {
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
    // any chunking.  Packed and model buckets split into at most
    // `threads` chunks so the pool can spread one large bucket across
    // executors.  Aliasing-tracked 2-bit buckets split into one chunk
    // per AliasBatch::kMaxLanes jobs, so each group is one full lane
    // batch whatever the thread count (a 126-job sweep makes 8 groups).
    std::vector<FusedGroup> groups;
    for (FusedGroup &bucket : buckets) {
        const std::size_t size = bucket.jobs.size();
        const bool zoo = bucket.kind == SchemeKind::Tage ||
                         bucket.kind == SchemeKind::Perceptron;
        const std::size_t chunks =
            opts.trackAliasing && !zoo
                ? (size + AliasBatch::kMaxLanes - 1) / AliasBatch::kMaxLanes
                : std::min<std::size_t>(threads > 1 ? threads : 1, size);
        const std::size_t base = size / chunks;
        const std::size_t extra = size % chunks;
        std::size_t next = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t take = base + (c < extra ? 1 : 0);
            FusedGroup g;
            g.kind = bucket.kind;
            g.streamRowBits = bucket.streamRowBits;
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
StreamCache::pathStreamLocked()
{
    if (!path_) {
        path_ = trace_.pathHistoryStream(opts_.pathBitsPerTarget);
        ++streamBuilds_;
        noteStreamResidentLocked();
    }
    return *path_;
}

const StreamCache::BhtStream &
StreamCache::bhtStreamLocked(unsigned row_bits)
{
    auto it = bht_.find(row_bits);
    if (it == bht_.end() || it->second.released) {
        BhtStream built;
        built.stream = trace_.bhtHistoryStream(
            opts_.bhtEntries, opts_.bhtAssoc, row_bits,
            &built.missRate, opts_.bhtResetPolicy);
        ++streamBuilds_;
        noteStreamResidentLocked();
        if (it == bht_.end()) {
            it = bht_.emplace(row_bits, std::move(built)).first;
        } else {
            // Rebuild in place: the node (and thus any prepared-table
            // pointer to it) stays put.
            it->second = std::move(built);
        }
    }
    return it->second;
}

void
StreamCache::noteStreamResidentLocked()
{
    ++residentStreams_;
    peakResidentStreams_ =
        std::max(peakResidentStreams_, residentStreams_);
}

void
StreamCache::prepare(const std::vector<ConfigJob> &jobs,
                     unsigned threads)
{
    bool need_path = false;
    std::set<unsigned> widths;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const ConfigJob &job : jobs) {
            if (job.kind == SchemeKind::Path && !path_) {
                need_path = true;
            } else if (job.kind == SchemeKind::PAsFinite) {
                auto it = bht_.find(job.rowBits);
                if (it == bht_.end() || it->second.released)
                    widths.insert(job.rowBits);
            }
        }
    }

    std::vector<std::function<void()>> builds;
    if (need_path) {
        builds.push_back([this] {
            auto stream =
                trace_.pathHistoryStream(opts_.pathBitsPerTarget);
            std::lock_guard<std::mutex> lock(mutex_);
            ++streamBuilds_;
            if (!path_) {
                path_ = std::move(stream);
                noteStreamResidentLocked();
            }
        });
    }
    for (unsigned width : widths) {
        builds.push_back([this, width] {
            BhtStream built;
            built.stream = trace_.bhtHistoryStream(
                opts_.bhtEntries, opts_.bhtAssoc, width,
                &built.missRate, opts_.bhtResetPolicy);
            std::lock_guard<std::mutex> lock(mutex_);
            ++streamBuilds_;
            noteStreamResidentLocked();
            auto it = bht_.find(width);
            if (it == bht_.end())
                bht_.emplace(width, std::move(built));
            else
                it->second = std::move(built);
        });
    }

    if (!builds.empty()) {
        if (threads <= 1 || builds.size() == 1) {
            for (auto &build : builds)
                build();
        } else {
            ThreadPool::shared().parallelFor(
                builds.size(), threads,
                [&](std::size_t i) { builds[i](); });
        }
    }

    // Publish the lock-free lookup table -- even when nothing needed
    // building, so a prepared cache never locks in the execution hot
    // path.  The pointers are stable: path_ is emplaced once and map
    // nodes never move, and lazy (post-prepare) inserts only add
    // entries these tables do not reference.
    std::lock_guard<std::mutex> lock(mutex_);
    preparedPath_ = path_ ? &*path_ : nullptr;
    preparedBht_.clear();
    preparedBht_.reserve(bht_.size());
    for (const auto &entry : bht_)
        preparedBht_.emplace_back(entry.first, &entry.second);
}

const StreamCache::BhtStream *
StreamCache::preparedBhtStream(unsigned row_bits) const
{
    for (const auto &entry : preparedBht_) {
        if (entry.first == row_bits)
            return entry.second;
    }
    return nullptr;
}

const std::vector<std::uint64_t> *
StreamCache::stream(SchemeKind kind, unsigned row_bits)
{
    // Release tracking bypasses the lock-free table: a stream another
    // group finished with may be freed (and rebuilt) at any moment, so
    // the lookup must observe release state under the lock.  That is
    // one short lock per group, not per branch.
    if (kind == SchemeKind::Path) {
        if (!releaseTracking_ && preparedPath_)
            return preparedPath_;
        lockedLookups_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        return &pathStreamLocked();
    }
    if (kind == SchemeKind::PAsFinite) {
        if (!releaseTracking_) {
            if (const BhtStream *prepared =
                    preparedBhtStream(row_bits))
                return &prepared->stream;
        }
        lockedLookups_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        return &bhtStreamLocked(row_bits).stream;
    }
    return nullptr;
}

double
StreamCache::bhtMissRate(unsigned row_bits)
{
    if (!releaseTracking_) {
        if (const BhtStream *prepared = preparedBhtStream(row_bits))
            return prepared->missRate;
    }
    lockedLookups_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    // The rate is recorded at build time and survives release; only
    // rebuild when the entry has never been built at all.
    auto it = bht_.find(row_bits);
    if (it != bht_.end())
        return it->second.missRate;
    return bhtStreamLocked(row_bits).missRate;
}

std::size_t
StreamCache::lockedLookups() const
{
    return lockedLookups_.load(std::memory_order_relaxed);
}

std::size_t
StreamCache::streamBuilds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return streamBuilds_;
}

double
StreamCache::sweepBhtMissRate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bht_.empty() ? -1.0 : bht_.rbegin()->second.missRate;
}

void
StreamCache::planRelease(const std::vector<FusedGroup> &groups)
{
    std::lock_guard<std::mutex> lock(mutex_);
    releaseTracking_ = true;
    pathConsumers_ = 0;
    bhtConsumers_.clear();
    for (const FusedGroup &group : groups) {
        if (group.kind == SchemeKind::Path)
            ++pathConsumers_;
        else if (group.kind == SchemeKind::PAsFinite)
            ++bhtConsumers_[group.streamRowBits];
    }
}

void
StreamCache::groupFinished(const FusedGroup &group)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!releaseTracking_)
        return;
    if (group.kind == SchemeKind::Path) {
        if (pathConsumers_ > 0 && --pathConsumers_ == 0 && path_) {
            path_.reset();
            preparedPath_ = nullptr;
            --residentStreams_;
        }
        return;
    }
    if (group.kind != SchemeKind::PAsFinite)
        return;
    auto consumers = bhtConsumers_.find(group.streamRowBits);
    if (consumers == bhtConsumers_.end() || --consumers->second > 0)
        return;
    bhtConsumers_.erase(consumers);
    auto it = bht_.find(group.streamRowBits);
    if (it != bht_.end() && !it->second.released) {
        // Free the buffer, keep the node: missRate stays readable and
        // any prepared-table pointer to the node stays valid (though
        // release tracking already routes lookups around that table).
        it->second.stream.clear();
        it->second.stream.shrink_to_fit();
        it->second.released = true;
        --residentStreams_;
    }
}

std::size_t
StreamCache::residentStreams() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return residentStreams_;
}

std::size_t
StreamCache::peakResidentStreams() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return peakResidentStreams_;
}

void
runFusedGroup(const FusedGroup &group,
              const std::vector<ConfigJob> &jobs, StreamCache &cache,
              ConfigResult *slots, KernelTelemetry *telemetry)
{
    const PreparedTrace &t = cache.trace();
    const SweepOptions &opts = cache.options();
    const SimdTarget target = resolveSimdTarget(opts.simd);
    // The within-group execution shape: lane shards (always
    // bit-identical) and trace segments (speculative when > 1).
    ReplayExec exec;
    exec.shards = resolveFusedThreads(opts);
    exec.segments = resolveSegments(opts);
    exec.warmup = opts.segmentWarmup;
    // One stream lookup per group, not per job or per branch.
    const std::vector<std::uint64_t> *aux =
        cache.stream(group.kind, group.streamRowBits);

    // The 2-bit family: trackAliasing picks the engine.  row_of gives
    // the raw row value before each branch, pattern_of the first-level
    // pattern whose all-ones value makes a conflict harmless.
    KernelTelemetry counters;
    const auto two_bit = [&](auto row_of, auto pattern_of) {
        if (opts.trackAliasing) {
            const AliasLanes<decltype(row_of), decltype(pattern_of)>
                engine(t, jobs, group.jobs, row_of, pattern_of, target);
            counters = runGrid(engine, t.size(), exec, slots);
            counters.aliasLanes = engine.lanes();
        } else {
            const PackedLanes<decltype(row_of)> engine(
                t, jobs, group.jobs, row_of, target);
            counters = runGrid(engine, t.size(), exec, slots);
            counters.wideLanes = engine.narrow() ? 0 : engine.lanes();
        }
        counters.fusedGroups = 1;
        counters.lanes = group.jobs.size();
    };
    const auto none = [](std::size_t) { return std::uint64_t{0}; };
    const auto global = [&](std::size_t i) { return t.globalHistory(i); };
    const auto stream = [&](std::size_t i) { return (*aux)[i]; };

    switch (group.kind) {
      case SchemeKind::AddressIndexed:
        two_bit(none, none);
        break;
      case SchemeKind::GAg:
      case SchemeKind::GAs:
        two_bit(global, global);
        break;
      case SchemeKind::Gshare:
        // Harmlessness keys on the outcome pattern itself.
        two_bit(
            [&](std::size_t i) {
                return t.globalHistory(i) ^ wordIndex(t.pc(i));
            },
            global);
        break;
      case SchemeKind::Path:
        bpsim_assert(aux, "path group needs a history stream");
        two_bit(stream, none);
        break;
      case SchemeKind::PAsPerfect: {
        const auto self = [&](std::size_t i) { return t.selfHistory(i); };
        two_bit(self, self);
        break;
      }
      case SchemeKind::PAsFinite: {
        bpsim_assert(aux, "finite-PAs group needs a BHT stream");
        two_bit(stream, stream);
        const double miss = cache.bhtMissRate(group.streamRowBits);
        for (std::size_t member : group.jobs)
            slots[member].bhtMissRate = miss;
        break;
      }
      case SchemeKind::Tage:
      case SchemeKind::Perceptron: {
        const ModelLanes engine(t, opts, jobs, group.jobs, target);
        counters = runGrid(engine, t.size(), exec, slots);
        counters.modelGroups = 1;
        counters.modelLanes = group.jobs.size();
        break;
      }
    }
    counters.target = target;
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

    // Plan: enumerate the space, partition into groups, and
    // precompute shared inputs.  Serial sweeps skip the eager stream
    // prepare: groups run one at a time, so lazy builds plus
    // release-after-last-consumer keep at most the streams the current
    // group needs resident.  Parallel sweeps still prepare up front
    // (concurrent groups need their streams simultaneously) and
    // release as groups drain.
    const std::vector<ConfigJob> jobs = planSweep(kind, opts);
    const unsigned threads = ThreadPool::resolveThreads(opts.threads);
    const std::vector<FusedGroup> groups =
        planFusedGroups(jobs, opts, threads);
    StreamCache cache(trace, opts);
    if (threads > 1)
        cache.prepare(jobs, threads);
    cache.planRelease(groups);

    // Execute: the pool distributes whole groups; every group writes
    // only its own members' slots (and telemetry slot), so placement
    // stays deterministic.
    std::vector<ConfigResult> slots(jobs.size());
    std::vector<KernelTelemetry> group_telemetry(groups.size());
    if (threads <= 1) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
            runFusedGroup(groups[g], jobs, cache, slots.data(),
                          &group_telemetry[g]);
            cache.groupFinished(groups[g]);
        }
    } else {
        ThreadPool::shared().parallelFor(
            groups.size(), threads, [&](std::size_t g) {
                runFusedGroup(groups[g], jobs, cache, slots.data(),
                              &group_telemetry[g]);
                cache.groupFinished(groups[g]);
            });
    }
    // Aggregate: every group resolved the same dispatch target, so
    // merging in any order yields one coherent telemetry record.
    for (const KernelTelemetry &group : group_telemetry)
        result.kernel.merge(group);
    result.kernel.target = resolveSimdTarget(opts.simd);

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
        result.bhtMissRate = cache.sweepBhtMissRate();
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
