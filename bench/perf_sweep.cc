/**
 * @file
 * Sweep throughput benchmark: wall-clock branch-config updates per
 * second for every sweep scheme, in these execution modes --
 *
 *   serial        one-lane groups (singleJobGroup), one trace
 *                 replay per job, threads=1: the no-fusion baseline
 *   fused[T]      planned groups, one pass per group (threads=1),
 *                 once per SIMD dispatch target T this host supports
 *                 (scalar always; sse2/avx2 when the CPU has them)
 *   fused+threads planned groups, auto dispatch, group-parallel
 *                 execution (threads=0, one executor per hw thread)
 *
 * One unit of work is a single branch instance simulated through a
 * single configuration, so "branch-config updates/s" is comparable
 * across schemes, modes, trace lengths and hosts.  All modes produce
 * bit-identical surfaces (verified in-process each run; a mismatch is
 * a hard failure), so the timing comparison is fair.
 *
 * Results are written to a JSON file (default BENCH_sweep.json) whose
 * format EXPERIMENTS.md documents; the `perf` ctest label runs a short
 * smoke of this binary.  Speedups are *reported*, never asserted --
 * the committed BENCH_sweep.json seeds the perf trajectory, CI only
 * checks that the report is produced.  Each scheme's record carries
 * the kernel telemetry of its widest-target run (dispatch target,
 * lanes per group, blocks replayed, hot bytes per branch) so a perf
 * regression can be traced to a dispatch or fusion change without
 * rerunning under a profiler.
 *
 * A within-group scaling phase then runs one representative scheme
 * (GAs) through the full fused_threads x segments knob matrix
 * (1/2/4/8 on each axis).  Lane-sharded cells (segments=1) are
 * asserted bit-identical to the exact surface; speculative cells
 * (segments>1) report their max per-point epsilon instead.  The cell
 * grid, speedups and worker utilizations land in the same JSON under
 * "within_group_scaling".
 *
 * A zoo phase times TAGE/perceptron model groups against one-lane
 * model groups, and an aliasing phase times the default-option
 * (aliasing-tracked) engine on the five 126-job schemes: one-lane
 * groups vs batched alias lanes per dispatch target vs batched lanes
 * with threads=0, all three surfaces asserted bit-identical.  Both
 * land in the same JSON under "zoo" and "aliasing".
 *
 * A second phase times the persistent result cache (sweep_session.hh):
 * the same table3-scale sweep set is run cold (compute + store), warm
 * (memory hits) and disk-warm (a fresh session reading .bpc files),
 * with every served surface verified bit-identical against the cold
 * run.  Timings, speedups and cache counters go to a separate JSON
 * report (default BENCH_cache.json).
 *
 * Knobs: branches=N (trace length, default 1000000 -- the paper's
 * profiles run 2-4M conditionals, so the default is sized to spill
 * the trace out of cache the way real runs do), reps=N (timed
 * repetitions, best-of, default 2), json=FILE, cache_json=FILE,
 * cache_dir=DIR (default: a scratch dir wiped before and after),
 * profile=NAME.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/sweep.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace {

struct ModeResult
{
    double seconds = 0.0;
    double throughput = 0.0; // branch-config updates per second
};

struct SchemeResult
{
    SchemeKind kind;
    std::size_t configs = 0;
    ModeResult serial;
    /** One fused-mode measurement per supported dispatch target. */
    std::vector<ModeResult> fused;
    ModeResult fusedThreads;
    double fusedThreadsSpeedup = 0.0;
    /** Telemetry from the widest-target single-thread fused run. */
    KernelTelemetry kernel;
};

/** A sweep's three surfaces (aliasing/harmless empty when untracked). */
struct Surfaces
{
    Surface misprediction{""};
    Surface aliasing{""};
    Surface harmless{""};
};

/**
 * Time one sweep run under @p opts, returning wall seconds.  Routed
 * through the session with the cache bypassed, so the measurement is
 * pure engine compute (the facade adds only key derivation).
 */
double
runOnce(SweepSession &session, const TraceHash &hash, SchemeKind kind,
        const SweepOptions &opts, Surfaces *surfaces_out,
        KernelTelemetry *kernel_out = nullptr)
{
    SweepRequest request{hash, kind, opts};
    request.bypassCache = true;
    WallTimer timer;
    SweepResult result =
        cli::orFatal(session.sweep(request)).result;
    const double secs = timer.seconds();
    if (surfaces_out) {
        surfaces_out->misprediction = result.misprediction;
        surfaces_out->aliasing = result.aliasing;
        surfaces_out->harmless = result.harmless;
    }
    if (kernel_out)
        *kernel_out = result.kernel;
    return secs;
}

/**
 * The serial baseline: every planned job replayed as its own one-lane
 * group, one trace pass per configuration, on the calling thread.
 * Returns wall seconds.
 */
double
runOneLaneGroups(const PreparedTrace &trace, SchemeKind kind,
                 const SweepOptions &opts, Surfaces *surfaces_out)
{
    WallTimer timer;
    const std::vector<ConfigJob> jobs = planSweep(kind, opts);
    StreamCache cache(trace, opts);
    std::vector<ConfigResult> slots(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        runFusedGroup(singleJobGroup(jobs, i), jobs, cache, slots.data());
    const double secs = timer.seconds();
    if (surfaces_out) {
        *surfaces_out = Surfaces{};
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const ConfigJob &job = jobs[i];
            surfaces_out->misprediction.add(job.totalBits, job.rowBits,
                                            job.colBits,
                                            slots[i].mispRate);
            if (opts.trackAliasing) {
                surfaces_out->aliasing.add(job.totalBits, job.rowBits,
                                           job.colBits,
                                           slots[i].aliasRate);
                surfaces_out->harmless.add(job.totalBits, job.rowBits,
                                           job.colBits,
                                           slots[i].harmlessFraction);
            }
        }
    }
    return secs;
}

/** Fairness precondition: every mode computes the same surface, bit
 *  for bit; a mismatch is a hard failure. */
void
checkSurface(SchemeKind kind, const Surface &expect,
             const Surface &got)
{
    const auto &a = expect.tiers();
    const auto &b = got.tiers();
    bpsim_assert(a.size() == b.size(), "tier count drift");
    for (std::size_t t = 0; t < a.size(); ++t) {
        bpsim_assert(a[t].points.size() == b[t].points.size(),
                     "point count drift in tier ", a[t].totalBits);
        for (std::size_t p = 0; p < a[t].points.size(); ++p) {
            bpsim_assert(a[t].points[p].value == b[t].points[p].value,
                         "mode surfaces diverge for ",
                         schemeKindName(kind), " tier 2^",
                         a[t].totalBits, " rows 2^",
                         a[t].points[p].rowBits,
                         " -- fused kernel is not bit-identical");
        }
    }
}

void
checkSurfaces(SchemeKind kind, const Surfaces &expect,
              const Surfaces &got)
{
    checkSurface(kind, expect.misprediction, got.misprediction);
    checkSurface(kind, expect.aliasing, got.aliasing);
    checkSurface(kind, expect.harmless, got.harmless);
}

/**
 * One scheme's mode matrix: one-lane groups (serial), planned groups
 * on one thread per SIMD target, and planned groups with threads=0
 * (auto dispatch).  Modes interleave within each rep (serial, each
 * target, threads, serial, ...) so slow host drift hits every mode
 * alike; best-of-reps discards transient interference.  Every run's
 * surfaces are asserted bit-identical to the serial run's.  The
 * telemetry kept is the widest target's.
 */
SchemeResult
timeModes(SweepSession &session, const TraceHash &hash,
          const PreparedTrace &trace, SchemeKind kind,
          const SweepOptions &serial_opts,
          const std::vector<SimdTarget> &targets, unsigned reps)
{
    SchemeResult r;
    r.kind = kind;
    r.fused.resize(targets.size());
    SweepOptions threaded_opts = serial_opts;
    threaded_opts.threads = 0;

    const auto keep_min = [](double &best, double s, unsigned rep) {
        best = rep == 0 ? s : std::min(best, s);
    };
    Surfaces expect;
    for (unsigned rep = 0; rep < reps; ++rep) {
        keep_min(r.serial.seconds,
                 runOneLaneGroups(trace, kind, serial_opts,
                                  rep == 0 ? &expect : nullptr),
                 rep);
        for (std::size_t t = 0; t < targets.size(); ++t) {
            SweepOptions opts = serial_opts;
            opts.simd = targets[t];
            Surfaces got;
            const bool widest = t + 1 == targets.size();
            keep_min(r.fused[t].seconds,
                     runOnce(session, hash, kind, opts,
                             rep == 0 ? &got : nullptr,
                             rep == 0 && widest ? &r.kernel : nullptr),
                     rep);
            if (rep == 0)
                checkSurfaces(kind, expect, got);
        }
        Surfaces threaded;
        keep_min(r.fusedThreads.seconds,
                 runOnce(session, hash, kind, threaded_opts,
                         rep == 0 ? &threaded : nullptr),
                 rep);
        if (rep == 0)
            checkSurfaces(kind, expect, threaded);
    }
    // One surface point per swept configuration.
    for (const auto &tier : expect.misprediction.tiers())
        r.configs += tier.points.size();

    const double work = static_cast<double>(trace.size()) *
                        static_cast<double>(r.configs);
    r.serial.throughput = work / r.serial.seconds;
    for (ModeResult &m : r.fused)
        m.throughput = work / m.seconds;
    r.fusedThreads.throughput = work / r.fusedThreads.seconds;
    r.fusedThreadsSpeedup = r.serial.seconds / r.fusedThreads.seconds;
    return r;
}

/** Header of a mode-matrix table. */
void
printModesHeader(const char *serial_name, const char *threads_name,
                 const std::vector<SimdTarget> &targets)
{
    std::printf("%-10s %7s | %12s |", "scheme", "configs", serial_name);
    for (SimdTarget t : targets)
        std::printf(" %12s %6s |", simdTargetName(t), "spd");
    std::printf(" %12s %6s\n", threads_name, "spd");
}

/** One row of a mode-matrix table. */
void
printModesRow(const SchemeResult &r)
{
    std::printf("%-10s %7zu | %12.3e |", schemeKindName(r.kind),
                r.configs, r.serial.throughput);
    for (const ModeResult &m : r.fused)
        std::printf(" %12.3e %5.2fx |", m.throughput,
                    r.serial.seconds / m.seconds);
    std::printf(" %12.3e %5.2fx\n", r.fusedThreads.throughput,
                r.fusedThreadsSpeedup);
}

/** Largest per-point |delta| between two surfaces of the same plan:
 *  the auditable epsilon of a speculative segment-parallel run. */
double
maxSurfaceDelta(const Surface &expect, const Surface &got)
{
    double worst = 0.0;
    const auto &a = expect.tiers();
    const auto &b = got.tiers();
    bpsim_assert(a.size() == b.size(), "tier count drift");
    for (std::size_t t = 0; t < a.size(); ++t)
        for (std::size_t p = 0; p < a[t].points.size(); ++p)
            worst = std::max(worst, std::abs(a[t].points[p].value -
                                             b[t].points[p].value));
    return worst;
}

/** One cell of the within-group scaling matrix. */
struct MatrixCell
{
    unsigned fusedThreads = 1;
    unsigned segments = 1;
    double seconds = 0.0;
    double speedup = 0.0;
    /** Max per-point |delta| vs exact (0 when segments == 1, where
     *  bit-identity is asserted, not measured). */
    double epsilon = 0.0;
    double utilization = 0.0;
};

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg = Config::parseArgs(argc, argv);
    const auto branches = static_cast<std::uint64_t>(
        cli::requireInt(cfg, "branches", 1000000));
    const auto reps =
        static_cast<unsigned>(cli::requireInt(cfg, "reps", 2));
    const std::string json_path =
        cfg.getString("json", "BENCH_sweep.json");
    const std::string cache_json_path =
        cfg.getString("cache_json", "BENCH_cache.json");
    std::string cache_dir = cfg.getString("cache_dir", "");
    const std::string profile = cfg.getString("profile", "mpeg_play");

    const std::vector<SimdTarget> targets = supportedSimdTargets();

    banner("Sweep throughput: serial vs fused[simd] vs fused+threads");
    std::printf("profile %s, %llu conditional branches, tiers 2^4.."
                "2^15, best of %u rep%s, %u hardware thread%s, "
                "dispatch targets:",
                profile.c_str(),
                static_cast<unsigned long long>(branches), reps,
                reps == 1 ? "" : "s", ThreadPool::hardwareThreads(),
                ThreadPool::hardwareThreads() == 1 ? "" : "s");
    for (SimdTarget t : targets)
        std::printf(" %s", simdTargetName(t));
    std::printf("\n\n");

    SweepSession session;
    TraceHandle handle = internProfile(session, profile, branches);
    auto trace = preparedTrace(session, handle);

    SweepOptions serial_opts = paperSweepOptions();
    serial_opts.trackAliasing = false;
    serial_opts.threads = 1;

    const SchemeKind kinds[] = {
        SchemeKind::AddressIndexed, SchemeKind::GAg,
        SchemeKind::GAs,            SchemeKind::Gshare,
        SchemeKind::Path,           SchemeKind::PAsPerfect,
        SchemeKind::PAsFinite,
    };

    std::vector<SchemeResult> results;
    printModesHeader("serial bc/s", "fused+t bc/s", targets);
    for (SchemeKind kind : kinds) {
        results.push_back(timeModes(session, handle.hash, *trace, kind,
                                    serial_opts, targets, reps));
        printModesRow(results.back());
    }

    // Geomeans: fused-vs-serial per target, vector-vs-scalar-fused
    // per vector target, threads-vs-serial.
    std::vector<double> per_target_geo(targets.size());
    std::vector<double> vs_scalar_geo(targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
        std::vector<double> vs_serial, vs_scalar;
        for (const SchemeResult &r : results) {
            vs_serial.push_back(r.serial.seconds /
                                r.fused[t].seconds);
            vs_scalar.push_back(r.fused[0].seconds /
                                r.fused[t].seconds);
        }
        per_target_geo[t] = geomean(vs_serial);
        vs_scalar_geo[t] = geomean(vs_scalar);
    }
    std::vector<double> threaded_speedups;
    for (const SchemeResult &r : results)
        threaded_speedups.push_back(r.fusedThreadsSpeedup);
    const double threaded_geo = geomean(threaded_speedups);

    std::printf("\ngeomean speedups vs serial:");
    for (std::size_t t = 0; t < targets.size(); ++t)
        std::printf(" fused[%s] %.2fx", simdTargetName(targets[t]),
                    per_target_geo[t]);
    std::printf(", fused+threads %.2fx\n", threaded_geo);
    for (std::size_t t = 1; t < targets.size(); ++t)
        std::printf("geomean fused[%s] vs fused[scalar]: %.2fx\n",
                    simdTargetName(targets[t]), vs_scalar_geo[t]);
    std::printf("(all surfaces verified bit-identical across modes "
                "and targets)\n");

    // ---- Within-group scaling: fused_threads x segments matrix ---
    //
    // One representative scheme (GAs, the paper's centerpiece) run
    // through every combination of the two within-group knobs.  Lane
    // sharding (fused_threads) must stay bit-identical at every cell;
    // speculative segmentation (segments > 1) reports its max
    // per-point epsilon against the exact surface instead.  The full
    // 1/2/4/8 grid always runs -- on hosts with fewer hardware
    // threads the extra cells still verify correctness, but their
    // speedups measure oversubscription, not scaling (interpret
    // against "hardware_threads" in the JSON).
    const SchemeKind matrix_kind = SchemeKind::GAs;
    const unsigned matrix_levels[] = {1, 2, 4, 8};
    const SweepOptions &matrix_base = serial_opts;

    std::printf("\n==== Within-group scaling: %s, fused_threads x "
                "segments (warmup %u) ====\n",
                schemeKindName(matrix_kind),
                matrix_base.segmentWarmup);
    Surfaces matrix_exact;
    std::vector<MatrixCell> matrix;
    double matrix_base_s = 0.0;
    std::printf("%4s |", "ft\\K");
    for (unsigned segs : matrix_levels)
        std::printf("  %10s=%u |", "segments", segs);
    std::printf("\n");
    for (unsigned ft : matrix_levels) {
        std::printf("%4u |", ft);
        for (unsigned segs : matrix_levels) {
            MatrixCell cell;
            cell.fusedThreads = ft;
            cell.segments = segs;
            SweepOptions opts = matrix_base;
            opts.fusedThreads = ft;
            opts.segments = segs;
            Surfaces surface;
            KernelTelemetry kernel;
            for (unsigned rep = 0; rep < reps; ++rep) {
                const double s = runOnce(
                    session, handle.hash, matrix_kind, opts,
                    rep == 0 ? &surface : nullptr,
                    rep == 0 ? &kernel : nullptr);
                cell.seconds =
                    rep == 0 ? s : std::min(cell.seconds, s);
            }
            if (ft == 1 && segs == 1) {
                matrix_exact = surface;
                matrix_base_s = cell.seconds;
            }
            if (segs == 1)
                checkSurfaces(matrix_kind, matrix_exact, surface);
            else
                cell.epsilon = maxSurfaceDelta(
                    matrix_exact.misprediction, surface.misprediction);
            cell.speedup = matrix_base_s / cell.seconds;
            cell.utilization = kernel.workerUtilization();
            matrix.push_back(cell);
            std::printf(" %6.3fs %4.2fx |", cell.seconds,
                        cell.speedup);
        }
        std::printf("\n");
    }
    double matrix_max_eps = 0.0;
    for (const MatrixCell &cell : matrix)
        matrix_max_eps = std::max(matrix_max_eps, cell.epsilon);
    std::printf("(segments=1 cells bit-identical to exact; max "
                "speculative epsilon %.3e mispredict-rate points)\n",
                matrix_max_eps);

    // ---- Zoo phase: batched model-lane replay vs per-config ------
    //
    // The modern-predictor zoo replays full TAGE/perceptron models,
    // so its baseline is one one-lane model group per configuration --
    // one trace pass each.  A batched model group decodes each
    // 2048-branch block once, shares the TAGE tag/index folds across
    // lanes and steps perceptron lanes through the SIMD dot-product
    // kernel.  This phase records the
    // batched-vs-per-config matrix on a fig_tage_aliasing-sized
    // surface (tiers spanning the fig's entry 4..8 x base 6..10
    // budgets) with bit-identity asserted per dispatch target.
    const SchemeKind zoo_kinds[] = {SchemeKind::Tage,
                                    SchemeKind::Perceptron};
    SweepOptions zoo_serial = serial_opts;
    zoo_serial.minTotalBits = 10;
    zoo_serial.maxTotalBits = 18;

    std::printf("\n==== Zoo throughput: per-config vs batched model "
                "replay (tiers 2^%u..2^%u) ====\n",
                zoo_serial.minTotalBits, zoo_serial.maxTotalBits);
    std::vector<SchemeResult> zoo_results;
    printModesHeader("percfg bc/s", "batch+t bc/s", targets);
    for (SchemeKind kind : zoo_kinds) {
        zoo_results.push_back(timeModes(session, handle.hash, *trace,
                                        kind, zoo_serial, targets, reps));
        printModesRow(zoo_results.back());
    }
    std::printf("(all zoo surfaces verified bit-identical across "
                "modes and targets)\n");

    // ---- Aliasing phase: one-lane groups vs batched alias lanes --
    //
    // Figure 5's default-option sweeps track aliasing, which runs the
    // aliasing engine: lane batches of up to 16 configurations over a
    // shared 13-byte decoded record, on the scalar or AVX-512 alias
    // kernel.  Its baseline is one one-lane group per configuration
    // (one trace pass each, the scalar kernel); the batched rows run
    // the planned groups per dispatch target (SSE2/AVX2 resolve to
    // the scalar kernel) and with threads=0.  The five 126-job
    // schemes run tiers 2^4..2^15 with all three surfaces asserted
    // bit-identical across modes.
    const SchemeKind alias_kinds[] = {
        SchemeKind::GAs, SchemeKind::Gshare, SchemeKind::Path,
        SchemeKind::PAsPerfect, SchemeKind::PAsFinite};
    SweepOptions alias_serial = serial_opts;
    alias_serial.trackAliasing = true;
    std::printf("\n==== Aliasing throughput: one-lane groups vs "
                "batched alias lanes (tiers 2^4..2^15) ====\n");
    std::vector<SchemeResult> alias_results;
    printModesHeader("1-lane bc/s", "batch+t bc/s", targets);
    for (SchemeKind kind : alias_kinds) {
        alias_results.push_back(timeModes(session, handle.hash, *trace,
                                          kind, alias_serial, targets,
                                          reps));
        printModesRow(alias_results.back());
    }
    std::printf("(misprediction, aliasing and harmless surfaces "
                "verified bit-identical across modes and targets)\n");

    // Machine-readable record, consumed by CHANGES.md bookkeeping and
    // future perf-trajectory comparisons (see EXPERIMENTS.md).
    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json)
        bpsim_fatal("cannot write ", json_path);
    std::fprintf(json, "{\n  \"bench\": \"perf_sweep\",\n");
    std::fprintf(json, "  \"profile\": \"%s\",\n", profile.c_str());
    std::fprintf(json, "  \"branches\": %llu,\n",
                 static_cast<unsigned long long>(trace->size()));
    std::fprintf(json, "  \"tiers\": [4, 15],\n");
    std::fprintf(json, "  \"reps\": %u,\n", reps);
    std::fprintf(json, "  \"hardware_threads\": %u,\n",
                 ThreadPool::hardwareThreads());
    std::fprintf(json, "  \"trace_bytes_per_branch\": %.3f,\n",
                 trace->bytesPerBranch());
    std::fprintf(json, "  \"simd_targets\": [");
    for (std::size_t t = 0; t < targets.size(); ++t)
        std::fprintf(json, "\"%s\"%s", simdTargetName(targets[t]),
                     t + 1 < targets.size() ? ", " : "");
    std::fprintf(json, "],\n");
    std::fprintf(json, "  \"unit\": \"branch-config updates per "
                       "second\",\n");
    std::fprintf(json, "  \"schemes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SchemeResult &r = results[i];
        std::fprintf(json, "    {\"scheme\": \"%s\", \"configs\": "
                           "%zu,\n",
                     schemeKindName(r.kind), r.configs);
        std::fprintf(json,
                     "     \"serial\": {\"seconds\": %.6f, "
                     "\"throughput\": %.3e},\n",
                     r.serial.seconds, r.serial.throughput);
        std::fprintf(json, "     \"fused\": {\n");
        for (std::size_t t = 0; t < targets.size(); ++t) {
            const ModeResult &m = r.fused[t];
            std::fprintf(
                json,
                "      \"%s\": {\"seconds\": %.6f, \"throughput\": "
                "%.3e,\n       \"speedup\": %.3f, "
                "\"speedup_vs_scalar_fused\": %.3f}%s\n",
                simdTargetName(targets[t]), m.seconds, m.throughput,
                r.serial.seconds / m.seconds,
                r.fused[0].seconds / m.seconds,
                t + 1 < targets.size() ? "," : "");
        }
        std::fprintf(json, "     },\n");
        std::fprintf(json,
                     "     \"fused_threads\": {\"seconds\": %.6f, "
                     "\"throughput\": %.3e, \"speedup\": %.3f},\n",
                     r.fusedThreads.seconds,
                     r.fusedThreads.throughput,
                     r.fusedThreadsSpeedup);
        std::fprintf(
            json,
            "     \"kernel\": {\"target\": \"%s\", "
            "\"fused_groups\": %llu,\n"
            "      \"lanes_per_group\": %.2f, \"lane_batches\": "
            "%llu, \"blocks_replayed\": %llu,\n"
            "      \"hot_bytes_per_branch\": %.2f, "
            "\"segments_per_group\": %.2f,\n"
            "      \"shards_per_group\": %.2f, \"warmup_branches\": "
            "%llu, \"worker_utilization\": %.3f}}%s\n",
            simdTargetName(r.kernel.target),
            static_cast<unsigned long long>(r.kernel.fusedGroups),
            r.kernel.lanesPerGroup(),
            static_cast<unsigned long long>(r.kernel.laneBatches),
            static_cast<unsigned long long>(r.kernel.blocksReplayed),
            r.kernel.hotBytesPerBranch(),
            r.kernel.segmentsPerGroup(), r.kernel.shardsPerGroup(),
            static_cast<unsigned long long>(r.kernel.warmupBranches),
            r.kernel.workerUtilization(),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"within_group_scaling\": {\"scheme\": \"%s\", "
                 "\"segment_warmup\": %u,\n"
                 "   \"max_speculative_epsilon\": %.3e,\n"
                 "   \"note\": \"speedups above hardware_threads "
                 "measure oversubscription, not scaling\",\n"
                 "   \"cells\": [\n",
                 schemeKindName(matrix_kind),
                 matrix_base.segmentWarmup, matrix_max_eps);
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        const MatrixCell &cell = matrix[i];
        std::fprintf(json,
                     "    {\"fused_threads\": %u, \"segments\": %u, "
                     "\"seconds\": %.6f, \"speedup\": %.3f, "
                     "\"epsilon\": %.3e, \"worker_utilization\": "
                     "%.3f}%s\n",
                     cell.fusedThreads, cell.segments, cell.seconds,
                     cell.speedup, cell.epsilon, cell.utilization,
                     i + 1 < matrix.size() ? "," : "");
    }
    std::fprintf(json, "  ]},\n");
    std::fprintf(json,
                 "  \"zoo\": {\"tiers\": [%u, %u],\n"
                 "   \"unit\": \"branch-config updates per second\",\n"
                 "   \"schemes\": [\n",
                 zoo_serial.minTotalBits, zoo_serial.maxTotalBits);
    for (std::size_t i = 0; i < zoo_results.size(); ++i) {
        const SchemeResult &r = zoo_results[i];
        std::fprintf(json,
                     "    {\"scheme\": \"%s\", \"configs\": %zu,\n",
                     schemeKindName(r.kind), r.configs);
        std::fprintf(json,
                     "     \"per_config\": {\"seconds\": %.6f, "
                     "\"throughput\": %.3e},\n",
                     r.serial.seconds, r.serial.throughput);
        std::fprintf(json, "     \"batched\": {\n");
        for (std::size_t t = 0; t < targets.size(); ++t) {
            const ModeResult &m = r.fused[t];
            std::fprintf(
                json,
                "      \"%s\": {\"seconds\": %.6f, \"throughput\": "
                "%.3e,\n       \"speedup\": %.3f, "
                "\"speedup_vs_scalar_batched\": %.3f}%s\n",
                simdTargetName(targets[t]), m.seconds, m.throughput,
                r.serial.seconds / m.seconds,
                r.fused[0].seconds / m.seconds,
                t + 1 < targets.size() ? "," : "");
        }
        std::fprintf(json, "     },\n");
        std::fprintf(json,
                     "     \"batched_threads\": {\"seconds\": %.6f, "
                     "\"throughput\": %.3e, \"speedup\": %.3f},\n",
                     r.fusedThreads.seconds,
                     r.fusedThreads.throughput,
                     r.fusedThreadsSpeedup);
        std::fprintf(
            json,
            "     \"kernel\": {\"target\": \"%s\", "
            "\"model_groups\": %llu, \"model_lanes\": %llu,\n"
            "      \"model_lanes_per_group\": %.2f, "
            "\"model_batches\": %llu, \"blocks_replayed\": %llu,\n"
            "      \"segments_per_group\": %.2f, "
            "\"shards_per_group\": %.2f, \"worker_utilization\": "
            "%.3f}}%s\n",
            simdTargetName(r.kernel.target),
            static_cast<unsigned long long>(r.kernel.modelGroups),
            static_cast<unsigned long long>(r.kernel.modelLanes),
            r.kernel.modelLanesPerGroup(),
            static_cast<unsigned long long>(r.kernel.modelBatches),
            static_cast<unsigned long long>(r.kernel.blocksReplayed),
            r.kernel.segmentsPerGroup(), r.kernel.shardsPerGroup(),
            r.kernel.workerUtilization(),
            i + 1 < zoo_results.size() ? "," : "");
    }
    std::fprintf(json, "  ]},\n");
    std::fprintf(json,
                 "  \"aliasing\": {\"tiers\": [%u, %u],\n"
                 "   \"unit\": \"branch-config updates per second\",\n"
                 "   \"schemes\": [\n",
                 alias_serial.minTotalBits, alias_serial.maxTotalBits);
    for (std::size_t i = 0; i < alias_results.size(); ++i) {
        const SchemeResult &r = alias_results[i];
        std::fprintf(json,
                     "    {\"scheme\": \"%s\", \"configs\": %zu,\n",
                     schemeKindName(r.kind), r.configs);
        std::fprintf(json,
                     "     \"one_lane\": {\"seconds\": %.6f, "
                     "\"throughput\": %.3e},\n",
                     r.serial.seconds, r.serial.throughput);
        std::fprintf(json, "     \"batched\": {\n");
        for (std::size_t t = 0; t < targets.size(); ++t) {
            const ModeResult &m = r.fused[t];
            std::fprintf(
                json,
                "      \"%s\": {\"seconds\": %.6f, \"throughput\": "
                "%.3e,\n       \"speedup\": %.3f, "
                "\"speedup_vs_scalar_batched\": %.3f}%s\n",
                simdTargetName(targets[t]), m.seconds, m.throughput,
                r.serial.seconds / m.seconds,
                r.fused[0].seconds / m.seconds,
                t + 1 < targets.size() ? "," : "");
        }
        std::fprintf(json, "     },\n");
        std::fprintf(json,
                     "     \"batched_threads\": {\"seconds\": %.6f, "
                     "\"throughput\": %.3e, \"speedup\": %.3f},\n",
                     r.fusedThreads.seconds, r.fusedThreads.throughput,
                     r.fusedThreadsSpeedup);
        std::fprintf(
            json,
            "     \"kernel\": {\"target\": \"%s\", "
            "\"fused_groups\": %llu, \"alias_lanes\": %llu,\n"
            "      \"lanes_per_group\": %.2f, \"lane_batches\": "
            "%llu, \"blocks_replayed\": %llu,\n"
            "      \"hot_bytes_per_branch\": %.2f}}%s\n",
            simdTargetName(r.kernel.target),
            static_cast<unsigned long long>(r.kernel.fusedGroups),
            static_cast<unsigned long long>(r.kernel.aliasLanes),
            r.kernel.lanesPerGroup(),
            static_cast<unsigned long long>(r.kernel.laneBatches),
            static_cast<unsigned long long>(r.kernel.blocksReplayed),
            r.kernel.hotBytesPerBranch(),
            i + 1 < alias_results.size() ? "," : "");
    }
    std::fprintf(json, "  ]},\n");
    std::fprintf(json, "  \"geomean_fused_speedup\": {");
    for (std::size_t t = 0; t < targets.size(); ++t)
        std::fprintf(json, "\"%s\": %.3f%s",
                     simdTargetName(targets[t]), per_target_geo[t],
                     t + 1 < targets.size() ? ", " : "");
    std::fprintf(json, "},\n");
    std::fprintf(json, "  \"geomean_simd_vs_scalar_fused\": {");
    for (std::size_t t = 1; t < targets.size(); ++t)
        std::fprintf(json, "\"%s\": %.3f%s",
                     simdTargetName(targets[t]), vs_scalar_geo[t],
                     t + 1 < targets.size() ? ", " : "");
    std::fprintf(json, "},\n");
    std::fprintf(json,
                 "  \"geomean_fused_threads_speedup\": %.3f\n}\n",
                 threaded_geo);
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());

    // ---- Result-cache phase: cold vs warm vs disk-warm ----------
    //
    // The same table3-scale sweep set (every scheme, tiers 2^4..2^15)
    // runs three times: cold (compute + .bpc store), warm (memory
    // hits in the same session) and disk-warm (a fresh session whose
    // registry is empty, so every answer must come from .bpc files).
    // Every served surface is verified bit-identical to the cold run.
    const bool scratch_cache = cache_dir.empty();
    if (scratch_cache) {
        cache_dir = (std::filesystem::temp_directory_path() /
                     "bpsim_perf_sweep_cache")
                        .string();
    }
    std::filesystem::remove_all(cache_dir);

    std::printf("\n==== Result cache: cold vs warm vs disk-warm "
                "(dir %s) ====\n",
                cache_dir.c_str());
    SweepOptions cache_opts = paperSweepOptions();
    cache_opts.trackAliasing = false;
    cache_opts.threads = 0;

    auto run_phase = [&](SweepSession &s,
                         std::vector<Surface> *surfaces,
                         const std::vector<Surface> *expect) {
        WallTimer timer;
        std::size_t i = 0;
        for (SchemeKind kind : kinds) {
            SweepResult r = cli::orFatal(s.sweep(
                SweepRequest{handle.hash, kind, cache_opts})).result;
            if (surfaces)
                surfaces->push_back(r.misprediction);
            if (expect)
                checkSurface(kind, (*expect)[i], r.misprediction);
            ++i;
        }
        return timer.seconds();
    };

    std::vector<Surface> cold_surfaces;
    SweepSession cold_session(cache_dir);
    internProfile(cold_session, profile, branches);
    const double cold_s =
        run_phase(cold_session, &cold_surfaces, nullptr);
    const double warm_s =
        run_phase(cold_session, nullptr, &cold_surfaces);

    SweepSession disk_session(cache_dir);
    const double disk_s =
        run_phase(disk_session, nullptr, &cold_surfaces);
    const auto warm_stats = cold_session.cache().stats();
    const auto disk_stats = disk_session.cache().stats();

    const double warm_speedup = cold_s / warm_s;
    const double disk_speedup = cold_s / disk_s;
    std::printf("cold  %9.3f s (%zu sweeps computed and stored)\n",
                cold_s, cold_surfaces.size());
    std::printf("warm  %9.3f s (%7.1fx, memory hits %llu)\n", warm_s,
                warm_speedup,
                static_cast<unsigned long long>(
                    warm_stats.memoryHits));
    std::printf("disk  %9.3f s (%7.1fx, disk hits %llu, empty "
                "registry)\n",
                disk_s, disk_speedup,
                static_cast<unsigned long long>(disk_stats.diskHits));
    std::printf("(all cached surfaces verified bit-identical to the "
                "cold run)\n");

    FILE *cache_json = std::fopen(cache_json_path.c_str(), "w");
    if (!cache_json)
        bpsim_fatal("cannot write ", cache_json_path);
    std::fprintf(cache_json, "{\n  \"bench\": \"perf_sweep_cache\",\n");
    std::fprintf(cache_json, "  \"profile\": \"%s\",\n",
                 profile.c_str());
    std::fprintf(cache_json, "  \"branches\": %llu,\n",
                 static_cast<unsigned long long>(trace->size()));
    std::fprintf(cache_json, "  \"tiers\": [4, 15],\n");
    std::fprintf(cache_json, "  \"schemes\": %zu,\n",
                 cold_surfaces.size());
    std::fprintf(cache_json, "  \"engine_version\": %u,\n",
                 kEngineVersion);
    std::fprintf(cache_json,
                 "  \"cold\": {\"seconds\": %.6f, \"misses\": %llu, "
                 "\"store_failures\": %llu},\n",
                 cold_s,
                 static_cast<unsigned long long>(warm_stats.misses),
                 static_cast<unsigned long long>(
                     warm_stats.storeFailures));
    std::fprintf(cache_json,
                 "  \"warm\": {\"seconds\": %.6f, \"speedup\": %.1f, "
                 "\"memory_hits\": %llu},\n",
                 warm_s, warm_speedup,
                 static_cast<unsigned long long>(
                     warm_stats.memoryHits));
    std::fprintf(cache_json,
                 "  \"disk\": {\"seconds\": %.6f, \"speedup\": %.1f, "
                 "\"disk_hits\": %llu, \"corrupt\": %llu},\n",
                 disk_s, disk_speedup,
                 static_cast<unsigned long long>(disk_stats.diskHits),
                 static_cast<unsigned long long>(disk_stats.corrupt));
    std::fprintf(cache_json,
                 "  \"verified\": \"bit-identical to cold run\"\n}\n");
    std::fclose(cache_json);
    std::printf("wrote %s\n", cache_json_path.c_str());

    if (scratch_cache)
        std::filesystem::remove_all(cache_dir);
    return 0;
}
