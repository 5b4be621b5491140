/**
 * @file
 * Sweep throughput benchmark: wall-clock branch-config updates per
 * second for every sweep scheme, in these execution modes --
 *
 *   one-lane       one-lane groups (singleJobGroup), one trace
 *                  replay per job, threads=1: the no-batching baseline
 *   batched        planned groups, one pass per group (threads=1), on
 *                  the kernels the host dispatches
 *   batched+threads planned groups, group-parallel execution
 *                  (threads=0, one executor per hw thread)
 *
 * The 2-bit phase runs the default-option (aliasing-tracked) sweeps of
 * all seven paper schemes, tiers 2^4..2^15, on the 2-bit lane engine:
 * lane batches of up to 16 configurations over a shared 13-byte
 * decoded record, on the scalar or AVX-512 alias kernel (AVX2 resolves
 * to scalar).  Each scheme is also swept once untracked, and
 * its misprediction surface is asserted identical to the tracked one.
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
 * the kernel telemetry of its batched run (dispatch target,
 * lanes per group, blocks replayed, hot bytes per branch) so a perf
 * regression can be traced to a dispatch or fusion change without
 * rerunning under a profiler.
 *
 * A within-group scaling phase then runs one representative scheme
 * (GAs) through the segments row (1/2/4/8) at threads=1, plus one
 * exact group-parallel cell (threads=0, segments=1).  Speculative
 * cells (segments>1) report their max per-point epsilon against the
 * exact surface; the threads=0 cell is asserted bit-identical to it.
 * The cells, speedups and worker utilizations land in the same JSON
 * under "within_group_scaling".
 *
 * A zoo phase times TAGE/perceptron model groups against one-lane
 * model groups in the same modes; it lands in the same JSON under
 * "zoo".
 *
 * Knobs: branches=N (trace length, default 1000000 -- the paper's
 * profiles run 2-4M conditionals, so the default is sized to spill
 * the trace out of cache the way real runs do), reps=N (timed
 * repetitions, best-of, default 2), json=FILE, profile=NAME.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
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
    ModeResult oneLane;
    ModeResult batched;
    ModeResult batchedThreads;
    double batchedThreadsSpeedup = 0.0;
    /** Process CPU seconds per wall second of the kept threaded run. */
    double batchedThreadsCores = 0.0;
    /** Telemetry from the single-thread batched run. */
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
                         " -- lane engine is not bit-identical");
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
 * One scheme's mode matrix: one-lane groups, planned groups on one
 * thread, and planned groups with threads=0.  Modes interleave within
 * each rep (one-lane, batched, threads, one-lane, ...) so slow host
 * drift hits every mode alike; best-of-reps discards transient
 * interference.  Every run's surfaces are asserted bit-identical to
 * the one-lane run's, and a tracked scheme's misprediction surface to
 * an untracked sweep's.  The telemetry kept is the batched run's.
 */
SchemeResult
timeModes(SweepSession &session, const TraceHash &hash,
          const PreparedTrace &trace, SchemeKind kind,
          const SweepOptions &serial_opts, unsigned reps)
{
    SchemeResult r;
    r.kind = kind;
    SweepOptions threaded_opts = serial_opts;
    threaded_opts.threads = 0;

    const auto keep_min = [](double &best, double s, unsigned rep) {
        best = rep == 0 ? s : std::min(best, s);
    };
    Surfaces expect;
    for (unsigned rep = 0; rep < reps; ++rep) {
        keep_min(r.oneLane.seconds,
                 runOneLaneGroups(trace, kind, serial_opts,
                                  rep == 0 ? &expect : nullptr),
                 rep);
        Surfaces batched;
        keep_min(r.batched.seconds,
                 runOnce(session, hash, kind, serial_opts,
                         rep == 0 ? &batched : nullptr,
                         rep == 0 ? &r.kernel : nullptr),
                 rep);
        if (rep == 0)
            checkSurfaces(kind, expect, batched);
        Surfaces threaded;
        const std::clock_t cpu_start = std::clock();
        const double threaded_s = runOnce(
            session, hash, kind, threaded_opts,
            rep == 0 ? &threaded : nullptr);
        if (rep == 0 || threaded_s < r.batchedThreads.seconds)
            r.batchedThreadsCores =
                static_cast<double>(std::clock() - cpu_start) /
                CLOCKS_PER_SEC / threaded_s;
        keep_min(r.batchedThreads.seconds, threaded_s, rep);
        if (rep == 0)
            checkSurfaces(kind, expect, threaded);
    }
    if (serial_opts.trackAliasing) {
        // trackAliasing filters output only: the untracked sweep's
        // misprediction surface is the tracked one, bit for bit.
        SweepOptions untracked = serial_opts;
        untracked.trackAliasing = false;
        Surfaces got;
        runOnce(session, hash, kind, untracked, &got);
        checkSurface(kind, expect.misprediction, got.misprediction);
        bpsim_assert(got.aliasing.tiers().empty(),
                     "untracked sweep reported aliasing");
    }
    // One surface point per swept configuration.
    for (const auto &tier : expect.misprediction.tiers())
        r.configs += tier.points.size();

    const double work = static_cast<double>(trace.size()) *
                        static_cast<double>(r.configs);
    r.oneLane.throughput = work / r.oneLane.seconds;
    r.batched.throughput = work / r.batched.seconds;
    r.batchedThreads.throughput = work / r.batchedThreads.seconds;
    r.batchedThreadsSpeedup =
        r.oneLane.seconds / r.batchedThreads.seconds;
    return r;
}

/** Header of a mode-matrix table. */
void
printModesHeader(const char *serial_name, const char *threads_name)
{
    std::printf("%-10s %7s | %12s | %12s %6s | %12s %6s\n", "scheme",
                "configs", serial_name, "batch bc/s", "spd",
                threads_name, "spd");
}

/** One row of a mode-matrix table. */
void
printModesRow(const SchemeResult &r)
{
    std::printf("%-10s %7zu | %12.3e | %12.3e %5.2fx | %12.3e %5.2fx\n",
                schemeKindName(r.kind), r.configs, r.oneLane.throughput,
                r.batched.throughput,
                r.oneLane.seconds / r.batched.seconds,
                r.batchedThreads.throughput, r.batchedThreadsSpeedup);
}

/**
 * One JSON mode-matrix record body: the one-lane baseline under
 * @p one_lane_key, the batched run, batched+threads, then the
 * caller's kernel object.
 */
void
writeModes(FILE *json, const SchemeResult &r, const char *one_lane_key)
{
    std::fprintf(json, "    {\"scheme\": \"%s\", \"configs\": %zu,\n",
                 schemeKindName(r.kind), r.configs);
    std::fprintf(json,
                 "     \"%s\": {\"seconds\": %.6f, "
                 "\"throughput\": %.3e},\n",
                 one_lane_key, r.oneLane.seconds, r.oneLane.throughput);
    std::fprintf(json,
                 "     \"batched\": {\"seconds\": %.6f, \"throughput\": "
                 "%.3e, \"speedup\": %.3f},\n",
                 r.batched.seconds, r.batched.throughput,
                 r.oneLane.seconds / r.batched.seconds);
    std::fprintf(json,
                 "     \"batched_threads\": {\"seconds\": %.6f, "
                 "\"throughput\": %.3e, \"speedup\": %.3f, "
                 "\"cores_used\": %.2f},\n",
                 r.batchedThreads.seconds, r.batchedThreads.throughput,
                 r.batchedThreadsSpeedup, r.batchedThreadsCores);
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

/** One cell of the within-group scaling row. */
struct MatrixCell
{
    unsigned threads = 1;
    unsigned segments = 1;
    double seconds = 0.0;
    double speedup = 0.0;
    /** Max per-point |delta| vs exact (0 when segments == 1, where
     *  bit-identity is asserted, not measured). */
    double epsilon = 0.0;
    double utilization = 0.0;
};

/** The host CPU's model name ("unknown" off Linux). */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

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
    const std::string profile = cfg.getString("profile", "mpeg_play");

    const SimdTarget target = detectSimdTarget();

    banner("Sweep throughput: one-lane vs batched vs batched+threads");
    std::printf("profile %s, %llu conditional branches, tiers 2^4.."
                "2^15, best of %u rep%s, %u hardware thread%s, "
                "dispatch target %s\n\n",
                profile.c_str(),
                static_cast<unsigned long long>(branches), reps,
                reps == 1 ? "" : "s", ThreadPool::hardwareThreads(),
                ThreadPool::hardwareThreads() == 1 ? "" : "s",
                simdTargetName(target));

    SweepSession session;
    TraceHandle handle = internProfile(session, profile, branches);
    auto trace = preparedTrace(session, handle);

    // ---- 2-bit phase: the default-option (aliasing-tracked) sweeps
    SweepOptions serial_opts = paperSweepOptions();
    serial_opts.trackAliasing = true;
    serial_opts.threads = 1;

    const SchemeKind kinds[] = {
        SchemeKind::AddressIndexed, SchemeKind::GAg,
        SchemeKind::GAs,            SchemeKind::Gshare,
        SchemeKind::Path,           SchemeKind::PAsPerfect,
        SchemeKind::PAsFinite,
    };

    std::vector<SchemeResult> results;
    printModesHeader("1-lane bc/s", "batch+t bc/s");
    for (SchemeKind kind : kinds) {
        results.push_back(timeModes(session, handle.hash, *trace, kind,
                                    serial_opts, reps));
        printModesRow(results.back());
    }

    // Geomeans: batched-vs-one-lane and threads-vs-one-lane.
    std::vector<double> batched_speedups, threaded_speedups;
    for (const SchemeResult &r : results) {
        batched_speedups.push_back(r.oneLane.seconds / r.batched.seconds);
        threaded_speedups.push_back(r.batchedThreadsSpeedup);
    }
    const double batched_geo = geomean(batched_speedups);
    const double threaded_geo = geomean(threaded_speedups);

    std::printf("\ngeomean speedups vs one-lane: batched %.2fx, "
                "batched+threads %.2fx\n",
                batched_geo, threaded_geo);
    std::printf("(misprediction, aliasing and harmless surfaces "
                "verified bit-identical across modes; untracked "
                "misprediction identical to tracked)\n");

    // ---- Within-group scaling: segments row + group parallelism ---
    //
    // One representative scheme (GAs, the paper's centerpiece) run
    // serially through every speculative segment count -- the only
    // axis inside a group -- and once exact with its planner groups
    // spread over every hardware thread (threads=0), the default
    // parallel plan.  Speculative cells (segments > 1) report their
    // max per-point epsilon against the exact surface; the threads=0
    // cell must stay bit-identical.  The full 1/2/4/8 row always runs
    // -- on hosts with fewer hardware threads the extra cells still
    // verify determinism, but their speedups measure
    // oversubscription, not scaling (interpret against
    // "hardware_threads" in the JSON).
    const SchemeKind matrix_kind = SchemeKind::GAs;
    const SweepOptions &matrix_base = serial_opts;
    std::vector<MatrixCell> matrix;
    for (unsigned segs : {1u, 2u, 4u, 8u})
        matrix.push_back(MatrixCell{1, segs});
    matrix.push_back(MatrixCell{0, 1});

    std::printf("\n==== Within-group scaling: %s, segments at "
                "threads=1, exact at threads=0 (warmup %u) ====\n",
                schemeKindName(matrix_kind),
                matrix_base.segmentWarmup);
    Surfaces matrix_exact;
    double matrix_base_s = 0.0;
    for (MatrixCell &cell : matrix) {
        SweepOptions opts = matrix_base;
        opts.threads = cell.threads;
        opts.segments = cell.segments;
        Surfaces surface;
        KernelTelemetry kernel;
        for (unsigned rep = 0; rep < reps; ++rep) {
            const double s = runOnce(session, handle.hash, matrix_kind,
                                     opts, rep == 0 ? &surface : nullptr,
                                     rep == 0 ? &kernel : nullptr);
            cell.seconds = rep == 0 ? s : std::min(cell.seconds, s);
        }
        if (cell.threads == 1 && cell.segments == 1) {
            matrix_exact = surface;
            matrix_base_s = cell.seconds;
        }
        if (cell.segments == 1)
            checkSurfaces(matrix_kind, matrix_exact, surface);
        else
            cell.epsilon = maxSurfaceDelta(matrix_exact.misprediction,
                                           surface.misprediction);
        cell.speedup = matrix_base_s / cell.seconds;
        cell.utilization = kernel.workerUtilization();
        std::printf("threads=%u segments=%u  %6.3fs %4.2fx  "
                    "epsilon %.3e\n",
                    cell.threads, cell.segments, cell.seconds,
                    cell.speedup, cell.epsilon);
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
    // kernel.  This phase records the batched-vs-per-config matrix on
    // a fig_tage_aliasing-sized surface (tiers spanning the fig's
    // entry 4..8 x base 6..10 budgets) with bit-identity asserted per
    // mode.  Zoo aliasing surfaces are identically zero,
    // so the phase runs untracked.
    const SchemeKind zoo_kinds[] = {SchemeKind::Tage,
                                    SchemeKind::Perceptron};
    SweepOptions zoo_serial = serial_opts;
    zoo_serial.trackAliasing = false;
    zoo_serial.minTotalBits = 10;
    zoo_serial.maxTotalBits = 18;

    std::printf("\n==== Zoo throughput: per-config vs batched model "
                "replay (tiers 2^%u..2^%u) ====\n",
                zoo_serial.minTotalBits, zoo_serial.maxTotalBits);
    std::vector<SchemeResult> zoo_results;
    printModesHeader("percfg bc/s", "batch+t bc/s");
    for (SchemeKind kind : zoo_kinds) {
        zoo_results.push_back(timeModes(session, handle.hash, *trace,
                                        kind, zoo_serial, reps));
        printModesRow(zoo_results.back());
    }
    std::printf("(all zoo surfaces verified bit-identical across "
                "modes)\n");

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
    std::fprintf(json, "  \"cpu_model\": \"%s\",\n", cpuModel().c_str());
    std::fprintf(json, "  \"hardware_threads\": %u,\n",
                 ThreadPool::hardwareThreads());
    std::fprintf(json, "  \"trace_bytes_per_branch\": %.3f,\n",
                 trace->bytesPerBranch());
    std::fprintf(json, "  \"simd_target\": \"%s\",\n",
                 simdTargetName(target));
    std::fprintf(json, "  \"unit\": \"branch-config updates per "
                       "second\",\n");
    std::fprintf(json, "  \"schemes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SchemeResult &r = results[i];
        writeModes(json, r, "one_lane");
        std::fprintf(
            json,
            "     \"kernel\": {\"target\": \"%s\", "
            "\"fused_groups\": %llu,\n"
            "      \"lanes_per_group\": %.2f, \"lane_batches\": "
            "%llu, \"blocks_replayed\": %llu,\n"
            "      \"hot_bytes_per_branch\": %.2f, "
            "\"segments_per_group\": %.2f,\n"
            "      \"warmup_branches\": %llu, \"worker_utilization\": "
            "%.3f}}%s\n",
            simdTargetName(r.kernel.target),
            static_cast<unsigned long long>(r.kernel.fusedGroups),
            r.kernel.lanesPerGroup(),
            static_cast<unsigned long long>(r.kernel.laneBatches),
            static_cast<unsigned long long>(r.kernel.blocksReplayed),
            r.kernel.hotBytesPerBranch(), r.kernel.segmentsPerGroup(),
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
                     "    {\"threads\": %u, \"segments\": %u, "
                     "\"seconds\": %.6f, \"speedup\": %.3f, "
                     "\"epsilon\": %.3e, \"worker_utilization\": "
                     "%.3f}%s\n",
                     cell.threads, cell.segments, cell.seconds,
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
        writeModes(json, r, "per_config");
        std::fprintf(
            json,
            "     \"kernel\": {\"target\": \"%s\", "
            "\"model_groups\": %llu, \"model_lanes\": %llu,\n"
            "      \"model_lanes_per_group\": %.2f, "
            "\"model_batches\": %llu, \"blocks_replayed\": %llu,\n"
            "      \"segments_per_group\": %.2f, "
            "\"worker_utilization\": %.3f}}%s\n",
            simdTargetName(r.kernel.target),
            static_cast<unsigned long long>(r.kernel.modelGroups),
            static_cast<unsigned long long>(r.kernel.modelLanes),
            r.kernel.modelLanesPerGroup(),
            static_cast<unsigned long long>(r.kernel.modelBatches),
            static_cast<unsigned long long>(r.kernel.blocksReplayed),
            r.kernel.segmentsPerGroup(), r.kernel.workerUtilization(),
            i + 1 < zoo_results.size() ? "," : "");
    }
    std::fprintf(json, "  ]},\n");
    std::fprintf(json, "  \"geomean_batched_speedup\": %.3f,\n",
                 batched_geo);
    std::fprintf(json,
                 "  \"geomean_batched_threads_speedup\": %.3f\n}\n",
                 threaded_geo);
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
