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
 * decoded record, on the scalar or AVX-512 alias kernel.  Each scheme
 * is also swept once untracked, and
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
 * lanes per group, blocks replayed) so a perf
 * regression can be traced to a dispatch or fusion change without
 * rerunning under a profiler.
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
#include "common/simd.hh"
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
            "%llu, \"blocks_replayed\": %llu}}%s\n",
            simdTargetName(target),
            static_cast<unsigned long long>(r.kernel.fusedGroups),
            r.kernel.lanesPerGroup(),
            static_cast<unsigned long long>(r.kernel.laneBatches),
            static_cast<unsigned long long>(r.kernel.blocksReplayed),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
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
            "\"model_batches\": %llu, \"blocks_replayed\": %llu}}%s\n",
            simdTargetName(target),
            static_cast<unsigned long long>(r.kernel.modelGroups),
            static_cast<unsigned long long>(r.kernel.modelLanes),
            r.kernel.modelLanesPerGroup(),
            static_cast<unsigned long long>(r.kernel.modelBatches),
            static_cast<unsigned long long>(r.kernel.blocksReplayed),
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
