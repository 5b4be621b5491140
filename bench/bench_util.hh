/**
 * @file
 * Shared plumbing for the figure/table regeneration benches.
 *
 * Every bench binary accepts `branches=N` to rescale trace lengths,
 * `csv=1` to emit machine-readable output alongside the paper-style
 * rendering, and `threads=N` to bound the sweep engine's concurrency
 * (0, the default, uses every hardware thread; 1 reproduces the old
 * serial behaviour; results are identical either way).  Traces are
 * generated fresh per run (deterministic seeds), so bench output is
 * exactly reproducible.
 *
 * All benches drive the engine through a SweepSession (the facade in
 * sim/sweep_session.hh) rather than calling the plan/fuse machinery
 * directly.  `cache=DIR` points the session at a persistent .bpc
 * result cache: a second run of the same bench then serves its
 * sweeps from disk with identical output (the golden checks hold
 * cached or not).  Without `cache=`, results are cached in memory
 * for the life of the process, which already dedups repeated sweeps
 * within one bench.
 */

#ifndef BPSIM_BENCH_BENCH_UTIL_HH
#define BPSIM_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/sweep_session.hh"
#include "verify/golden.hh"
#include "workload/profiles.hh"

namespace bpsim::bench {

/** Common bench options parsed from argv. */
struct BenchOptions
{
    /** Golden-regression mode (see golden.hh and EXPERIMENTS.md). */
    enum class GoldenMode
    {
        Off,   ///< normal run, nothing recorded
        Emit,  ///< write the run's results as the new golden file
        Check, ///< compare the run against the golden file; exit 1
               ///< on drift
    };

    /** Override for conditional-trace length (0 = profile default). */
    std::uint64_t branches = 0;
    /** Emit CSV blocks after the human-readable tables. */
    bool csv = false;
    /** Sweep executors: 0 = all hardware threads, 1 = serial. */
    unsigned threads = 0;
    /** Persistent .bpc result-cache directory (empty = memory only). */
    std::string cacheDir;

    GoldenMode goldenMode = GoldenMode::Off;
    /** Golden file path (default: <bench-name>.golden in cwd). */
    std::string goldenFile;
    /** Comparator tolerance (absolute + relative, golden.hh). */
    double goldenTol = 1e-9;
    /** Results recorded during the run when a golden mode is on. */
    verify::GoldenRecorder golden;

    /** Lazily created by session(); shared so copies reuse it. */
    std::shared_ptr<SweepSession> session_;

    static BenchOptions
    parse(int argc, const char *const *argv)
    {
        Config cfg = Config::parseArgs(argc, argv);
        BenchOptions o;
        o.branches =
            static_cast<std::uint64_t>(cli::requireInt(cfg, "branches", 0));
        o.csv = cli::requireBool(cfg, "csv", false);
        o.threads =
            static_cast<unsigned>(cli::requireInt(cfg, "threads", 0));
        o.cacheDir = cfg.getString("cache", "");

        // golden=emit|check (or the flag spellings --emit-golden /
        // --check-golden), golden_file=..., golden_tol=...
        std::string mode = cfg.getString("golden", "off");
        for (const std::string &arg : cfg.positional()) {
            if (arg == "--emit-golden")
                mode = "emit";
            else if (arg == "--check-golden")
                mode = "check";
        }
        if (mode == "emit")
            o.goldenMode = GoldenMode::Emit;
        else if (mode == "check")
            o.goldenMode = GoldenMode::Check;
        else if (mode != "off")
            bpsim_fatal("golden= must be off, emit or check, got '",
                        mode, "'");

        std::string stem = argc > 0 ? argv[0] : "bench";
        auto slash = stem.find_last_of('/');
        if (slash != std::string::npos)
            stem = stem.substr(slash + 1);
        o.goldenFile =
            cfg.getString("golden_file", stem + ".golden");
        o.goldenTol = cli::requireDouble(cfg, "golden_tol", 1e-9);
        return o;
    }

    /** Sweep options with the bench thread knob applied. */
    SweepOptions
    sweepOptions(SweepOptions sweep) const
    {
        sweep.threads = threads;
        return sweep;
    }

    /**
     * The bench's engine session (registry + prepared traces +
     * result cache), created on first use with the `cache=` dir.
     */
    SweepSession &
    session()
    {
        if (!session_)
            session_ = std::make_shared<SweepSession>(cacheDir);
        return *session_;
    }

    /** Record one scalar result (no-op when golden mode is off). */
    void
    gold(const std::string &key, double value)
    {
        if (goldenMode != GoldenMode::Off)
            golden.record(key, value);
    }

    /** Record a whole surface (no-op when golden mode is off). */
    void
    goldSurface(const std::string &prefix, const Surface &surface)
    {
        if (goldenMode != GoldenMode::Off)
            golden.recordSurface(prefix, surface);
    }

    /**
     * Finish the golden phase: write the file (emit), compare and
     * report drift (check), or do nothing (off).
     * @return the process exit code the driver should return
     */
    int
    goldenFinish()
    {
        switch (goldenMode) {
          case GoldenMode::Off:
            return 0;
          case GoldenMode::Emit:
            golden.writeFile(goldenFile);
            std::printf("\ngolden: wrote %zu values to %s\n",
                        golden.size(), goldenFile.c_str());
            return 0;
          case GoldenMode::Check: {
            auto problems = golden.compareTo(goldenFile, goldenTol);
            if (problems.empty()) {
                std::printf("\ngolden: %zu values match %s "
                            "(tolerance %g)\n",
                            golden.size(), goldenFile.c_str(),
                            goldenTol);
                return 0;
            }
            std::fprintf(stderr,
                         "\ngolden: %zu problem(s) against %s:\n",
                         problems.size(), goldenFile.c_str());
            for (const std::string &problem : problems)
                std::fprintf(stderr, "golden:   %s\n",
                             problem.c_str());
            return 1;
          }
        }
        return 0;
    }
};

/** Intern a profile's trace into the session; fatal on bad names. */
inline TraceHandle
internProfile(SweepSession &session, const std::string &profile,
              std::uint64_t branches)
{
    return cli::orFatal(session.internProfile(profile, branches));
}

/**
 * Run (or fetch from cache) one scheme sweep through the session.
 * Output is bit-identical whether computed or served from cache.
 */
inline SweepResult
runSweep(SweepSession &session, const TraceHandle &trace,
         SchemeKind kind, const SweepOptions &sweep)
{
    return cli::orFatal(
               session.sweep(SweepRequest{trace.hash, kind, sweep}))
        .result;
}

/** Table-3-style best-config rows via the session (cache-aware). */
inline std::vector<BestConfigRow>
bestConfigs(SweepSession &session, const TraceHandle &trace,
            const Table3Options &options)
{
    return cli::orFatal(session.bestConfigs(trace.hash, options));
}

/** The session's prepared form of @p trace, for point probes. */
inline std::shared_ptr<const PreparedTrace>
preparedTrace(SweepSession &session, const TraceHandle &trace)
{
    return cli::orFatal(session.prepared(trace.hash));
}

/** Print a bench banner naming the reproduced paper artefact. */
inline void
banner(const std::string &what)
{
    std::printf("==== %s ====\n", what.c_str());
    std::printf("Sechrest, Lee, Mudge: \"Correlation and Aliasing in "
                "Dynamic Branch Predictors\" (ISCA 1996), synthetic "
                "workload reproduction\n\n");
}

/** Render a surface plus optional CSV per the bench options. */
inline void
emitSurface(const Surface &surface, const BenchOptions &opts,
            bool signed_values = false)
{
    std::printf("%s\n", surface.render(true, signed_values).c_str());
    if (opts.csv)
        std::printf("%s\n", surface.renderCsv().c_str());
}

/** Wall-clock stopwatch for the speedup reporting below. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Report the run's wall clock and effective thread count.  Comparing
 * against a threads=1 rerun gives the sweep speedup; the output is
 * identical for any thread count, so the comparison is fair.
 */
inline void
reportWallClock(const WallTimer &timer, const BenchOptions &opts)
{
    std::printf("\nwall clock: %.2f s at threads=%u (%u hardware "
                "thread%s); rerun with threads=1 for the serial "
                "baseline\n",
                timer.seconds(),
                ThreadPool::resolveThreads(opts.threads),
                ThreadPool::hardwareThreads(),
                ThreadPool::hardwareThreads() == 1 ? "" : "s");
}

} // namespace bpsim::bench

#endif // BPSIM_BENCH_BENCH_UTIL_HH
