/**
 * @file
 * Sweep explorer: render paper-style misprediction / aliasing surfaces
 * for any scheme, profile and tier range from the command line.
 *
 *   ./sweep_explorer [profile=real_gcc] [scheme=GAs] [min_bits=4]
 *                    [max_bits=15] [branches=1000000] [metric=misp]
 *                    [bht=1024] [assoc=4] [csv=0] [threads=0]
 *                    [cache=DIR]
 *
 * scheme: a name from the daemon's catalog (schemeKindFromName):
 *         addr | GAg | GAs | gshare | path | pas | pas_bht | tage |
 *         perceptron, ...
 * metric: misp | alias | harmless
 * threads: concurrent trace replays (0 = all hardware threads,
 *          1 = serial); the rendered surface is identical either way.
 */

#include <chrono>
#include <cstdio>

#include "common/thread_pool.hh"

#include "common/cli.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/sweep_session.hh"

using namespace bpsim;

int
main(int argc, char **argv)
{
    Config cfg = Config::parseArgs(argc, argv);
    std::string profile = cfg.getString("profile", "real_gcc");
    SchemeKind kind =
        cli::orFatal(schemeKindFromName(cfg.getString("scheme", "GAs")));
    std::string metric = cfg.getString("metric", "misp");
    auto branches =
        static_cast<std::uint64_t>(cli::requireInt(cfg, "branches", 1'000'000));

    SweepOptions opts;
    opts.minTotalBits =
        static_cast<unsigned>(cli::requireInt(cfg, "min_bits", 4));
    opts.maxTotalBits =
        static_cast<unsigned>(cli::requireInt(cfg, "max_bits", 15));
    opts.trackAliasing = metric != "misp";
    opts.bhtEntries = static_cast<std::size_t>(cli::requireInt(cfg, "bht", 1024));
    opts.bhtAssoc = static_cast<unsigned>(cli::requireInt(cfg, "assoc", 4));
    opts.threads = static_cast<unsigned>(cli::requireInt(cfg, "threads", 0));

    // cache=DIR points the session at a persistent .bpc result cache;
    // a repeated invocation with the same knobs is then served from
    // disk with an identical surface.
    SweepSession session(cfg.getString("cache", ""));
    TraceHandle handle =
        cli::orFatal(session.internProfile(profile, branches));
    auto sweep_start = std::chrono::steady_clock::now();
    SweepResponse resp = cli::orFatal(
        session.sweep(SweepRequest{handle.hash, kind, opts}));
    SweepResult &r = resp.result;
    double sweep_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    if (resp.cacheHit)
        std::printf("(served from the %s result cache)\n",
                    resp.diskHit ? "on-disk" : "in-memory");

    const Surface *surface = &r.misprediction;
    if (metric == "alias")
        surface = &r.aliasing;
    else if (metric == "harmless")
        surface = &r.harmless;
    else if (metric != "misp")
        bpsim_fatal("unknown metric '", metric,
                    "'; use misp, alias or harmless");

    std::printf("%s", surface->render().c_str());
    if (cli::requireBool(cfg, "csv", false))
        std::printf("%s", surface->renderCsv().c_str());
    if (kind == SchemeKind::PAsFinite)
        std::printf("BHT miss rate: %.2f%%\n", r.bhtMissRate * 100.0);

    // Best-in-tier summary.
    std::printf("\nbest per tier:\n");
    for (const auto &tier : surface->tiers()) {
        auto best = surface->bestInTier(tier.totalBits);
        if (best) {
            std::printf("  %6llu counters: 2^%u x 2^%u  %6.2f%%\n",
                        1ULL << tier.totalBits, best->rowBits,
                        best->colBits, best->value * 100.0);
        }
    }

    std::printf("\nsweep wall clock: %.2f s at threads=%u (hardware "
                "threads: %u); rerun with threads=1 for the serial "
                "baseline\n",
                sweep_seconds,
                ThreadPool::resolveThreads(opts.threads),
                ThreadPool::hardwareThreads());
    return 0;
}
