/**
 * @file
 * The two in-process workloads, paper_cold and grid_cold: one caller
 * runs a closed loop of cold (bypassCache) SweepSession::sweep requests.
 *
 * Requests come in decks: every deck holds each of the workload's
 * (trace, scheme) requests once, shuffled by the seed.  A run ends at
 * the first deck boundary after --seconds that also holds kMinRequests,
 * so every run does the same mix and the seed changes only the order
 * and the oracle's sample points.  The traced run executes a fixed
 * number of decks so its deterministic counters repeat exactly.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.hh"
#include "sim/sweep_session.hh"
#include "trace/trace_hash.hh"
#include "workload/synthetic.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace bpsim;

/** Conditional branches per trace (the paper-scale default). */
constexpr std::uint64_t kColdBranches = 1'000'000;

const std::vector<std::string> &
coldProfiles()
{
    static const std::vector<std::string> profiles = {"real_gcc",
                                                      "mpeg_play"};
    return profiles;
}

struct ColdRequest
{
    std::size_t trace = 0;
    SchemeKind kind = SchemeKind::GAs;
    SweepOptions options;
    /** Identifies requests whose responses must be bit-identical. */
    std::string key;
};

ColdRequest
coldRequest(std::size_t trace, SchemeKind kind, bool track_aliasing)
{
    ColdRequest req;
    req.trace = trace;
    req.kind = kind;
    req.options.threads = 0;
    req.options.trackAliasing = track_aliasing;
    req.key = coldProfiles()[trace] + "/" + schemeKindName(kind) +
              (track_aliasing ? "" : "/no-aliasing");
    return req;
}

/** paper_cold: the paper's seven schemes with default options, which
 *  track aliasing and so take the per-config kernel. */
std::vector<ColdRequest>
paperDeck(std::size_t)
{
    std::vector<ColdRequest> deck;
    for (std::size_t t = 0; t < coldProfiles().size(); ++t) {
        for (SchemeKind kind :
             {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
              SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
              SchemeKind::PAsFinite})
            deck.push_back(coldRequest(t, kind, true));
    }
    return deck;
}

/** grid_cold: 2-bit schemes without aliasing tracking (fused lane
 *  kernel) plus the zoo with default options (batched model lanes).
 *  A zoo sweep costs several 2-bit sweeps, so each deck holds one TAGE
 *  and one perceptron request, on alternating traces. */
std::vector<ColdRequest>
gridDeck(std::size_t deck_index)
{
    std::vector<ColdRequest> deck;
    for (std::size_t t = 0; t < coldProfiles().size(); ++t) {
        for (SchemeKind kind : {SchemeKind::GAs, SchemeKind::Gshare,
                                SchemeKind::Path, SchemeKind::PAsFinite})
            deck.push_back(coldRequest(t, kind, false));
    }
    const std::size_t traces = coldProfiles().size();
    deck.push_back(coldRequest(deck_index % traces, SchemeKind::Tage, true));
    deck.push_back(
        coldRequest((deck_index + 1) % traces, SchemeKind::Perceptron, true));
    return deck;
}

/** What set-up leaves for the timed loop. */
struct ColdSetup
{
    std::unique_ptr<SweepSession> session;
    /** Interned traces; the handles keep the bytes for the oracle. */
    std::vector<TraceHandle> traces;
    std::vector<std::shared_ptr<const PreparedTrace>> prepared;
};

ColdSetup
setUp(std::uint64_t branches, SpanRecorder &rec)
{
    ColdSetup setup;
    setup.session = std::make_unique<SweepSession>();
    for (const std::string &profile : coldProfiles()) {
        MemoryTrace trace("");
        {
            SpanRecorder::Scope span(rec, "workload.generate");
            trace = generateProfileTrace(profile, branches);
        }
        if (rec.enabled()) {
            // Probe: interning hashes the content itself, so this
            // separate call only attributes that share.
            SpanRecorder::Scope span(rec, "trace.hash");
            static_cast<void>(traceHash(trace));
        }
        {
            SpanRecorder::Scope span(rec, "trace.intern");
            setup.traces.push_back(
                setup.session->internTrace(std::move(trace)));
        }
        SpanRecorder::Scope span(rec, "sim.prepare");
        Result<std::shared_ptr<const PreparedTrace>> prep =
            setup.session->prepared(setup.traces.back().hash);
        if (!prep.ok())
            throw std::runtime_error("prepare " + profile + ": " +
                                     prep.error().message());
        setup.prepared.push_back(prep.value());
    }
    return setup;
}

std::uint64_t
resultDigest(const SweepResult &result)
{
    Digest digest;
    for (const Surface *surface :
         {&result.misprediction, &result.aliasing, &result.harmless}) {
        for (const SurfaceTier &tier : surface->tiers()) {
            for (const SurfacePoint &pt : tier.points) {
                digest.add(tier.totalBits);
                digest.add(pt.rowBits);
                digest.add(pt.colBits);
                digest.addDouble(pt.value);
            }
        }
        digest.add(~std::uint64_t{0});
    }
    digest.addDouble(result.bhtMissRate);
    return digest.value();
}

std::size_t
cellCount(const Surface &surface)
{
    std::size_t cells = 0;
    for (const SurfaceTier &tier : surface.tiers())
        cells += tier.points.size();
    return cells;
}

/** One completed request of the timed loop. */
struct Served
{
    std::size_t request = 0; ///< index into the run's request list
    std::size_t deck = 0;
    std::optional<SweepResult> result;
    std::string error;
};

RunRecord
runCold(const RunOptions &opts,
        std::vector<ColdRequest> (*make_deck)(std::size_t))
{
    RunRecord record;
    SpanRecorder rec(opts.trace);
    SpanRecorder untraced(false);
    const std::uint64_t branches =
        opts.branches ? opts.branches : kColdBranches;

    // Set-up, repeated; only the last repetition's session is kept and
    // only its spans are recorded.
    std::vector<double> setup_times;
    ColdSetup setup;
    for (unsigned i = 0; i < kSetupsBefore; ++i) {
        const double start = i == 0 ? opts.startTime : now();
        setup = ColdSetup{};
        setup = setUp(branches, i + 1 == kSetupsBefore ? rec : untraced);
        setup_times.push_back(now() - start);
    }

    // Timed region.
    Rng rng(deriveSeed(opts.seed, 1));
    const std::size_t deck_size = make_deck(0).size();
    const std::size_t traced_decks =
        (kMinRequests + deck_size - 1) / deck_size;
    std::vector<ColdRequest> requests;
    std::vector<Served> served;
    EndToEnd e2e;
    const unsigned threads = ThreadPool::resolveThreads(0);
    double stream_builds = 0;
    const double t0 = now();
    for (std::size_t d = 0;; ++d) {
        const bool done =
            opts.trace ? d >= traced_decks
                       : served.size() >= kMinRequests &&
                             now() - t0 >= opts.seconds;
        if (done)
            break;
        std::vector<ColdRequest> deck = make_deck(d);
        rng.shuffle(deck);
        const double deck_start = now();
        const double deck_cpu = processCpuSeconds();
        for (ColdRequest &req : deck) {
            const std::uint64_t id = requests.size();
            const SweepRequest sweep{setup.traces[req.trace].hash, req.kind,
                                     req.options, true};
            Served out;
            out.request = id;
            out.deck = d;
            double latency = 0.0;
            {
                SpanRecorder::Scope span(rec, "sim.session");
                const double a = now();
                Result<SweepResponse> resp = setup.session->sweep(sweep);
                latency = now() - a;
                if (resp.ok())
                    out.result = std::move(resp.value().result);
                else
                    out.error = resp.error().message();
            }
            e2e.latency.add(latency);
            if (rec.enabled()) {
                // Probes: repeat, on the same inputs, the public calls
                // the session makes inside sweep(), so their share of
                // the request can be subtracted from its span.
                {
                    SpanRecorder::Scope span(rec, "sim.session.own");
                    static_cast<void>(SweepSession::cacheKey(sweep));
                    static_cast<void>(
                        setup.session->prepared(sweep.trace));
                }
                std::vector<ConfigJob> jobs;
                {
                    SpanRecorder::Scope span(rec, "sim.plan");
                    jobs = planSweep(req.kind, req.options);
                }
                SpanRecorder::Scope span(rec, "sim.streams");
                StreamCache streams(*setup.prepared[req.trace],
                                    req.options);
                streams.prepare(jobs, threads);
                stream_builds += static_cast<double>(streams.streamBuilds());
            }
            requests.push_back(std::move(req));
            served.push_back(std::move(out));
        }
        Window window;
        window.seconds = now() - deck_start;
        window.cpuSeconds = processCpuSeconds() - deck_cpu;
        e2e.windows.push_back(window);
    }
    e2e.timedSeconds = now() - t0;
    e2e.peakRssMb = processPeakRssMb();
    // The remaining set-ups, now that peak RSS is read.
    for (unsigned i = 0; i < kSetupsAfter; ++i) {
        const double start = now();
        static_cast<void>(setUp(branches, untraced));
        setup_times.push_back(now() - start);
    }
    e2e.setupSeconds = median(setup_times);
    for (std::size_t i = 0; i < setup_times.size(); ++i)
        record.details["setup_s." + std::to_string(i)] = setup_times[i];
    record.attempted = served.size();

    // Verification, outside the timed region.  Every response must be
    // bit-identical to the first one with its key ...
    std::vector<char> bad(served.size(), 0);
    std::map<std::string, std::size_t> first; // key -> index into served
    for (Served &s : served) {
        const std::string &key = requests[s.request].key;
        if (!s.result) {
            bad[s.request] = 1;
            record.note(key + ": " + s.error);
            continue;
        }
        auto [it, inserted] = first.emplace(key, s.request);
        if (!inserted && resultDigest(*s.result) !=
                             resultDigest(*served[it->second].result)) {
            bad[s.request] = 1;
            record.note(key + ": response differs from the first "
                              "response with the same key");
        }
    }

    // ... its lattice must be the planned one, and a seeded sample of its
    // points per scheme must match the naive reference model.  A key
    // that fails either check fails every request that carried it.
    auto fail_key = [&](const std::string &key, const std::string &why) {
        record.note(why);
        for (const Served &s : served)
            if (requests[s.request].key == key)
                bad[s.request] = 1;
    };
    Rng sample(deriveSeed(opts.seed, 2));
    std::vector<OracleCheck> checks;
    std::map<std::string, std::string> label_key;
    for (const auto &[key, index] : first) {
        const ColdRequest &req = requests[index];
        const SweepResult &result = *served[index].result;
        if (cellCount(result.misprediction) !=
            planSweep(req.kind, req.options).size()) {
            fail_key(key, key + ": surface does not cover the planned "
                                "lattice");
            continue;
        }
        std::vector<const SurfacePoint *> points;
        for (const SurfaceTier &tier : result.misprediction.tiers())
            for (const SurfacePoint &pt : tier.points)
                points.push_back(&pt);
        const bool zoo =
            req.kind == SchemeKind::Tage || req.kind == SchemeKind::Perceptron;
        for (int n = zoo ? 1 : 2; n > 0; --n) {
            const SurfacePoint &pt = *points[sample.below(points.size())];
            OracleCheck check;
            check.label = key + " r=" + std::to_string(pt.rowBits) +
                          " c=" + std::to_string(pt.colBits);
            check.trace = setup.traces[req.trace].trace.get();
            check.kind = req.kind;
            check.rowBits = pt.rowBits;
            check.colBits = pt.colBits;
            check.options = req.options;
            check.engineValue = pt.value;
            label_key[check.label] = key;
            checks.push_back(std::move(check));
        }
    }
    for (const std::string &problem : runOracleChecks(checks))
        fail_key(label_key[problem.substr(0, problem.find(':'))], problem);

    std::map<std::string, std::vector<double>> key_latency;
    for (const Served &s : served)
        key_latency[requests[s.request].key].push_back(
            1e3 * e2e.latency.samples[s.request]);
    for (const auto &[key, ms] : key_latency)
        record.details["latency_p50_ms." + key] = median(ms);

    KernelTelemetry kernel;
    for (const Served &s : served) {
        if (bad[s.request]) {
            ++record.failed;
            continue;
        }
        const ColdRequest &req = requests[s.request];
        Window &window = e2e.windows[s.deck];
        window.requests += 1;
        window.branchConfigs +=
            static_cast<double>(cellCount(s.result->misprediction)) *
            static_cast<double>(setup.prepared[req.trace]->size());
        kernel.merge(s.result->kernel);
    }
    record.details["oracle_checks"] = static_cast<double>(checks.size());
    record.details["distinct_keys"] = static_cast<double>(first.size());
    record.details["decks"] =
        static_cast<double>(served.size()) / static_cast<double>(deck_size);
    reportEndToEnd(e2e, record);

    if (!rec.enabled())
        return record;

    // Per-layer metrics of the traced run.
    const double traced = e2e.timedSeconds;
    record.set("workload.generate_s", rec.total("workload.generate"), "s");
    record.set("workload.traces",
               static_cast<double>(rec.count("workload.generate")), "count");
    record.set("trace.hash_s", rec.total("trace.hash"), "s");
    record.set("trace.intern_s", rec.total("trace.intern"), "s");
    record.set("sim.prepare_s", rec.total("sim.prepare"), "s");
    double bytes = 0.0, prepared_branches = 0.0;
    for (const auto &prep : setup.prepared) {
        bytes += prep->bytesPerBranch() * static_cast<double>(prep->size());
        prepared_branches += static_cast<double>(prep->size());
    }
    record.set("sim.prepared_bytes_per_branch",
               prepared_branches > 0 ? bytes / prepared_branches : 0.0,
               "B");
    record.set("sim.prepared_branches", prepared_branches, "count");

    const double own = rec.total("sim.session.own");
    const double plan = rec.total("sim.plan");
    const double streams = rec.total("sim.streams");
    const double session = rec.total("sim.session");
    record.set("sim.session_s", own, "s");
    record.set("sim.plan_s", plan, "s");
    record.set("sim.streams_s", streams, "s");
    record.set("sim.stream_builds", stream_builds, "count");
    record.set("sim.replay_s",
               std::max(0.0, session - own - plan - streams), "s");
    record.set("sim.branch_configs", record.details["branch_configs"],
               "count");
    record.set("sim.fallback_jobs", PERFBENCH_FIELD(kernel, fallbackJobs),
               "count");
    const double fused = PERFBENCH_FIELD(kernel, fusedGroups);
    const double model = PERFBENCH_FIELD(kernel, modelGroups);
    const double lanes = PERFBENCH_FIELD(kernel, lanes) +
                         PERFBENCH_FIELD(kernel, modelLanes);
    record.set("sim.fused_groups", fused, "count");
    record.set("sim.model_groups", model, "count");
    record.set("sim.lanes", lanes, "count");
    record.set("sim.lanes_per_group",
               fused + model > 0 ? lanes / (fused + model) : 0.0, "count");
    record.set("sim.lane_batches", PERFBENCH_FIELD(kernel, laneBatches),
               "count");
    record.set("sim.model_batches", PERFBENCH_FIELD(kernel, modelBatches),
               "count");
    record.set("sim.blocks_replayed",
               PERFBENCH_FIELD(kernel, blocksReplayed), "count");
    record.set("sim.busy_s", PERFBENCH_FIELD(kernel, busySeconds), "s");
    record.set("sim.worker_utilization",
               PERFBENCH_FIELD(kernel, workerUtilization()), "fraction");

    const ResultCache::Stats cache = setup.session->cache().stats();
    record.set("cache.hits", static_cast<double>(cache.hits()), "count");
    record.set("cache.disk_hits", static_cast<double>(cache.diskHits),
               "count");
    record.set("cache.misses", static_cast<double>(cache.misses), "count");
    record.set("cache.store_failures",
               static_cast<double>(cache.storeFailures), "count");

    record.set("tracing.overhead_s", own + plan + streams, "s");
    record.set("tracing.overhead_frac",
               traced > 0 ? (own + plan + streams) / traced : 0.0,
               "fraction");
    record.set("tracing.timed_s", traced, "s");
    return record;
}

} // namespace

RunRecord
runPaperCold(const RunOptions &opts)
{
    return runCold(opts, paperDeck);
}

RunRecord
runGridCold(const RunOptions &opts)
{
    return runCold(opts, gridDeck);
}

} // namespace perfbench
