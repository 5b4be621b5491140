#include "verify/differential.hh"

#include <set>
#include <sstream>
#include <stdexcept>

#include "common/random.hh"
#include "common/simd.hh"
#include "predictor/factory.hh"
#include "sim/sweep.hh"
#include "workload/synthetic.hh"

namespace bpsim::verify {

namespace {

/** Cap on stored mismatch reports; the fuzzer keeps running for
 *  coverage but a handful of full state dumps is plenty. */
constexpr std::size_t maxStoredProblems = 4;

const char *
policyField(RefResetPolicy policy)
{
    switch (policy) {
      case RefResetPolicy::C3ffPrefix: return "c3ff";
      case RefResetPolicy::Zeros: return "zeros";
      case RefResetPolicy::Ones: return "ones";
      case RefResetPolicy::Hold: return "hold";
    }
    return "?";
}

BhtResetPolicy
enginePolicy(RefResetPolicy policy)
{
    switch (policy) {
      case RefResetPolicy::C3ffPrefix: return BhtResetPolicy::C3ffPrefix;
      case RefResetPolicy::Zeros: return BhtResetPolicy::Zeros;
      case RefResetPolicy::Ones: return BhtResetPolicy::Ones;
      case RefResetPolicy::Hold: return BhtResetPolicy::Hold;
    }
    return BhtResetPolicy::C3ffPrefix;
}

/** The sweep-engine scheme for a core reference scheme, if any. */
std::optional<SchemeKind>
sweepKind(RefScheme scheme)
{
    switch (scheme) {
      case RefScheme::AddressIndexed: return SchemeKind::AddressIndexed;
      case RefScheme::GAg: return SchemeKind::GAg;
      case RefScheme::GAs: return SchemeKind::GAs;
      case RefScheme::Gshare: return SchemeKind::Gshare;
      case RefScheme::Path: return SchemeKind::Path;
      case RefScheme::PAsPerfect: return SchemeKind::PAsPerfect;
      case RefScheme::PAsFinite: return SchemeKind::PAsFinite;
      case RefScheme::Tage: return SchemeKind::Tage;
      case RefScheme::Perceptron: return SchemeKind::Perceptron;
      default: return std::nullopt;
    }
}

} // namespace

RefConfig
sweepRefConfig(const ConfigJob &job, const SweepOptions &opts)
{
    RefConfig config;
    switch (job.kind) {
      case SchemeKind::AddressIndexed:
        config.scheme = RefScheme::AddressIndexed;
        break;
      case SchemeKind::GAg: config.scheme = RefScheme::GAg; break;
      case SchemeKind::GAs: config.scheme = RefScheme::GAs; break;
      case SchemeKind::Gshare: config.scheme = RefScheme::Gshare; break;
      case SchemeKind::Path: config.scheme = RefScheme::Path; break;
      case SchemeKind::PAsPerfect:
        config.scheme = RefScheme::PAsPerfect;
        break;
      case SchemeKind::PAsFinite:
        config.scheme = RefScheme::PAsFinite;
        break;
      case SchemeKind::Tage: config.scheme = RefScheme::Tage; break;
      case SchemeKind::Perceptron:
        config.scheme = RefScheme::Perceptron;
        break;
    }
    config.rowBits = job.rowBits;
    config.colBits = job.colBits;
    config.pathBitsPerTarget = opts.pathBitsPerTarget;
    config.bhtEntries = opts.bhtEntries;
    config.bhtAssoc = opts.bhtAssoc;
    switch (opts.bhtResetPolicy) {
      case BhtResetPolicy::C3ffPrefix:
        config.bhtResetPolicy = RefResetPolicy::C3ffPrefix;
        break;
      case BhtResetPolicy::Zeros:
        config.bhtResetPolicy = RefResetPolicy::Zeros;
        break;
      case BhtResetPolicy::Ones:
        config.bhtResetPolicy = RefResetPolicy::Ones;
        break;
      case BhtResetPolicy::Hold:
        config.bhtResetPolicy = RefResetPolicy::Hold;
        break;
    }
    config.tagBits = opts.tageTagBits;
    config.tageHistories = opts.tageHistories;
    config.perceptronTables = opts.perceptronTables;
    return config;
}

std::string
DiffMismatch::describe() const
{
    std::ostringstream os;
    os << "engine/reference divergence for '" << spec << "' on trace '"
       << traceName << "' at conditional #" << index << " (pc 0x"
       << std::hex << pc << std::dec << ", outcome "
       << (taken ? "taken" : "not-taken") << "): engine predicted "
       << (enginePredicted ? "taken" : "not-taken")
       << ", reference predicted "
       << (referencePredicted ? "taken" : "not-taken")
       << "\n  reference state: " << referenceState;
    return os.str();
}

std::string
engineSpec(const RefConfig &config)
{
    std::ostringstream os;
    switch (config.scheme) {
      case RefScheme::AddressIndexed:
        os << "addr:" << config.colBits;
        break;
      case RefScheme::GAg:
        os << "GAg:" << config.rowBits;
        break;
      case RefScheme::GAs:
        os << "GAs:" << config.rowBits << ":" << config.colBits;
        break;
      case RefScheme::Gshare:
        os << "gshare:" << config.rowBits << ":" << config.colBits;
        break;
      case RefScheme::Path:
        os << "path:" << config.rowBits << ":" << config.colBits << ":"
           << config.pathBitsPerTarget;
        break;
      case RefScheme::PAsPerfect:
        os << "PAs:" << config.rowBits << ":" << config.colBits;
        break;
      case RefScheme::PAsFinite:
        if (config.bhtResetPolicy != RefResetPolicy::C3ffPrefix) {
            throw std::invalid_argument(
                std::string("the spec grammar cannot express a BHT "
                            "reset policy (wanted ") +
                policyField(config.bhtResetPolicy) + ")");
        }
        os << "PAs:" << config.rowBits << ":" << config.colBits << ":"
           << config.bhtEntries << ":" << config.bhtAssoc;
        break;
      case RefScheme::SAs:
        os << "SAs:" << config.rowBits << ":" << config.colBits << ":"
           << config.setBits;
        break;
      case RefScheme::Agree:
        os << "agree:" << config.indexBits << ":" << config.historyBits;
        break;
      case RefScheme::BiMode:
        os << "bimode:" << config.indexBits << ":" << config.choiceBits
           << ":" << config.historyBits;
        break;
      case RefScheme::Gskew:
        os << "gskew:" << config.indexBits << ":" << config.historyBits;
        break;
      case RefScheme::Tournament:
        if (config.components.size() != 2) {
            throw std::invalid_argument(
                "tournament needs exactly two components");
        }
        os << "tournament(" << engineSpec(config.components[0]) << ","
           << engineSpec(config.components[1])
           << "):" << config.choiceBits;
        break;
      case RefScheme::Tage:
        // Sweep-axis convention: rowBits = component entry bits,
        // colBits = base-table bits; the spec wants base first.
        os << "tage:" << config.colBits << ":" << config.rowBits << ":"
           << config.tagBits << ":";
        for (std::size_t i = 0; i < config.tageHistories.size(); ++i)
            os << (i ? "," : "") << config.tageHistories[i];
        break;
      case RefScheme::Perceptron:
        os << "perceptron:" << config.rowBits << ":" << config.colBits
           << ":" << config.perceptronTables;
        break;
    }
    return os.str();
}

std::optional<DiffMismatch>
diffPredictors(const RefConfig &config, const MemoryTrace &trace)
{
    std::string spec = engineSpec(config);
    auto engine = makePredictor(spec, /*track_aliasing=*/false);
    auto reference = makeReferencePredictor(config);

    std::size_t conditional_index = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &rec = trace[i];
        if (!rec.isConditional())
            continue;
        bool engine_prediction = engine->onBranch(rec);
        bool reference_prediction = reference->predictAndTrain(
            RefBranch{rec.pc, rec.target, rec.taken});
        if (engine_prediction != reference_prediction) {
            DiffMismatch m;
            m.spec = spec;
            m.traceName = trace.name();
            m.index = conditional_index;
            m.pc = rec.pc;
            m.taken = rec.taken;
            m.enginePredicted = engine_prediction;
            m.referencePredicted = reference_prediction;
            m.referenceState = reference->stateDump();
            return m;
        }
        ++conditional_index;
    }
    return std::nullopt;
}

double
referenceMispRate(const RefConfig &config, const MemoryTrace &trace)
{
    auto reference = makeReferencePredictor(config);
    std::uint64_t mispredicts = 0;
    std::uint64_t conditionals = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &rec = trace[i];
        if (!rec.isConditional())
            continue;
        bool prediction = reference->predictAndTrain(
            RefBranch{rec.pc, rec.target, rec.taken});
        if (prediction != rec.taken)
            ++mispredicts;
        ++conditionals;
    }
    return conditionals ? static_cast<double>(mispredicts) /
                              static_cast<double>(conditionals)
                        : 0.0;
}

namespace {

/** Randomize one configuration of the given scheme, small enough to
 *  keep a fuzzing pair fast but wide enough to hit corner widths. */
RefConfig
randomConfig(RefScheme scheme, Pcg32 &rng, bool include_variants)
{
    RefConfig cfg;
    cfg.scheme = scheme;
    cfg.rowBits = static_cast<unsigned>(rng.uniformInt(1, 8));
    cfg.colBits = static_cast<unsigned>(rng.uniformInt(0, 6));

    switch (scheme) {
      case RefScheme::AddressIndexed:
        cfg.rowBits = 0;
        cfg.colBits = static_cast<unsigned>(rng.uniformInt(2, 8));
        break;
      case RefScheme::GAg:
        cfg.colBits = 0;
        break;
      case RefScheme::Path:
        cfg.pathBitsPerTarget =
            static_cast<unsigned>(rng.uniformInt(1, 4));
        break;
      case RefScheme::PAsFinite: {
        cfg.bhtEntries = std::size_t{1} << rng.uniformInt(3, 7);
        unsigned assoc_log =
            static_cast<unsigned>(rng.uniformInt(0, 3));
        cfg.bhtAssoc = 1u << assoc_log;
        if (cfg.bhtAssoc > cfg.bhtEntries)
            cfg.bhtAssoc = static_cast<unsigned>(cfg.bhtEntries);
        // A quarter of the finite-BHT pairs exercise the non-default
        // reset policies (fast-path check only; the factory grammar
        // cannot spell them).
        if (include_variants && rng.bernoulli(0.25)) {
            switch (rng.nextBounded(3)) {
              case 0: cfg.bhtResetPolicy = RefResetPolicy::Zeros; break;
              case 1: cfg.bhtResetPolicy = RefResetPolicy::Ones; break;
              default: cfg.bhtResetPolicy = RefResetPolicy::Hold; break;
            }
        }
        break;
      }
      case RefScheme::SAs:
        cfg.setBits = static_cast<unsigned>(rng.uniformInt(1, 5));
        break;
      case RefScheme::Agree:
        cfg.indexBits = static_cast<unsigned>(rng.uniformInt(2, 8));
        cfg.historyBits = static_cast<unsigned>(rng.uniformInt(0, 10));
        break;
      case RefScheme::BiMode:
        cfg.indexBits = static_cast<unsigned>(rng.uniformInt(2, 7));
        cfg.choiceBits = static_cast<unsigned>(rng.uniformInt(2, 7));
        cfg.historyBits = static_cast<unsigned>(rng.uniformInt(0, 10));
        break;
      case RefScheme::Gskew:
        cfg.indexBits = static_cast<unsigned>(rng.uniformInt(1, 7));
        cfg.historyBits = static_cast<unsigned>(rng.uniformInt(0, 10));
        break;
      case RefScheme::Tage: {
        cfg.rowBits = static_cast<unsigned>(rng.uniformInt(1, 6));
        cfg.colBits = static_cast<unsigned>(rng.uniformInt(1, 6));
        cfg.tagBits = static_cast<unsigned>(rng.uniformInt(2, 10));
        cfg.tageHistories.clear();
        unsigned ncomp = static_cast<unsigned>(rng.uniformInt(1, 4));
        unsigned h = 0;
        for (unsigned j = 0; j < ncomp; ++j) {
            h += static_cast<unsigned>(rng.uniformInt(1, 10));
            cfg.tageHistories.push_back(h);
        }
        break;
      }
      case RefScheme::Perceptron:
        cfg.rowBits = static_cast<unsigned>(rng.uniformInt(1, 20));
        cfg.colBits = static_cast<unsigned>(rng.uniformInt(0, 6));
        cfg.perceptronTables =
            static_cast<unsigned>(rng.uniformInt(2, 6));
        break;
      case RefScheme::Tournament: {
        cfg.choiceBits = static_cast<unsigned>(rng.uniformInt(2, 6));
        static const RefScheme leaves[4] = {
            RefScheme::AddressIndexed, RefScheme::GAs,
            RefScheme::Gshare, RefScheme::PAsPerfect};
        cfg.components.push_back(randomConfig(
            leaves[rng.nextBounded(4)], rng, include_variants));
        cfg.components.push_back(randomConfig(
            leaves[rng.nextBounded(4)], rng, include_variants));
        break;
      }
      default:
        break;
    }
    return cfg;
}

/** Trace style 0: the synthetic workload builder with jittered knobs
 *  -- realistic structure (loops, calls, correlated groups). */
MemoryTrace
builderTrace(Pcg32 &rng, std::uint64_t branches, std::size_t id)
{
    WorkloadParams params;
    params.name = "fuzz-builder-" + std::to_string(id);
    params.seed = rng.next() | 1u;
    params.staticBranches =
        static_cast<std::size_t>(rng.uniformInt(80, 400));
    params.functionCount =
        static_cast<std::size_t>(rng.uniformInt(8, 40));
    params.targetConditionals = branches;
    params.loopFraction = 0.10 + 0.30 * rng.nextDouble();
    params.fixedTripFraction = 0.20 + 0.40 * rng.nextDouble();
    params.noise = 0.08 * rng.nextDouble();
    params.zipfExponent = 0.5 + rng.nextDouble();
    params.validate();
    return generateTrace(params);
}

/** Trace style 1: raw random streams -- per-site outcome models over
 *  scattered addresses, plus non-conditional records the predictors
 *  must skip. */
MemoryTrace
rawRandomTrace(Pcg32 &rng, std::uint64_t branches, std::size_t id)
{
    MemoryTrace trace("fuzz-raw-" + std::to_string(id));

    struct Site
    {
        std::uint64_t pc;
        std::uint64_t target;
        unsigned model;   // 0 bernoulli, 1 periodic, 2 correlated
        double bias;      // bernoulli probability
        unsigned period;  // periodic: taken run length before one exit
        unsigned phase = 0;
    };

    std::size_t site_count =
        static_cast<std::size_t>(rng.uniformInt(4, 64));
    std::vector<Site> sites;
    sites.reserve(site_count);
    for (std::size_t s = 0; s < site_count; ++s) {
        Site site;
        site.pc = 0x1000 + 4 * std::uint64_t{rng.nextBounded(4096)};
        site.target = 0x1000 + 4 * std::uint64_t{rng.nextBounded(4096)};
        site.model = rng.nextBounded(3);
        site.bias = rng.nextDouble();
        site.period = static_cast<unsigned>(rng.uniformInt(2, 8));
        sites.push_back(site);
    }

    bool last_outcome = false;
    for (std::uint64_t i = 0; i < branches; ++i) {
        // Roughly a tenth of the stream is non-conditional transfers,
        // which every predictor path must ignore.
        if (rng.bernoulli(0.1)) {
            BranchRecord skip;
            skip.pc = 0x8000 + 4 * std::uint64_t{rng.nextBounded(1024)};
            skip.target =
                0x8000 + 4 * std::uint64_t{rng.nextBounded(1024)};
            switch (rng.nextBounded(3)) {
              case 0: skip.type = BranchType::Unconditional; break;
              case 1: skip.type = BranchType::Call; break;
              default: skip.type = BranchType::Return; break;
            }
            skip.taken = true;
            trace.append(skip);
        }

        Site &site = sites[rng.nextBounded(
            static_cast<std::uint32_t>(sites.size()))];
        bool taken = false;
        switch (site.model) {
          case 0:
            taken = rng.bernoulli(site.bias);
            break;
          case 1:
            // Loop-like: period-1 taken iterations, then one exit.
            taken = (site.phase + 1) % site.period != 0;
            ++site.phase;
            break;
          default:
            // Correlated with the previous branch in the stream.
            taken = rng.bernoulli(0.15) ? !last_outcome : last_outcome;
            break;
        }
        BranchRecord rec;
        rec.pc = site.pc;
        rec.target = site.target;
        rec.type = BranchType::Conditional;
        rec.taken = taken;
        trace.append(rec);
        last_outcome = taken;
    }
    return trace;
}

/** Trace style 2: adversarial aliasing -- a handful of sites whose
 *  word indices collide in every low bit window, with loop-flavoured
 *  outcome patterns that stress history wrap and BHT displacement. */
MemoryTrace
aliasingTrace(Pcg32 &rng, std::uint64_t branches, std::size_t id)
{
    MemoryTrace trace("fuzz-alias-" + std::to_string(id));

    std::size_t site_count = std::size_t{1}
                             << rng.uniformInt(1, 3);
    unsigned stride_bits = static_cast<unsigned>(rng.uniformInt(4, 8));
    std::vector<unsigned> phases(site_count, 0);
    std::vector<unsigned> periods(site_count);
    for (std::size_t s = 0; s < site_count; ++s)
        periods[s] = static_cast<unsigned>(rng.uniformInt(2, 6));

    for (std::uint64_t i = 0; i < branches; ++i) {
        std::size_t s = rng.nextBounded(
            static_cast<std::uint32_t>(site_count));
        // Sites share every address bit below the stride, so short
        // column windows and BHT sets all collide.
        std::uint64_t word =
            (std::uint64_t{s} << stride_bits) | (i % 2);
        BranchRecord rec;
        rec.pc = word * 4;
        rec.target = rec.pc + 64;
        rec.type = BranchType::Conditional;
        rec.taken = (phases[s] + 1) % periods[s] != 0;
        ++phases[s];
        trace.append(rec);
    }
    return trace;
}

} // namespace

std::string
FuzzReport::summary() const
{
    std::ostringstream os;
    os << pairsRun << " (trace, config) pairs; schemes:";
    for (const std::string &s : schemesCovered)
        os << " " << s;
    os << "\n" << mismatches.size() << " online mismatches, "
       << fastPathProblems.size() << " fast-path problems";
    for (const DiffMismatch &m : mismatches)
        os << "\n" << m.describe();
    for (const std::string &p : fastPathProblems)
        os << "\n" << p;
    return os.str();
}

FuzzReport
runDifferentialFuzzer(const FuzzOptions &options)
{
    std::vector<RefScheme> schemes = {
        RefScheme::AddressIndexed, RefScheme::GAg,
        RefScheme::GAs,            RefScheme::Gshare,
        RefScheme::Path,           RefScheme::PAsPerfect,
        RefScheme::PAsFinite,      RefScheme::Tage,
        RefScheme::Perceptron,
    };
    if (options.includeVariants) {
        schemes.insert(schemes.end(),
                       {RefScheme::SAs, RefScheme::Agree,
                        RefScheme::BiMode, RefScheme::Gskew,
                        RefScheme::Tournament});
    }
    if (!options.onlySchemes.empty())
        schemes = options.onlySchemes;

    FuzzReport report;
    std::set<std::string> covered;

    for (std::size_t pair = 0; pair < options.pairs; ++pair) {
        // One independent generator per pair: any pair can be replayed
        // in isolation from (seed, pair index) alone.
        Pcg32 rng(options.seed + 0x9E3779B97F4A7C15ULL * (pair + 1),
                  pair);

        RefScheme scheme = schemes[pair % schemes.size()];
        RefConfig config =
            randomConfig(scheme, rng, options.includeVariants);
        covered.insert(refSchemeName(scheme));

        std::uint64_t branches = static_cast<std::uint64_t>(
            rng.uniformInt(static_cast<std::int64_t>(
                               options.minBranches),
                           static_cast<std::int64_t>(
                               options.maxBranches)));
        MemoryTrace trace = [&] {
            switch (rng.nextBounded(3)) {
              case 0: return builderTrace(rng, branches, pair);
              case 1: return rawRandomTrace(rng, branches, pair);
              default: return aliasingTrace(rng, branches, pair);
            }
        }();

        // Layer 1: engine predictor vs reference, branch by branch.
        // Finite-BHT configs with a non-default reset policy have no
        // spec spelling; they are covered by layer 2 alone.
        bool spec_expressible =
            !(config.scheme == RefScheme::PAsFinite &&
              config.bhtResetPolicy != RefResetPolicy::C3ffPrefix);
        if (spec_expressible) {
            if (auto mismatch = diffPredictors(config, trace);
                mismatch &&
                report.mismatches.size() < maxStoredProblems) {
                report.mismatches.push_back(std::move(*mismatch));
            }
        }

        // Layer 2: sweep fast paths vs reference misprediction rate.
        // Every lane engine is held to exact equality: simulateConfig
        // with aliasing tracked (the 2-bit engine, or the model engine
        // for zoo schemes), then an untracked full lane batch.
        if (options.crossCheckFastPath) {
            if (auto kind = sweepKind(scheme)) {
                SweepOptions sweep;
                sweep.trackAliasing = true;
                sweep.pathBitsPerTarget = config.pathBitsPerTarget;
                sweep.bhtEntries = config.bhtEntries;
                sweep.bhtAssoc = config.bhtAssoc;
                sweep.bhtResetPolicy =
                    enginePolicy(config.bhtResetPolicy);
                sweep.tageTagBits = config.tagBits;
                sweep.tageHistories = config.tageHistories;
                sweep.perceptronTables = config.perceptronTables;
                sweep.threads = 1;
                PreparedTrace prepared(trace);
                ConfigResult result =
                    simulateConfig(prepared, *kind, config.rowBits,
                                   config.colBits, sweep);
                double reference_rate =
                    referenceMispRate(config, trace);
                if (result.mispRate != reference_rate &&
                    report.fastPathProblems.size() <
                        maxStoredProblems) {
                    std::ostringstream os;
                    os << "sweep kernel disagrees with reference for "
                       << schemeKindName(*kind) << " r="
                       << config.rowBits << " c=" << config.colBits
                       << " policy="
                       << policyField(config.bhtResetPolicy)
                       << " on trace '" << trace.name()
                       << "': kernel " << result.mispRate
                       << " vs reference " << reference_rate;
                    report.fastPathProblems.push_back(os.str());
                }

                // The untracked path is checked on a full lane batch
                // of copies of the config, on the host's kernel, every
                // lane held to exact equality with the reference rate.
                SweepOptions untracked = sweep;
                untracked.trackAliasing = false;
                const std::vector<ConfigJob> jobs(
                    AliasBatch::kMaxLanes,
                    ConfigJob{*kind, config.rowBits + config.colBits,
                              config.rowBits, config.colBits});
                StreamCache cache(prepared, untracked);
                std::vector<ConfigResult> slots(jobs.size());
                for (const FusedGroup &group : planFusedGroups(jobs, 1))
                    runFusedGroup(group, jobs, cache, slots.data());
                for (const ConfigResult &lane : slots) {
                    if (lane.mispRate == reference_rate ||
                        report.fastPathProblems.size() >=
                            maxStoredProblems)
                        continue;
                    std::ostringstream os;
                    os << "untracked "
                       << simdTargetName(resolveSimdTarget())
                       << " lane batch disagrees with reference for "
                       << schemeKindName(*kind) << " r="
                       << config.rowBits << " c=" << config.colBits
                       << " policy="
                       << policyField(config.bhtResetPolicy)
                       << " on trace '" << trace.name()
                       << "': kernel " << lane.mispRate
                       << " vs reference " << reference_rate;
                    report.fastPathProblems.push_back(os.str());
                    break;
                }
            }
        }

        ++report.pairsRun;
    }

    report.schemesCovered.assign(covered.begin(), covered.end());
    return report;
}

} // namespace bpsim::verify
