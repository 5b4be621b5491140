#include "sim/experiment.hh"

#include <sstream>

#include "common/logging.hh"
#include "workload/synthetic.hh"

namespace bpsim {

PreparedTrace
prepareProfile(const std::string &profile,
               std::uint64_t target_conditionals)
{
    MemoryTrace trace =
        generateProfileTrace(profile, target_conditionals);
    return PreparedTrace(trace);
}

SweepOptions
paperSweepOptions()
{
    SweepOptions opts;
    opts.minTotalBits = 4;  // 16 counters, the rearmost tier
    opts.maxTotalBits = 15; // 32768 counters, the frontmost tier
    opts.trackAliasing = true;
    return opts;
}

std::vector<Table3SchemeSpec>
table3Plan(const Table3Options &opts)
{
    bpsim_assert(!opts.budgetBits.empty(), "no budgets requested");

    SweepOptions sweep_opts;
    sweep_opts.trackAliasing = false; // Table 3 reports misprediction
    sweep_opts.threads = opts.threads;
    unsigned lo = opts.budgetBits.front();
    unsigned hi = opts.budgetBits.front();
    for (unsigned b : opts.budgetBits) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
    }
    sweep_opts.minTotalBits = lo;
    sweep_opts.maxTotalBits = hi;

    std::vector<Table3SchemeSpec> plan = {
        {"GAs", SchemeKind::GAs, sweep_opts},
        {"gshare", SchemeKind::Gshare, sweep_opts},
        {"PAs(inf)", SchemeKind::PAsPerfect, sweep_opts},
    };
    for (std::size_t entries : opts.bhtSizes) {
        SweepOptions finite = sweep_opts;
        finite.bhtEntries = entries;
        finite.bhtAssoc = opts.bhtAssoc;
        std::ostringstream name;
        if (entries % 1024 == 0)
            name << "PAs(" << entries / 1024 << "k)";
        else
            name << "PAs(" << entries << ")";
        plan.push_back({name.str(), SchemeKind::PAsFinite, finite});
    }
    return plan;
}

BestConfigRow
bestConfigRowFromSweep(const Table3SchemeSpec &spec,
                       const SweepResult &sweep,
                       const std::vector<unsigned> &budget_bits)
{
    BestConfigRow row;
    row.scheme = spec.name;
    row.bhtMissRate = spec.kind == SchemeKind::PAsFinite
                          ? sweep.bhtMissRate
                          : -1.0;
    for (unsigned bits : budget_bits) {
        auto best = sweep.misprediction.bestInTier(bits);
        if (best) {
            row.best.push_back(
                BestConfig{best->rowBits, best->colBits, best->value});
        } else {
            row.best.push_back(std::nullopt);
        }
    }
    return row;
}

} // namespace bpsim
