#include "sim/engine.hh"

namespace bpsim {

PredictionStats
runPredictor(TraceSource &source, BranchPredictor &predictor,
             bool track_sites)
{
    PredictionStats stats(track_sites);
    BranchRecord rec;
    while (source.next(rec)) {
        if (!rec.isConditional())
            continue;
        bool prediction = predictor.onBranch(rec);
        stats.record(rec.pc, rec.taken, prediction);
    }
    return stats;
}

} // namespace bpsim
