/**
 * @file
 * The trace-driven simulation loop: replay a trace through a predictor,
 * collecting prediction statistics.  Conditional branches are predicted
 * and trained; other control transfers pass through untouched (the
 * predictors studied here are direction predictors).
 */

#ifndef BPSIM_SIM_ENGINE_HH
#define BPSIM_SIM_ENGINE_HH

#include "predictor/predictor.hh"
#include "stats/prediction_stats.hh"
#include "trace/trace_source.hh"

namespace bpsim {

/**
 * Replay @p source through @p predictor.
 * @param track_sites keep a per-static-branch breakdown
 * @return aggregate prediction statistics
 */
PredictionStats runPredictor(TraceSource &source,
                             BranchPredictor &predictor,
                             bool track_sites = false);

} // namespace bpsim

#endif // BPSIM_SIM_ENGINE_HH
