#include "workload/trace_key.hh"

#include "workload/profiles.hh"
#include "workload/synthetic.hh"

namespace bpsim {

namespace {

Error
unknownProfile(const std::string &profile)
{
    std::string known;
    for (const std::string &name : profileNames()) {
        if (!known.empty())
            known += ", ";
        known += name;
    }
    return BPSIM_ERROR("unknown workload profile '", profile,
                       "' (one of: ", known, ")");
}

} // namespace

TraceHash
syntheticTraceKey(const WorkloadParams &p)
{
    // Every generation-relevant field, in declaration order.  A new
    // WorkloadParams field must be added here AND the domain version
    // bumped (old keys describe traces the new generator no longer
    // reproduces).
    HashStream h("bpsim.trace.synthetic.v1");
    h.str(p.name);
    h.u64(p.seed);
    h.u64(p.staticBranches);
    h.u64(p.functionCount);
    h.f64(p.meanBlockLen);
    h.f64(p.callDensity);
    h.u32(p.maxNestDepth);
    h.f64(p.zipfExponent);
    h.f64(p.uniformPickFraction);
    h.f64(p.driverBurstMean);
    h.f64(p.kernelFraction);
    h.f64(p.loopFraction);
    h.f64(p.meanTripsHot);
    h.f64(p.meanTripsCold);
    h.f64(p.loopDepthDecay);
    h.f64(p.topTestFraction);
    h.f64(p.fixedTripFraction);
    h.u32(p.fixedTripMin);
    h.u32(p.fixedTripMax);
    h.f64(p.tripJitterProb);
    h.u32(p.minHomeTrips);
    h.f64(p.tightLoopFraction);
    h.f64(p.hardContentDepthScale);
    h.f64(p.correlatedDepthScale);
    h.u32(p.shadowMaxDepth);
    h.f64(p.fracPattern);
    h.f64(p.fracCorrelated);
    h.f64(p.fracShadow);
    h.f64(p.fracMarkov);
    h.f64(p.fracLowBias);
    h.f64(p.highBiasMin);
    h.f64(p.highBiasMax);
    h.f64(p.lowBiasMin);
    h.f64(p.lowBiasMax);
    h.f64(p.noise);
    h.u64(p.targetConditionals);
    return h.digest();
}

Result<TraceHash>
profileTraceKey(const std::string &profile,
                std::uint64_t target_conditionals)
{
    if (!isProfileName(profile))
        return unknownProfile(profile);
    return syntheticTraceKey(
        profileParams(profile, target_conditionals));
}

Result<TraceHandle>
internProfile(TraceRegistry &registry, const std::string &profile,
              std::uint64_t target_conditionals)
{
    if (!isProfileName(profile))
        return unknownProfile(profile);
    return internParams(registry,
                        profileParams(profile, target_conditionals));
}

TraceHandle
internParams(TraceRegistry &registry, const WorkloadParams &params)
{
    return registry.internSynthetic(
        syntheticTraceKey(params),
        [&params] { return generateTrace(params); });
}

} // namespace bpsim
