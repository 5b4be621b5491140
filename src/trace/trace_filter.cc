#include "trace/trace_filter.hh"

#include "common/logging.hh"

namespace bpsim {

FilteredTrace::FilteredTrace(TraceSource &source_, Filter filter_,
                             std::string name)
    : source(source_), filter(std::move(filter_)),
      name_(std::move(name))
{
    bpsim_assert(filter != nullptr, "filtered trace needs a predicate");
}

bool
FilteredTrace::next(BranchRecord &out)
{
    std::uint64_t accumulated_gap = 0;
    BranchRecord rec;
    while (source.next(rec)) {
        if (!filter(rec)) {
            // Fold the dropped record's instructions into the gap.
            accumulated_gap +=
                static_cast<std::uint64_t>(rec.instGap) + 1;
            ++dropped_;
            continue;
        }
        std::uint64_t gap = accumulated_gap + rec.instGap;
        rec.instGap = gap > 0xffffffffULL
                          ? 0xffffffffU
                          : static_cast<std::uint32_t>(gap);
        out = rec;
        return true;
    }
    return false;
}

void
FilteredTrace::reset()
{
    source.reset();
    dropped_ = 0;
}

FilteredTrace
userOnly(TraceSource &source)
{
    return FilteredTrace(
        source, [](const BranchRecord &r) { return !r.kernel; },
        source.name() + ".user");
}

FilteredTrace
kernelOnly(TraceSource &source)
{
    return FilteredTrace(
        source, [](const BranchRecord &r) { return r.kernel; },
        source.name() + ".kernel");
}

} // namespace bpsim
