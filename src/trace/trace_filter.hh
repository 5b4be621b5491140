/**
 * @file
 * Trace-stream filters.
 *
 * IBS traces mix user and kernel records (the paper's Section 2
 * discusses their separability).  These adaptors split them without
 * copying the underlying TraceSource.
 */

#ifndef BPSIM_TRACE_TRACE_FILTER_HH
#define BPSIM_TRACE_TRACE_FILTER_HH

#include <functional>
#include <string>

#include "trace/trace_source.hh"

namespace bpsim {

/** Stream adaptor passing through only records matching a predicate. */
class FilteredTrace : public TraceSource
{
  public:
    using Filter = std::function<bool(const BranchRecord &)>;

    /**
     * @param source underlying stream (not owned; must outlive this)
     * @param filter keep-predicate over records
     * @param name display name for the filtered stream
     *
     * Dropped records contribute their instructions (instGap + 1) to
     * the gap of the next surviving record, so dynamic instruction
     * counts stay consistent.
     */
    FilteredTrace(TraceSource &source, Filter filter, std::string name);

    bool next(BranchRecord &out) override;
    void reset() override;
    const std::string &name() const override { return name_; }

    /** Records dropped so far (since construction or reset). */
    std::uint64_t dropped() const { return dropped_; }

  private:
    TraceSource &source;
    Filter filter;
    std::string name_;
    std::uint64_t dropped_ = 0;
};

/** Keep only user-mode records (strip the IBS kernel component). */
FilteredTrace userOnly(TraceSource &source);

/** Keep only kernel-mode records. */
FilteredTrace kernelOnly(TraceSource &source);

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_FILTER_HH
