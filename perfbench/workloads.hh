/**
 * @file
 * The benchmark's workloads and the output checks they share.
 *
 *  - paper_cold: one caller, closed loop of cold (bypassCache)
 *    SweepSession::sweep requests with the paper's default options.
 *  - grid_cold: the same loop, but every request reaches the fused or
 *    the model grid.
 *  - service_mixed: four closed-loop connections to a sweep_server
 *    child on a unix socket, Zipf-drawn sweeps and points.
 *
 * perfbench/README.md records why each workload was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/sweep.hh"
#include "support.hh"
#include "trace/memory_trace.hh"

namespace perfbench {

RunRecord runPaperCold(const RunOptions &opts);
RunRecord runGridCold(const RunOptions &opts);
RunRecord runServiceMixed(const RunOptions &opts);

/**
 * One naive-oracle comparison: the engine reported @p engineValue as
 * the misprediction rate of (kind, rowBits, colBits) over @p trace.
 */
struct OracleCheck
{
    std::string label;
    const bpsim::MemoryTrace *trace = nullptr;
    bpsim::SchemeKind kind = bpsim::SchemeKind::GAs;
    unsigned rowBits = 0;
    unsigned colBits = 0;
    bpsim::SweepOptions options;
    double engineValue = 0.0;
};

/**
 * Run every check against verify::referenceMispRate (the independent
 * reference model in src/verify/), a few at a time.  @return the labels
 * of the checks whose rate differs in any bit.
 */
std::vector<std::string> runOracleChecks(
    const std::vector<OracleCheck> &checks);

/** FNV-1a over a sequence of 64-bit words: the response digest that
 *  the bit-identity check compares. */
class Digest
{
  public:
    void add(std::uint64_t word);
    void addDouble(double value);
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/**
 * Reads a counter the engine may later drop: the value of
 * PERFBENCH_FIELD(obj, member) when @p obj still has that member, -1
 * otherwise, so the benchmark keeps building against a later engine.
 */
template <typename T, typename Read>
double
fieldOr(const T &obj, Read read)
{
    if constexpr (std::is_invocable_v<Read, const T &>)
        return static_cast<double>(read(obj));
    else
        return -1.0;
}

#define PERFBENCH_FIELD(obj, member)                                     \
    ::perfbench::fieldOr((obj), [](const auto &o) -> decltype(o.member) { \
        return o.member;                                                 \
    })

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
