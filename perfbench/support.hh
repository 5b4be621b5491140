/**
 * @file
 * Shared pieces of the benchmark binary: run options, the seeded
 * generator, the in-memory span recorder, latency statistics, process
 * resource readings, and the record every workload returns.
 *
 * Nothing here touches the engine: the workloads in inprocess.cc and
 * service_load.cc call bpsim's public entry points and use these
 * helpers to time and account for what they did.
 */

#ifndef PERFBENCH_SUPPORT_HH
#define PERFBENCH_SUPPORT_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Timed-region length; a run ends at the first request boundary
     *  after it that also satisfies the workload's sample minimum. */
    double seconds = 10.0;
    /** Record layer spans and report per-layer metrics. */
    bool trace = false;
    /** Conditional branches per generated trace; 0 = workload default.
     *  The benchmark's own tests shrink it to keep runs short. */
    std::uint64_t branches = 0;
    /** The sweep_server binary the service workload spawns. */
    std::string serverBinary;
    /** Directory for the run's socket, caches and trace files. */
    std::string scratchDir;
    /** now() at process start: the first set-up is timed from here. */
    double startTime = 0.0;
};

/** Fewest timed requests a run may end with: p90 then has ten
 *  samples beyond it. */
constexpr std::size_t kMinRequests = 100;
/** Set-up runs kSetupsBefore times before the timed region (the first
 *  timed from process start, the last one kept) and kSetupsAfter times
 *  after it.  setup_s is the median of all of them, so it samples the
 *  host's speed across the run rather than in one moment. */
constexpr unsigned kSetupsBefore = 3;
constexpr unsigned kSetupsAfter = 4;

/** Seconds on the steady clock. */
double now();

/**
 * splitmix64: a tiny generator whose sequence is fixed by the seed on
 * every platform (std:: distributions are implementation-defined, so
 * the benchmark draws its own).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n);
    /** Uniform in [0, 1). */
    double unit();

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Mixes a seed with a stream index into an independent seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * In-memory span recorder: named intervals, kept in memory and summed by
 * name when the run ends.  When disabled, Scope is a no-op, so the
 * untraced run pays one branch per call site.  Thread-safe.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        const char *name_;
        double start_ = 0.0;
    };

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;
    /** Number of spans called @p name. */
    std::size_t count(const std::string &name) const;

  private:
    struct Span
    {
        const char *name;
        double seconds;
    };

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Latency sample set (seconds) with the percentiles a run reports. */
struct LatencyStats
{
    std::vector<double> samples;

    void add(double seconds) { samples.push_back(seconds); }
    /** Nearest-rank percentile, q in (0, 1]; 0 when empty. */
    double percentile(double q) const;
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** User plus system CPU seconds of this process (all threads). */
double processCpuSeconds();
/** Peak resident set of this process, MiB. */
double processPeakRssMb();
/** User plus system CPU seconds of process @p pid (all threads);
 *  negative when it cannot be read. */
double childCpuSeconds(int pid);
/** Peak resident set of process @p pid, MiB (VmHWM); negative when it
 *  cannot be read. */
double childPeakRssMb(int pid);

/** One reported number. */
struct Metric
{
    std::string unit;
    double value = 0.0;
};

/**
 * Everything a workload run measured.  main.cc prints it as one
 * JSON record; perfbench/run.py selects the metrics BENCHMARK.json
 * names for the run's mode and writes the result file.
 */
struct RunRecord
{
    /** Requests issued in the timed region. */
    std::uint64_t attempted = 0;
    /** Requests that errored or failed verification. */
    std::uint64_t failed = 0;
    /** Why requests failed (the first few reasons). */
    std::vector<std::string> problems;
    /** End-to-end metrics (always) and per-layer metrics (traced). */
    std::map<std::string, Metric> metrics;
    /** Sample counts, bases and other context for the result file. */
    std::map<std::string, double> details;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{unit, value};
    }
    void note(const std::string &problem);
};

/** One slice of the timed region: a deck of requests, or one second of
 *  service traffic. */
struct Window
{
    double seconds = 0.0;
    double requests = 0.0;
    /** Lattice cells delivered x branches of the trace each replays. */
    double branchConfigs = 0.0;
    double cpuSeconds = 0.0;
};

/**
 * The timing every workload reports.  The rates are medians over the
 * run's windows, so a burst of interference from outside the benchmark
 * moves a few windows rather than the whole figure; totals go to the
 * result file's details.
 */
struct EndToEnd
{
    double setupSeconds = 0.0;
    double timedSeconds = 0.0;
    std::vector<Window> windows;
    LatencyStats latency;
    double peakRssMb = 0.0;
};

/** Fill @p record's end-to-end metrics and their sample details. */
void reportEndToEnd(const EndToEnd &e2e, RunRecord &record);

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_HH
