#include "support.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    // Rejection keeps the draw exactly uniform.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t v = next();
    while (v >= limit)
        v = next();
    return v % n;
}

double
Rng::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed ^ (0xD1B54A32D192ED03ull * (stream + 1)));
    return rng.next();
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec_(rec), name_(name)
{
    if (rec_.enabled_)
        start_ = now();
}

SpanRecorder::Scope::~Scope()
{
    if (!rec_.enabled_)
        return;
    const double seconds = now() - start_;
    std::lock_guard<std::mutex> lock(rec_.mutex_);
    rec_.spans_.push_back(Span{name_, seconds});
}

double
SpanRecorder::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            sum += s.seconds;
    return sum;
}

std::size_t
SpanRecorder::count(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return name == s.name; }));
}

double
LatencyStats::percentile(double q) const
{
    if (samples.empty())
        return 0.0;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
processPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
childCpuSeconds(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return -1.0;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        return -1.0;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i)
        if (i >= 14)
            ticks += std::stod(field);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
childPeakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return -1.0;
}

void
RunRecord::note(const std::string &problem)
{
    if (problems.size() < 20)
        problems.push_back(problem);
}

void
reportEndToEnd(const EndToEnd &e2e, RunRecord &record)
{
    std::vector<double> rps, bcps, cpu;
    Window total;
    for (const Window &w : e2e.windows) {
        total.seconds += w.seconds;
        total.requests += w.requests;
        total.branchConfigs += w.branchConfigs;
        total.cpuSeconds += w.cpuSeconds;
        if (w.seconds <= 0.0 || w.requests <= 0.0)
            continue;
        rps.push_back(w.requests / w.seconds);
        bcps.push_back(w.branchConfigs / w.seconds);
        cpu.push_back(w.cpuSeconds / w.requests);
    }
    record.set("setup_s", e2e.setupSeconds, "s");
    record.set("branch_configs_per_s", median(bcps), "1/s");
    record.set("requests_per_s", median(rps), "1/s");
    record.set("latency_p50_ms", 1e3 * e2e.latency.percentile(0.50), "ms");
    record.set("latency_p90_ms", 1e3 * e2e.latency.percentile(0.90), "ms");
    record.set("failed_frac",
               record.attempted
                   ? static_cast<double>(record.failed) /
                         static_cast<double>(record.attempted)
                   : 1.0,
               "fraction");
    record.set("peak_rss_mb", e2e.peakRssMb, "MiB");
    record.set("cpu_s_per_request", median(cpu), "s");
    record.details["timed_s"] = e2e.timedSeconds;
    record.details["windows"] = static_cast<double>(rps.size());
    record.details["latency_samples"] =
        static_cast<double>(e2e.latency.samples.size());
    record.details["latency_samples_beyond_p90"] = std::floor(
        0.1 * static_cast<double>(e2e.latency.samples.size()));
    record.details["completed_requests"] = total.requests;
    record.details["branch_configs"] = total.branchConfigs;
    record.details["cpu_s"] = total.cpuSeconds;
}

} // namespace perfbench
