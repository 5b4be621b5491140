/**
 * @file
 * The benchmark binary: runs one workload once and prints everything
 * it measured as a single JSON line on stdout.
 *
 *   perfbench --workload paper_cold|grid_cold|service_mixed
 *                    --seed N --seconds S --trace 0|1
 *                    [--branches N]
 *                    [--server PATH --scratch DIR]   (service_mixed)
 *
 * perfbench/run.py builds this binary, runs it, and turns the line into
 * the result file and the result line BENCHMARK.json describes.
 */

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/simd.hh"
#include "support.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

/**
 * Every per-layer metric with its unit.  A traced run reports each one;
 * a layer the workload does not reach reads 0.  run.py checks this list
 * against BENCHMARK.json on every run.
 */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"workload.generate_s", "s"},
    {"workload.traces", "count"},
    {"trace.hash_s", "s"},
    {"trace.intern_s", "s"},
    {"trace.load_s", "s"},
    {"trace.file_requests", "count"},
    {"sim.prepare_s", "s"},
    {"sim.prepared_bytes_per_branch", "B"},
    {"sim.prepared_branches", "count"},
    {"sim.plan_s", "s"},
    {"sim.streams_s", "s"},
    {"sim.stream_builds", "count"},
    {"sim.replay_s", "s"},
    {"sim.branch_configs", "count"},
    {"sim.fallback_jobs", "count"},
    {"sim.fused_groups", "count"},
    {"sim.model_groups", "count"},
    {"sim.lanes", "count"},
    {"sim.lanes_per_group", "count"},
    {"sim.lane_batches", "count"},
    {"sim.model_batches", "count"},
    {"sim.blocks_replayed", "count"},
    {"sim.busy_s", "s"},
    {"sim.worker_utilization", "fraction"},
    {"sim.session_s", "s"},
    {"cache.lookup_s", "s"},
    {"cache.store_s", "s"},
    {"cache.hits", "count"},
    {"cache.disk_hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "fraction"},
    {"cache.store_failures", "count"},
    {"service.parse_s", "s"},
    {"service.render_s", "s"},
    {"service.response_bytes", "B"},
    {"service.drains", "count"},
    {"service.submissions", "count"},
    {"service.coalesced_requests", "count"},
    {"service.coalesce_ratio", "fraction"},
    {"service.overhead_s", "s"},
    {"service.errors", "count"},
    {"tracing.overhead_s", "s"},
    {"tracing.overhead_frac", "fraction"},
    {"tracing.timed_s", "s"},
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    utsname u{};
    uname(&u);
    return u.machine;
}

std::string
hostJson()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::string out = "{";
    out += "\"cpu_model\":" + jsonString(cpuModel());
    out += ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency());
    out += ",\"simd_target\":" +
           jsonString(bpsim::simdTargetName(
               bpsim::resolveSimdTarget(bpsim::SimdTarget::Auto)));
    out += ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE);
    out += std::string(",\"optimized\":") + (optimized ? "true" : "false");
    out += ",\"compiler\":" + jsonString(PERFBENCH_COMPILER);
    return out + "}";
}

std::string
recordJson(const RunOptions &opts, const RunRecord &record)
{
    std::string out = "{\"workload\":" + jsonString(opts.workload);
    out += ",\"seed\":" + std::to_string(opts.seed);
    out += ",\"trace\":" + std::string(opts.trace ? "1" : "0");
    out += ",\"host\":" + hostJson();
    out += ",\"attempted\":" + std::to_string(record.attempted);
    out += ",\"failed\":" + std::to_string(record.failed);
    out += ",\"problems\":[";
    for (std::size_t i = 0; i < record.problems.size(); ++i)
        out += (i ? "," : "") + jsonString(record.problems[i]);
    out += "],\"metrics\":{";
    bool first = true;
    for (const auto &[name, metric] : record.metrics) {
        out += (first ? "" : ",") + jsonString(name) + ":{\"value\":" +
               jsonNumber(metric.value) +
               ",\"unit\":" + jsonString(metric.unit) + "}";
        first = false;
    }
    out += "},\"details\":{";
    first = true;
    for (const auto &[name, value] : record.details) {
        out += (first ? "" : ",") + jsonString(name) + ":" +
               jsonNumber(value);
        first = false;
    }
    return out + "}}";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--branches N] "
                 "[--server PATH] [--scratch DIR]\n",
                 why);
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opts.workload = value;
            else if (flag == "--seed")
                opts.seed = std::stoull(value);
            else if (flag == "--seconds")
                opts.seconds = std::stod(value);
            else if (flag == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (flag == "--branches")
                opts.branches = std::stoull(value);
            else if (flag == "--server")
                opts.serverBinary = value;
            else if (flag == "--scratch")
                opts.scratchDir = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0))
        usage("--seconds must be positive");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const double start = now();
    RunOptions opts = parseArgs(argc, argv);
    opts.startTime = start;

    RunRecord (*run)(const RunOptions &) = nullptr;
    if (opts.workload == "paper_cold")
        run = runPaperCold;
    else if (opts.workload == "grid_cold")
        run = runGridCold;
    else if (opts.workload == "service_mixed")
        run = runServiceMixed;
    else
        usage(("unknown workload " + opts.workload).c_str());

    RunRecord record;
    try {
        record = run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        if (!opts.scratchDir.empty())
            std::filesystem::remove_all(opts.scratchDir);
        return 1;
    }
    if (!opts.scratchDir.empty())
        std::filesystem::remove_all(opts.scratchDir);
    if (opts.trace) {
        for (const auto &[name, unit] : kLayerMetrics)
            if (!record.metrics.count(name))
                record.set(name, 0.0, unit);
    }
    std::printf("%s\n", recordJson(opts, record).c_str());
    return 0;
}
