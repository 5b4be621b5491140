/**
 * @file
 * The service_mixed workload: the shipped sweep_server runs as a child
 * process on a unix socket with a disk-backed cache in a fresh
 * directory and every other setting at its default.  Four connections
 * each run a closed loop of seeded requests:
 *
 *  - sweeps over a fixed key space of {mpeg_play, real_gcc, espresso} x
 *    a scheme mix (2-bit with aliasing on and off, and the zoo) x
 *    overlapping tier ranges, Zipf-drawn by stream (see KeyDraw), plus a
 *    few keys that name a .bpt file written during set-up;
 *  - about one request in ten is a point op.
 *
 * Repeats become cache reads, first touches become a replay plus a .bpc
 * write, and concurrent overlapping ranges coalesce in the BatchQueue.
 * The key space is small enough that every run touches all of it, so
 * runs differ in order, not in the work the cache has to do.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "sim/sweep_session.hh"
#include "trace/trace_io.hh"
#include "workload/synthetic.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace bpsim;
using service::JsonValue;

/** Conditional branches per service trace: short enough that a run's
 *  first touches replay within its first few windows on the daemon's
 *  one replay thread, so the window medians describe the warm mix. */
constexpr std::uint64_t kServiceBranches = 50'000;
constexpr unsigned kConnections = 4;
/** Share of requests that are point ops. */
constexpr double kPointShare = 0.10;
/** Share of requests that are sweeps of the .bpt file: the daemon loads
 *  and hashes the file for each one. */
constexpr double kFileShare = 0.03;
/** The run opens with a stampede: for its first kBurstSeconds every
 *  profile sweep asks for a range of one stream (KeyDraw::burst). */
constexpr double kBurstSeconds = 0.25;
/** Length of the windows the rates are medians over. */
constexpr double kWindowSeconds = 1.0;
/** Zipf exponent of the profile sweep keys' popularity. */
constexpr double kZipfExponent = 1.0;

const std::vector<std::string> &
serviceProfiles()
{
    static const std::vector<std::string> profiles = {
        "mpeg_play", "real_gcc", "espresso"};
    return profiles;
}

/** The profile whose trace set-up writes to a .bpt file. */
const char *const kFileProfile = "gcc";

/** A scheme of the mix: wire name, engine kind, aliasing tracking. */
struct MixScheme
{
    const char *name;
    SchemeKind kind;
    bool aliasing;
};

const std::vector<MixScheme> &
schemeMix()
{
    static const std::vector<MixScheme> mix = {
        {"GAs", SchemeKind::GAs, true},
        {"gshare", SchemeKind::Gshare, false},
        {"pas_bht", SchemeKind::PAsFinite, true},
        {"path", SchemeKind::Path, false},
        {"tage", SchemeKind::Tage, true},
        {"perceptron", SchemeKind::Perceptron, true},
    };
    return mix;
}

/** Overlapping tier ranges: together they cover the paper's 4..15. */
const std::vector<std::pair<unsigned, unsigned>> kRanges = {
    {4, 9}, {6, 11}, {8, 13}, {10, 15}};

/** One request of the key space, rendered once. */
struct KeySpec
{
    std::string key;
    std::string line;
    bool point = false;
    /** Index into the run's traces (serviceProfiles(), then the file). */
    std::size_t trace = 0;
    SchemeKind kind = SchemeKind::GAs;
    SweepOptions options;
    unsigned rowBits = 0;
    unsigned colBits = 0;
};

JsonValue
traceRef(std::size_t trace, const std::string &file, std::uint64_t branches)
{
    JsonValue::Object ref;
    if (trace < serviceProfiles().size()) {
        ref.emplace("profile", JsonValue(serviceProfiles()[trace]));
        ref.emplace("branches",
                    JsonValue(static_cast<std::int64_t>(branches)));
    } else {
        ref.emplace("file", JsonValue(file));
    }
    return JsonValue(std::move(ref));
}

KeySpec
sweepKey(std::size_t trace, const MixScheme &scheme,
         std::pair<unsigned, unsigned> range, const std::string &file,
         std::uint64_t branches)
{
    KeySpec spec;
    spec.trace = trace;
    spec.kind = scheme.kind;
    spec.options.minTotalBits = range.first;
    spec.options.maxTotalBits = range.second;
    spec.options.trackAliasing = scheme.aliasing;
    JsonValue::Object options;
    options.emplace("min_bits",
                    JsonValue(static_cast<std::int64_t>(range.first)));
    options.emplace("max_bits",
                    JsonValue(static_cast<std::int64_t>(range.second)));
    if (!scheme.aliasing)
        options.emplace("aliasing", JsonValue(false));
    JsonValue::Object req;
    req.emplace("op", JsonValue("sweep"));
    req.emplace("trace", traceRef(trace, file, branches));
    req.emplace("scheme", JsonValue(scheme.name));
    req.emplace("options", JsonValue(std::move(options)));
    spec.line = JsonValue(std::move(req)).render();
    spec.key = "sweep/" + std::to_string(trace) + "/" + scheme.name + "/" +
               std::to_string(range.first) + "-" +
               std::to_string(range.second);
    return spec;
}

KeySpec
pointKey(std::size_t trace, const MixScheme &scheme, unsigned row,
         unsigned col, std::uint64_t branches)
{
    KeySpec spec;
    spec.point = true;
    spec.trace = trace;
    spec.kind = scheme.kind;
    spec.rowBits = row;
    spec.colBits = col;
    JsonValue::Object req;
    req.emplace("op", JsonValue("point"));
    req.emplace("trace", traceRef(trace, "", branches));
    req.emplace("scheme", JsonValue(scheme.name));
    req.emplace("row_bits", JsonValue(static_cast<std::int64_t>(row)));
    req.emplace("col_bits", JsonValue(static_cast<std::int64_t>(col)));
    spec.line = JsonValue(std::move(req)).render();
    spec.key = "point/" + std::to_string(trace) + "/" + scheme.name + "/" +
               std::to_string(row) + "x" + std::to_string(col);
    return spec;
}

/** The daemon child: spawned on a socket, stopped and reaped on
 *  destruction even when the run fails part-way. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &dir)
        : socket_(dir + "/sweep.sock")
    {
        std::filesystem::create_directories(dir + "/cache");
        const std::string log = dir + "/server.log";
        const std::vector<std::string> args = {
            binary, "socket=" + socket_, "cache=" + dir + "/cache"};
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon must not outlive the benchmark.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                0644);
            if (fd >= 0) {
                // stdout carries the benchmark's result line.
                dup2(fd, STDOUT_FILENO);
                dup2(fd, STDERR_FILENO);
                close(fd);
            }
            execv(argv[0], argv.data());
            _exit(127);
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /** Connect, retrying while the daemon starts up. */
    service::LineChannel
    connect(double timeout_s = 20.0) const
    {
        const double deadline = now() + timeout_s;
        for (;;) {
            Result<service::LineChannel> chan =
                service::connectUnixSocket(socket_);
            if (chan.ok())
                return std::move(chan).value();
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_)
                throw std::runtime_error("sweep_server exited at start-up");
            if (now() > deadline)
                throw std::runtime_error("sweep_server did not accept "
                                         "connections: " +
                                         chan.error().message());
            usleep(2000);
        }
    }

    /** Ask the daemon to shut down and reap it; kill it if it hangs. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        try {
            service::LineChannel chan = connect(2.0);
            static_cast<void>(
                service::roundTrip(chan, R"({"op":"shutdown"})"));
        } catch (const std::exception &) {
        }
        const double deadline = now() + 10.0;
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (now() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            usleep(2000);
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    int pid_ = -1;
};

Result<JsonValue>
call(service::LineChannel &chan, const std::string &line)
{
    Result<std::string> resp = service::roundTrip(chan, line);
    if (!resp.ok())
        return resp.error();
    Result<JsonValue> json = service::parseJson(resp.value());
    if (!json.ok())
        return json.error();
    const JsonValue *ok = json.value().find("ok");
    if (!ok || !ok->isBool() || !ok->asBool())
        return BPSIM_ERROR("error response: ", resp.value().substr(0, 300));
    return json;
}

/** What set-up leaves for the timed loop. */
struct ServiceSetup
{
    std::string dir;
    std::string file;
    std::unique_ptr<Daemon> daemon;
    /** The trace written to the .bpt file (kept for the oracle). */
    MemoryTrace fileTrace{""};
};

ServiceSetup
setUp(const RunOptions &opts, unsigned index, std::uint64_t branches,
      SpanRecorder &rec)
{
    ServiceSetup setup;
    setup.dir = opts.scratchDir + "/setup" + std::to_string(index);
    std::filesystem::remove_all(setup.dir);
    setup.daemon = std::make_unique<Daemon>(opts.serverBinary, setup.dir);
    service::LineChannel chan = setup.daemon->connect();
    for (std::size_t t = 0; t < serviceProfiles().size(); ++t) {
        SpanRecorder::Scope span(rec, "trace.intern");
        JsonValue::Object req;
        req.emplace("op", JsonValue("intern"));
        req.emplace("trace", traceRef(t, "", branches));
        Result<JsonValue> resp = call(chan, JsonValue(std::move(req)).render());
        if (!resp.ok())
            throw std::runtime_error("intern: " + resp.error().message());
    }
    {
        SpanRecorder::Scope span(rec, "workload.generate");
        setup.fileTrace = generateProfileTrace(kFileProfile, branches);
    }
    setup.file = setup.dir + "/trace.bpt";
    setup.fileTrace.reset();
    Result<std::uint64_t> saved = saveTrace(setup.fileTrace, setup.file);
    if (!saved.ok())
        throw std::runtime_error("save .bpt: " + saved.error().message());
    SpanRecorder::Scope span(rec, "trace.intern");
    JsonValue::Object req;
    req.emplace("op", JsonValue("intern"));
    req.emplace("trace",
                traceRef(serviceProfiles().size(), setup.file, branches));
    Result<JsonValue> resp = call(chan, JsonValue(std::move(req)).render());
    if (!resp.ok())
        throw std::runtime_error("intern file: " + resp.error().message());
    return setup;
}

/** Digest of a response's deterministic payload. */
std::optional<std::uint64_t>
payloadDigest(const JsonValue &resp, bool point)
{
    Digest digest;
    if (point) {
        for (const char *field :
             {"misp_rate", "alias_rate", "harmless_fraction",
              "bht_miss_rate"}) {
            const JsonValue *v = resp.find(field);
            if (!v || !v->isNumber())
                return std::nullopt;
            digest.addDouble(v->asDouble());
        }
        return digest.value();
    }
    const JsonValue *result = resp.find("result");
    if (!result || !result->isObject())
        return std::nullopt;
    for (const char *name : {"misprediction", "aliasing", "harmless"}) {
        const JsonValue *surface = result->find(name);
        if (!surface || !surface->isArray())
            return std::nullopt;
        for (const JsonValue &tier : surface->array()) {
            const JsonValue *total = tier.find("total_bits");
            const JsonValue *points = tier.find("points");
            if (!total || !points || !points->isArray())
                return std::nullopt;
            for (const JsonValue &pt : points->array()) {
                const JsonValue *r = pt.find("row_bits");
                const JsonValue *c = pt.find("col_bits");
                const JsonValue *v = pt.find("value");
                if (!r || !c || !v || !v->isNumber())
                    return std::nullopt;
                digest.add(static_cast<std::uint64_t>(total->asInt()));
                digest.add(static_cast<std::uint64_t>(r->asInt()));
                digest.add(static_cast<std::uint64_t>(c->asInt()));
                digest.addDouble(v->asDouble());
            }
        }
        digest.add(~std::uint64_t{0});
    }
    const JsonValue *bht = result->find("bht_miss_rate");
    if (!bht || !bht->isNumber())
        return std::nullopt;
    digest.addDouble(bht->asDouble());
    return digest.value();
}

/** Rebuild one surface of a sweep response. */
Surface
surfaceFrom(const JsonValue &resp, const char *name)
{
    Surface surface(name);
    const JsonValue *tiers = resp.find("result")->find(name);
    for (const JsonValue &tier : tiers->array()) {
        const auto total = static_cast<unsigned>(tier.find("total_bits")->asInt());
        for (const JsonValue &pt : tier.find("points")->array())
            surface.add(total,
                        static_cast<unsigned>(pt.find("row_bits")->asInt()),
                        static_cast<unsigned>(pt.find("col_bits")->asInt()),
                        pt.find("value")->asDouble());
    }
    return surface;
}

double
numberAt(const JsonValue &root, std::initializer_list<const char *> path)
{
    const JsonValue *v = &root;
    for (const char *key : path) {
        v = v->find(key);
        if (!v)
            return -1.0;
    }
    return v->isNumber() ? v->asDouble() : -1.0;
}

/** One request as a connection saw it. */
struct Exchange
{
    std::size_t key = 0;
    double done = 0.0;
    double latency = 0.0;
    bool ok = false;
    std::string error;
    std::uint64_t digest = 0;
    std::size_t cells = 0;
    double serverSeconds = 0.0;
    bool cacheHit = false;
    std::size_t bytes = 0;
};

/**
 * How a connection draws its next request.  The shares of points, file
 * sweeps and profile sweeps, the popularity rank of every stream and the
 * opening stampede are part of the workload; the seed draws only the
 * sequence.  Every run therefore asks for the same mix, so runs with
 * different seeds differ in order, not in composition.
 *
 * In the stampede all four connections ask for ranges of one stream
 * that nobody has swept yet, while the first of them replays: the
 * queue's coalescing case.  Without it, whether two first touches of
 * one stream meet in a drain is left to chance, and some seeds never
 * coalesce at all.
 */
struct KeyDraw
{
    std::vector<std::size_t> points;
    std::vector<std::size_t> files;
    /**
     * Profile sweep keys grouped by stream (trace, scheme), most popular
     * stream first, and the Zipf CDF over streams.  A stream's tier
     * ranges are equally likely, so clients often ask for overlapping
     * ranges of one stream at once: the queue's coalescing case.
     */
    std::vector<std::vector<std::size_t>> streams;
    std::vector<double> cdf;
    /** The stampede's stream: TAGE on real_gcc, the costliest replay of
     *  the mix, so the other connections pile up behind its first touch. */
    std::vector<std::size_t> burst;

    /** @p elapsed: seconds since the timed region began. */
    std::size_t
    next(Rng &rng, double elapsed) const
    {
        const double u = rng.unit();
        if (u < kPointShare)
            return points[rng.below(points.size())];
        if (u < kPointShare + kFileShare)
            return files[rng.below(files.size())];
        if (elapsed < kBurstSeconds)
            return burst[rng.below(burst.size())];
        const auto rank = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), rng.unit()) -
            cdf.begin());
        const std::vector<std::size_t> &stream =
            streams[std::min(rank, streams.size() - 1)];
        return stream[rng.below(stream.size())];
    }
};

/** Per-connection results; merged after the timed region. */
struct Connection
{
    std::vector<Exchange> exchanges;
    /** First parsed response per key, for the oracle and cache probe. */
    std::map<std::size_t, JsonValue> firsts;
    std::string fatal;
};

void
runConnection(service::LineChannel &chan, const std::vector<KeySpec> &keys,
              const KeyDraw &draw, std::uint64_t seed, double t0,
              double deadline, SpanRecorder &rec, Connection &out)
{
    try {
        Rng rng(seed);
        while (now() < deadline) {
            const std::size_t k = draw.next(rng, now() - t0);
            const KeySpec &spec = keys[k];
            Exchange ex;
            ex.key = k;
            const double start = now();
            Result<std::string> resp = service::roundTrip(chan, spec.line);
            ex.done = now();
            ex.latency = ex.done - start;
            if (!resp.ok()) {
                ex.error = resp.error().message();
                out.exchanges.push_back(std::move(ex));
                break; // the connection is gone
            }
            ex.bytes = resp.value().size();
            std::optional<JsonValue> json;
            {
                SpanRecorder::Scope span(rec, "service.parse");
                Result<JsonValue> parsed = service::parseJson(resp.value());
                if (parsed.ok())
                    json = std::move(parsed).value();
            }
            if (rec.enabled()) {
                // Probes: the daemon's own protocol work on the same
                // request and response.
                {
                    SpanRecorder::Scope span(rec, "service.parse_request");
                    Result<JsonValue> req = service::parseJson(spec.line);
                    if (req.ok())
                        static_cast<void>(service::parseRequest(req.value()));
                }
                if (json) {
                    SpanRecorder::Scope span(rec, "service.render");
                    static_cast<void>(json->render());
                }
            }
            const JsonValue *ok = json ? json->find("ok") : nullptr;
            if (!ok || !ok->isBool() || !ok->asBool()) {
                ex.error = resp.value().substr(0, 300);
            } else if (std::optional<std::uint64_t> digest =
                           payloadDigest(*json, spec.point)) {
                ex.ok = true;
                ex.digest = *digest;
                ex.cells = 1;
                if (!spec.point) {
                    ex.cells = 0;
                    for (const JsonValue &tier :
                         json->find("result")->find("misprediction")->array())
                        ex.cells += tier.find("points")->array().size();
                    ex.serverSeconds = numberAt(*json, {"seconds"});
                    const JsonValue *hit = json->find("cache_hit");
                    ex.cacheHit = hit && hit->isBool() && hit->asBool();
                }
                if (!out.firsts.count(k))
                    out.firsts.emplace(k, std::move(*json));
            } else {
                ex.error = "malformed response payload";
            }
            out.exchanges.push_back(std::move(ex));
        }
    } catch (const std::exception &e) {
        out.fatal = e.what();
    }
}

} // namespace

RunRecord
runServiceMixed(const RunOptions &opts)
{
    if (opts.serverBinary.empty() || opts.scratchDir.empty())
        throw std::runtime_error("service_mixed needs --server and --scratch");
    RunRecord record;
    SpanRecorder rec(opts.trace);
    SpanRecorder untraced(false);
    const std::uint64_t branches =
        opts.branches ? opts.branches : kServiceBranches;

    // Set-up, repeated; only the last repetition's daemon serves the
    // timed region and only its spans are recorded.
    std::vector<double> setup_times;
    ServiceSetup setup;
    for (unsigned i = 0; i < kSetupsBefore; ++i) {
        if (setup.daemon) {
            setup.daemon->stop();
            std::filesystem::remove_all(setup.dir);
        }
        const double start = i == 0 ? opts.startTime : now();
        setup = setUp(opts, i, branches,
                      i + 1 == kSetupsBefore ? rec : untraced);
        setup_times.push_back(now() - start);
    }

    // The key space: profile sweeps (Zipf-ranked), file sweeps and
    // points (each uniform within its share).
    std::vector<KeySpec> keys;
    KeyDraw draw;
    const std::size_t file_trace = serviceProfiles().size();
    for (std::size_t t = 0; t < serviceProfiles().size(); ++t)
        for (const MixScheme &scheme : schemeMix()) {
            draw.streams.emplace_back();
            for (const auto &range : kRanges) {
                draw.streams.back().push_back(keys.size());
                keys.push_back(
                    sweepKey(t, scheme, range, setup.file, branches));
            }
        }
    for (const auto &range : kRanges)
        for (std::size_t s : {0, 1}) { // GAs, gshare over the .bpt trace
            draw.files.push_back(keys.size());
            keys.push_back(sweepKey(file_trace, schemeMix()[s], range,
                                    setup.file, branches));
        }
    for (std::size_t t = 0; t < serviceProfiles().size(); ++t)
        for (std::size_t s : {0, 1, 2, 4}) // GAs, gshare, pas_bht, tage
            for (auto [row, col] : {std::pair{4u, 6u}, {6u, 4u}, {8u, 8u}}) {
                draw.points.push_back(keys.size());
                keys.push_back(
                    pointKey(t, schemeMix()[s], row, col, branches));
            }
    // Streams are built trace-major: real_gcc is trace 1, tage scheme 4.
    draw.burst = draw.streams[1 * schemeMix().size() + 4];
    // A fixed popularity order, independent of the run's seed.
    Rng(0x5EED0F2A9).shuffle(draw.streams);
    double total = 0.0;
    for (std::size_t r = 0; r < draw.streams.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        draw.cdf.push_back(total);
    }
    for (double &c : draw.cdf)
        c /= total;

    // Timed region: kConnections closed loops until the deadline, while
    // this thread samples the daemon's CPU time once per window.
    const int pid = setup.daemon->pid();
    std::vector<Connection> conns(kConnections);
    std::vector<service::LineChannel> chans;
    for (unsigned c = 0; c < kConnections; ++c)
        chans.push_back(setup.daemon->connect());
    std::vector<std::pair<double, double>> samples; // (time, daemon CPU)
    const double t0 = now();
    const double deadline = t0 + opts.seconds;
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kConnections; ++c)
            threads.emplace_back(runConnection, std::ref(chans[c]),
                                 std::cref(keys), std::cref(draw),
                                 deriveSeed(opts.seed, 10 + c), t0, deadline,
                                 std::ref(rec), std::ref(conns[c]));
        for (double next = t0; next <= deadline; next += kWindowSeconds) {
            const double wait = next - now();
            if (wait > 0)
                std::this_thread::sleep_for(std::chrono::duration<double>(wait));
            samples.emplace_back(now(), childCpuSeconds(pid));
        }
        for (std::thread &t : threads)
            t.join();
        chans.clear();
    }
    EndToEnd e2e;
    e2e.timedSeconds = now() - t0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
        Window window;
        window.seconds = samples[i].first - samples[i - 1].first;
        window.cpuSeconds = samples[i].second - samples[i - 1].second;
        e2e.windows.push_back(window);
    }
    e2e.peakRssMb = childPeakRssMb(pid);

    // The daemon's own counters, then stop it.
    JsonValue stats;
    {
        service::LineChannel chan = setup.daemon->connect();
        Result<JsonValue> resp = call(chan, R"({"op":"stats"})");
        if (!resp.ok())
            throw std::runtime_error("stats: " + resp.error().message());
        stats = std::move(resp).value();
    }
    setup.daemon->stop();

    // The remaining set-ups, each with a daemon of its own.
    for (unsigned i = 0; i < kSetupsAfter; ++i) {
        const double start = now();
        ServiceSetup extra =
            setUp(opts, kSetupsBefore + i, branches, untraced);
        setup_times.push_back(now() - start);
        extra.daemon->stop();
        std::filesystem::remove_all(extra.dir);
    }
    e2e.setupSeconds = median(setup_times);
    for (std::size_t i = 0; i < setup_times.size(); ++i)
        record.details["setup_s." + std::to_string(i)] = setup_times[i];

    // Verification, outside the timed region: bit-identity per key ...
    std::vector<Exchange> all;
    std::map<std::size_t, JsonValue> firsts;
    for (Connection &conn : conns) {
        if (!conn.fatal.empty())
            record.note("connection: " + conn.fatal);
        all.insert(all.end(), conn.exchanges.begin(), conn.exchanges.end());
        for (auto &[k, json] : conn.firsts)
            firsts.emplace(k, std::move(json));
    }
    std::sort(all.begin(), all.end(),
              [](const Exchange &a, const Exchange &b) { return a.done < b.done; });
    record.attempted = all.size();
    std::map<std::size_t, std::uint64_t> first_digest;
    std::vector<char> bad(all.size(), 0);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Exchange &ex = all[i];
        if (!ex.ok) {
            bad[i] = 1;
            record.note(keys[ex.key].key + ": " + ex.error);
            continue;
        }
        auto [it, inserted] = first_digest.emplace(ex.key, ex.digest);
        if (!inserted && it->second != ex.digest) {
            bad[i] = 1;
            record.note(keys[ex.key].key +
                        ": response differs from the first response with "
                        "the same key");
        }
    }

    // ... and a seeded sample per scheme against the naive reference
    // model, over locally generated copies of the daemon's traces.
    std::vector<MemoryTrace> traces;
    for (const std::string &profile : serviceProfiles())
        traces.push_back(generateProfileTrace(profile, branches));
    traces.push_back(setup.fileTrace);
    Rng sample(deriveSeed(opts.seed, 2));
    std::map<std::string, std::vector<std::size_t>> by_scheme;
    for (const auto &[k, json] : firsts)
        by_scheme[std::string(keys[k].point ? "point/" : "sweep/") +
                  schemeKindName(keys[k].kind)]
            .push_back(k);
    std::vector<OracleCheck> checks;
    std::map<std::string, std::size_t> label_key;
    for (const auto &[scheme, ks] : by_scheme) {
        const std::size_t k = ks[sample.below(ks.size())];
        const KeySpec &spec = keys[k];
        const JsonValue &json = firsts.at(k);
        OracleCheck check;
        check.trace = &traces[spec.trace];
        check.kind = spec.kind;
        check.options = spec.options;
        if (spec.point) {
            check.rowBits = spec.rowBits;
            check.colBits = spec.colBits;
            check.engineValue = numberAt(json, {"misp_rate"});
        } else {
            const Surface surface = surfaceFrom(json, "misprediction");
            std::vector<SurfacePoint> pts;
            for (const SurfaceTier &tier : surface.tiers())
                pts.insert(pts.end(), tier.points.begin(), tier.points.end());
            const SurfacePoint &pt = pts[sample.below(pts.size())];
            check.rowBits = pt.rowBits;
            check.colBits = pt.colBits;
            check.engineValue = pt.value;
        }
        check.label = spec.key + " r=" + std::to_string(check.rowBits) +
                      " c=" + std::to_string(check.colBits);
        label_key[check.label] = k;
        checks.push_back(std::move(check));
    }
    for (const std::string &problem : runOracleChecks(checks)) {
        record.note(problem);
        const std::size_t k = label_key[problem.substr(0, problem.find(':'))];
        for (std::size_t i = 0; i < all.size(); ++i)
            if (all[i].key == k)
                bad[i] = 1;
    }
    record.details["oracle_checks"] = static_cast<double>(checks.size());

    std::vector<double> trace_branches;
    for (const MemoryTrace &t : traces)
        trace_branches.push_back(static_cast<double>(t.conditionalCount()));
    double replayed_configs = 0.0, miss_seconds = 0.0, overhead = 0.0;
    double response_bytes = 0.0, hit_seconds = 0.0, warmup = 0.0;
    std::vector<double> hit_overheads, file_overheads;
    std::size_t file_requests = 0, distinct = 0;
    std::map<std::size_t, bool> seen;
    std::map<std::string, std::vector<double>> by_class;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Exchange &ex = all[i];
        response_bytes += static_cast<double>(ex.bytes);
        e2e.latency.add(ex.latency);
        if (bad[i]) {
            ++record.failed;
            continue;
        }
        const KeySpec &spec = keys[ex.key];
        const double configs = static_cast<double>(ex.cells) *
                               trace_branches[spec.trace];
        // Count the request in the window it completed in.
        for (std::size_t w = 1; w < samples.size(); ++w) {
            if (ex.done < samples[w].first) {
                if (ex.done >= samples[w - 1].first) {
                    e2e.windows[w - 1].requests += 1;
                    e2e.windows[w - 1].branchConfigs += configs;
                }
                break;
            }
        }
        if (spec.trace == file_trace)
            ++file_requests;
        if (!seen[ex.key]) {
            seen[ex.key] = true;
            ++distinct;
        }
        if (!spec.point) {
            const double outside = std::max(0.0, ex.latency - ex.serverSeconds);
            overhead += outside;
            if (spec.trace == file_trace)
                file_overheads.push_back(outside);
            if (ex.cacheHit) {
                hit_seconds += ex.serverSeconds;
                if (spec.trace != file_trace)
                    hit_overheads.push_back(outside);
            } else {
                replayed_configs += configs;
                miss_seconds += ex.serverSeconds;
                warmup = std::max(warmup, ex.done - t0);
            }
        }
        by_class[spec.point                  ? "point"
                 : spec.trace == file_trace ? "file_sweep"
                 : ex.cacheHit              ? "hit_sweep"
                                            : "miss_sweep"]
            .push_back(1e3 * ex.latency);
    }
    for (const auto &[cls, ms] : by_class) {
        LatencyStats stats;
        stats.samples = ms;
        record.details["requests." + cls] = static_cast<double>(ms.size());
        record.details["latency_p50_ms." + cls] = stats.percentile(0.5);
        record.details["latency_p90_ms." + cls] = stats.percentile(0.9);
    }
    // When the last replayed sweep completed: the end of the first
    // touches, after which the cache answers every sweep.
    record.details["warmup_s"] = warmup;
    record.details["distinct_keys"] = static_cast<double>(distinct);
    record.details["key_space"] = static_cast<double>(keys.size());
    reportEndToEnd(e2e, record);

    if (!rec.enabled())
        return record;

    record.set("workload.generate_s", rec.total("workload.generate"), "s");
    record.set("workload.traces",
               static_cast<double>(rec.count("workload.generate")), "count");
    record.set("trace.intern_s", rec.total("trace.intern"), "s");
    // The daemon loads and hashes the .bpt file on every request that
    // names it, before the sweep reaches the queue, so that work sits in
    // the round trip outside the response's own seconds.  Per file sweep
    // it is the median of that outside share less the median outside
    // share (transport, protocol, queue) of profile sweeps the cache
    // answered.
    const double load_each =
        std::max(0.0, median(file_overheads) - median(hit_overheads));
    record.set("trace.load_s",
               load_each * static_cast<double>(file_requests), "s");
    record.set("trace.file_requests", static_cast<double>(file_requests),
               "count");

    record.set("sim.replay_s", miss_seconds, "s");
    record.set("sim.branch_configs", replayed_configs, "count");
    record.set("sim.fused_groups", numberAt(stats, {"kernel", "fused_groups"}),
               "count");
    record.set("sim.model_groups", numberAt(stats, {"kernel", "model_groups"}),
               "count");
    const double lanes = numberAt(stats, {"kernel", "lanes"}) +
                         numberAt(stats, {"kernel", "model_lanes"});
    const double groups = numberAt(stats, {"kernel", "fused_groups"}) +
                          numberAt(stats, {"kernel", "model_groups"});
    record.set("sim.lanes", lanes, "count");
    record.set("sim.lanes_per_group", groups > 0 ? lanes / groups : 0.0,
               "count");
    record.set("sim.model_batches",
               numberAt(stats, {"kernel", "model_batches"}), "count");
    record.set("sim.worker_utilization",
               numberAt(stats, {"kernel", "worker_utilization"}), "fraction");
    // Counters the stats op does not expose read -1: not observable.
    record.set("sim.fallback_jobs", -1.0, "count");
    record.set("sim.lane_batches", -1.0, "count");
    record.set("sim.blocks_replayed", -1.0, "count");
    record.set("sim.busy_s", -1.0, "s");

    const double hits = numberAt(stats, {"cache", "memory_hits"}) +
                        numberAt(stats, {"cache", "disk_hits"});
    const double misses = numberAt(stats, {"cache", "misses"});
    record.set("cache.hits", hits, "count");
    record.set("cache.disk_hits", numberAt(stats, {"cache", "disk_hits"}),
               "count");
    record.set("cache.misses", misses, "count");
    record.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "fraction");
    record.set("cache.store_failures",
               numberAt(stats, {"cache", "store_failures"}), "count");

    // The daemon times each sweep it serves from the start of its batch;
    // a cache hit's seconds are the lookups of that batch.  Stores happen
    // inside replayed sweeps, whose seconds cover the replay as well, so
    // their share is not observable from outside the daemon.
    record.set("cache.lookup_s", hit_seconds, "s");
    record.set("cache.store_s", -1.0, "s");

    record.set("service.parse_s",
               rec.total("service.parse") +
                   rec.total("service.parse_request"),
               "s");
    record.set("service.render_s", rec.total("service.render"), "s");
    record.set("service.response_bytes", response_bytes, "B");
    const double submissions = numberAt(stats, {"queue", "submissions"});
    const double coalesced = numberAt(stats, {"queue", "coalesced_requests"});
    record.set("service.drains", numberAt(stats, {"queue", "drains"}), "count");
    record.set("service.submissions", submissions, "count");
    record.set("service.coalesced_requests", coalesced, "count");
    record.set("service.coalesce_ratio",
               submissions > 0 ? coalesced / submissions : 0.0, "fraction");
    record.set("service.overhead_s", overhead, "s");
    record.set("service.errors", numberAt(stats, {"errors"}), "count");

    const double probes = rec.total("service.render") +
                          rec.total("service.parse_request");
    record.set("tracing.overhead_s", probes, "s");
    record.set("tracing.overhead_frac",
               e2e.timedSeconds > 0 ? probes / e2e.timedSeconds : 0.0,
               "fraction");
    record.set("tracing.timed_s", e2e.timedSeconds, "s");
    return record;
}

} // namespace perfbench
