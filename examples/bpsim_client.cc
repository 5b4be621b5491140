/**
 * @file
 * Thin client for the sweep daemon.
 *
 *   ./bpsim_client server=./sweep_server <verb> [knobs]
 *   ./bpsim_client socket=/path/to.sock  <verb> [knobs]
 *
 * With server=BIN a private sweep_server child is spawned on a
 * stdin/stdout pipe (extra server knobs via server_args="k=v k=v");
 * with socket=PATH an already-running daemon is used.  Verbs:
 *
 *   ping                      liveness probe
 *   catalog                   accepted scheme and workload names
 *   stats                     server/cache/coalescing counters
 *   shutdown                  ask the daemon to stop
 *   intern  profile=N|file=F  materialise a trace, print its key
 *   sweep   profile=..|hash=..|file=.. scheme=S [min_bits= max_bits=
 *           aliasing= path_bits= bht= assoc= bypass=1]
 *   point   <trace> scheme=S row_bits=R col_bits=C
 *
 * Common knobs: branches=N (profile length), id=STR (request id),
 * raw=1 (print raw response JSON instead of rendering), count=N
 * (repeat the request N times -- the second iteration demonstrates
 * the daemon's result cache).  Exits non-zero when the daemon
 * answers ok=false.
 */

#include <cstdio>

#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/config.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "stats/surface.hh"

using namespace bpsim;
using service::JsonValue;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bpsim_client (server=BIN | socket=PATH) <verb> "
        "[knobs]\n"
        "verbs: ping catalog stats shutdown intern sweep point\n"
        "see the file comment in examples/bpsim_client.cc\n");
    return 2;
}

/** Assemble the trace reference object from profile=/hash=/file=. */
JsonValue
traceRef(const Config &cfg)
{
    JsonValue::Object trace;
    const std::string profile = cfg.getString("profile", "");
    const std::string hash = cfg.getString("hash", "");
    const std::string file = cfg.getString("file", "");
    if (!profile.empty()) {
        trace.emplace("profile", JsonValue(profile));
        const auto branches = cli::requireInt(cfg, "branches", 0);
        if (branches > 0)
            trace.emplace("branches", JsonValue(branches));
    } else if (!hash.empty()) {
        trace.emplace("hash", JsonValue(hash));
    } else if (!file.empty()) {
        trace.emplace("file", JsonValue(file));
    } else {
        bpsim_fatal("name a trace: profile=, hash= or file=");
    }
    return JsonValue(std::move(trace));
}

/** Sweep options object from the CLI knobs the user actually set. */
JsonValue
sweepOptions(const Config &cfg)
{
    JsonValue::Object opts;
    if (cfg.has("min_bits"))
        opts.emplace("min_bits",
                     JsonValue(cli::requireInt(cfg, "min_bits", 4)));
    if (cfg.has("max_bits"))
        opts.emplace("max_bits",
                     JsonValue(cli::requireInt(cfg, "max_bits", 15)));
    if (cfg.has("aliasing"))
        opts.emplace("aliasing", JsonValue(cli::requireBool(
                                     cfg, "aliasing", true)));
    if (cfg.has("path_bits"))
        opts.emplace("path_bits",
                     JsonValue(cli::requireInt(cfg, "path_bits", 2)));
    if (cfg.has("bht"))
        opts.emplace("bht_entries",
                     JsonValue(cli::requireInt(cfg, "bht", 1024)));
    if (cfg.has("assoc"))
        opts.emplace("bht_assoc",
                     JsonValue(cli::requireInt(cfg, "assoc", 4)));
    return JsonValue(std::move(opts));
}

/** Build the request line for @p verb. */
std::string
buildRequest(const std::string &verb, const Config &cfg)
{
    JsonValue::Object req;
    req.emplace("op", JsonValue(verb));
    req.emplace("id", JsonValue(cfg.getString("id", verb)));
    if (verb == "intern") {
        req.emplace("trace", traceRef(cfg));
    } else if (verb == "sweep") {
        req.emplace("trace", traceRef(cfg));
        req.emplace("scheme",
                    JsonValue(cfg.getString("scheme", "GAs")));
        JsonValue opts = sweepOptions(cfg);
        if (!opts.object().empty())
            req.emplace("options", std::move(opts));
        if (cli::requireBool(cfg, "bypass", false))
            req.emplace("bypass_cache", JsonValue(true));
    } else if (verb == "point") {
        req.emplace("trace", traceRef(cfg));
        req.emplace("scheme",
                    JsonValue(cfg.getString("scheme", "GAs")));
        req.emplace("row_bits",
                    JsonValue(cli::requireInt(cfg, "row_bits", 0)));
        req.emplace("col_bits",
                    JsonValue(cli::requireInt(cfg, "col_bits", 0)));
        JsonValue opts = sweepOptions(cfg);
        if (!opts.object().empty())
            req.emplace("options", std::move(opts));
    } else if (verb != "ping" && verb != "catalog" &&
               verb != "stats" && verb != "shutdown") {
        bpsim_fatal("unknown verb '", verb, "'");
    }
    return JsonValue(std::move(req)).render();
}

/** Rebuild a Surface from its wire form for Surface::render(). */
Surface
surfaceFromJson(const JsonValue &tiers, const std::string &name)
{
    Surface out(name);
    if (!tiers.isArray())
        return out;
    for (const JsonValue &tier : tiers.array()) {
        const JsonValue *total = tier.find("total_bits");
        const JsonValue *points = tier.find("points");
        if (!total || !total->isInt() || !points ||
            !points->isArray())
            continue;
        for (const JsonValue &pt : points->array()) {
            const JsonValue *row = pt.find("row_bits");
            const JsonValue *col = pt.find("col_bits");
            const JsonValue *value = pt.find("value");
            if (!row || !col || !value || !value->isNumber())
                continue;
            out.add(static_cast<unsigned>(total->asInt()),
                    static_cast<unsigned>(row->asInt()),
                    static_cast<unsigned>(col->asInt()),
                    value->asDouble());
        }
    }
    return out;
}

/** Human rendering of one successful response. */
void
renderResponse(const JsonValue &response)
{
    const JsonValue *result = response.find("result");
    if (result && result->isObject()) {
        // A sweep: render the misprediction surface like
        // sweep_explorer does, plus provenance.
        const JsonValue *cache_hit = response.find("cache_hit");
        const JsonValue *disk_hit = response.find("disk_hit");
        const JsonValue *coalesced = response.find("coalesced");
        if (cache_hit && cache_hit->isBool() && cache_hit->asBool())
            std::printf("(served from the %s result cache)\n",
                        disk_hit && disk_hit->asBool() ? "on-disk"
                                                       : "in-memory");
        if (coalesced && coalesced->isBool() && coalesced->asBool())
            std::printf("(coalesced into a shared replay)\n");
        if (const JsonValue *misp = result->find("misprediction")) {
            Surface surface =
                surfaceFromJson(*misp, "misprediction");
            std::printf("%s", surface.render().c_str());
        }
        return;
    }
    // Everything else: the response object is its own best rendering.
    std::printf("%s\n", response.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg = Config::parseArgs(argc, argv);
    if (cfg.positional().empty())
        return usage();
    const std::string verb = cfg.positional().front();
    const std::string server = cfg.getString("server", "");
    const std::string socket = cfg.getString("socket", "");
    if (server.empty() == socket.empty())
        return usage(); // exactly one transport

    // Connect: spawn a private daemon or dial a shared one.
    service::ServerProcess child;
    service::LineChannel socketChannel;
    if (!server.empty()) {
        // cache=/threads= are forwarded so a private daemon can be
        // pointed at a shared persistent cache.
        std::vector<std::string> args;
        if (cfg.has("cache"))
            args.push_back("cache=" + cfg.getString("cache", ""));
        if (cfg.has("threads"))
            args.push_back(
                "threads=" +
                std::to_string(cli::requireInt(cfg, "threads", 1)));
        child = cli::orFatal(
            service::ServerProcess::spawn(server, args));
    } else {
        socketChannel =
            cli::orFatal(service::connectUnixSocket(socket));
    }
    service::LineChannel &channel =
        server.empty() ? socketChannel : child.channel();

    const std::string request = buildRequest(verb, cfg);
    const bool raw = cli::requireBool(cfg, "raw", false);
    const auto count = cli::requireInt(cfg, "count", 1);

    int exit_code = 0;
    for (std::int64_t i = 0; i < count; ++i) {
        std::string response_line =
            cli::orFatal(service::roundTrip(channel, request));
        if (raw)
            std::printf("%s\n", response_line.c_str());
        JsonValue response =
            cli::orFatal(service::parseJson(response_line));
        const JsonValue *ok = response.find("ok");
        if (!ok || !ok->isBool())
            bpsim_fatal("malformed response: ", response_line);
        if (!ok->asBool()) {
            const JsonValue *error = response.find("error");
            const JsonValue *message =
                error ? error->find("message") : nullptr;
            std::fprintf(stderr, "error: %s\n",
                         message && message->isString()
                             ? message->asString().c_str()
                             : response_line.c_str());
            exit_code = 1;
            continue;
        }
        if (!raw)
            renderResponse(response);
    }
    return exit_code;
}
