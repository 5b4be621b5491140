#include "service/protocol.hh"

#include <limits>

namespace bpsim::service {

namespace {

/** Required string member, length-capped. */
Result<std::string>
stringField(const JsonValue &obj, const char *key, std::size_t max_bytes)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return BPSIM_ERROR("missing required field \"", key, "\"");
    if (!v->isString())
        return BPSIM_ERROR("field \"", key, "\" must be a string");
    if (v->asString().size() > max_bytes)
        return BPSIM_ERROR("field \"", key, "\" longer than ",
                           max_bytes, " bytes");
    return v->asString();
}

/** Non-negative integer member in [min, max]. */
Result<std::uint64_t>
uintField(const JsonValue &v, const char *key, std::uint64_t min,
          std::uint64_t max)
{
    if (!v.isInt() || v.asInt() < 0)
        return BPSIM_ERROR("field \"", key,
                           "\" must be a non-negative integer");
    const std::uint64_t value =
        static_cast<std::uint64_t>(v.asInt());
    if (value < min || value > max)
        return BPSIM_ERROR("field \"", key, "\" must be in [", min,
                           ", ", max, "], got ", value);
    return value;
}

Result<bool>
boolField(const JsonValue &v, const char *key)
{
    if (!v.isBool())
        return BPSIM_ERROR("field \"", key, "\" must be a boolean");
    return v.asBool();
}

Result<TraceRef>
parseTraceRef(const JsonValue &v, const ProtocolLimits &limits)
{
    if (!v.isObject())
        return BPSIM_ERROR("field \"trace\" must be an object");
    TraceRef ref;
    for (const auto &[key, value] : v.object()) {
        if (key == "profile") {
            if (!value.isString() ||
                value.asString().size() > limits.maxNameBytes)
                return BPSIM_ERROR(
                    "trace field \"profile\" must be a short string");
            ref.profile = value.asString();
        } else if (key == "branches") {
            Result<std::uint64_t> n =
                uintField(value, "branches", 0, limits.maxBranches);
            if (!n.ok())
                return n.error();
            ref.branches = n.value();
        } else if (key == "hash") {
            if (!value.isString())
                return BPSIM_ERROR(
                    "trace field \"hash\" must be a string");
            Result<TraceHash> h = TraceHash::parse(value.asString());
            if (!h.ok())
                return h.error();
            if (h.value().isNull())
                return BPSIM_ERROR("trace field \"hash\" is the null "
                                   "hash");
            ref.hash = h.value();
        } else if (key == "file") {
            if (!value.isString() || value.asString().empty() ||
                value.asString().size() > limits.maxNameBytes)
                return BPSIM_ERROR(
                    "trace field \"file\" must be a non-empty path");
            ref.file = value.asString();
        } else {
            return BPSIM_ERROR("unknown trace field \"", key, "\"");
        }
    }
    const int forms = (ref.byProfile() ? 1 : 0) +
                      (ref.byHash() ? 1 : 0) + (ref.byFile() ? 1 : 0);
    if (forms != 1)
        return BPSIM_ERROR("trace must name exactly one of "
                           "\"profile\", \"hash\", \"file\"");
    if (ref.branches != 0 && !ref.byProfile())
        return BPSIM_ERROR(
            "trace field \"branches\" requires \"profile\"");
    return ref;
}

/**
 * Set @p field from a non-negative integer member in [min, max] (by
 * default, every value the field's type holds).  A value the type
 * cannot hold is an error, never a wrapped or truncated one.
 */
template <typename T>
Status
setUint(const JsonValue &v, const char *key, T &field,
        std::uint64_t min = 0,
        std::uint64_t max = std::numeric_limits<T>::max())
{
    Result<std::uint64_t> n = uintField(v, key, min, max);
    if (!n.ok())
        return n.error();
    field = static_cast<T>(n.value());
    return Status();
}

Status
parseOption(const std::string &key, const JsonValue &value,
            const ProtocolLimits &limits, SweepOptions &opts)
{
    // Only the protocol's own limits are checked here; every other
    // range is SweepSession::validateOptions's, checked once after.
    if (key == "min_bits")
        return setUint(value, "min_bits", opts.minTotalBits, 1,
                       limits.maxTotalBits);
    if (key == "max_bits")
        return setUint(value, "max_bits", opts.maxTotalBits, 1,
                       limits.maxTotalBits);
    if (key == "aliasing") {
        Result<bool> b = boolField(value, "aliasing");
        if (!b.ok())
            return b.error();
        opts.trackAliasing = b.value();
        return Status();
    }
    if (key == "path_bits")
        return setUint(value, "path_bits", opts.pathBitsPerTarget);
    if (key == "bht_entries")
        return setUint(value, "bht_entries", opts.bhtEntries);
    if (key == "bht_assoc")
        return setUint(value, "bht_assoc", opts.bhtAssoc);
    if (key == "tage_tag_bits")
        return setUint(value, "tage_tag_bits", opts.tageTagBits);
    if (key == "perceptron_tables")
        return setUint(value, "perceptron_tables",
                       opts.perceptronTables);
    if (key == "tage_histories") {
        // A JSON array of per-component history lengths -- the one
        // list-valued option in the protocol.
        if (!value.isArray())
            return BPSIM_ERROR("field \"tage_histories\" must be an "
                               "array of lengths");
        std::vector<unsigned> lengths(value.array().size());
        for (std::size_t i = 0; i < lengths.size(); ++i) {
            if (Status s = setUint(value.array()[i], "tage_histories[]",
                                   lengths[i]);
                !s.ok())
                return s;
        }
        opts.tageHistories = std::move(lengths);
        return Status();
    }
    return BPSIM_ERROR("unknown options field \"", key, "\"");
}

Status
parseOptions(const JsonValue &v, const ProtocolLimits &limits,
             SweepOptions &opts)
{
    if (!v.isObject())
        return BPSIM_ERROR("field \"options\" must be an object");
    for (const auto &[key, value] : v.object()) {
        if (Status s = parseOption(key, value, limits, opts); !s.ok())
            return s;
    }
    return SweepSession::validateOptions(opts);
}

bool
keyAllowed(RequestOp op, const std::string &key)
{
    if (key == "op" || key == "id")
        return true;
    switch (op) {
      case RequestOp::Intern:
        return key == "trace";
      case RequestOp::Sweep:
        return key == "trace" || key == "scheme" ||
               key == "options" || key == "bypass_cache";
      case RequestOp::Point:
        return key == "trace" || key == "scheme" ||
               key == "options" || key == "row_bits" ||
               key == "col_bits";
      case RequestOp::Ping:
      case RequestOp::Stats:
      case RequestOp::Catalog:
      case RequestOp::Shutdown:
        return false;
    }
    return false;
}

} // namespace

const char *
requestOpName(RequestOp op)
{
    switch (op) {
      case RequestOp::Ping: return "ping";
      case RequestOp::Intern: return "intern";
      case RequestOp::Sweep: return "sweep";
      case RequestOp::Point: return "point";
      case RequestOp::Stats: return "stats";
      case RequestOp::Catalog: return "catalog";
      case RequestOp::Shutdown: return "shutdown";
    }
    return "?";
}

Status
checkLimits(const ProtocolLimits &limits)
{
    if (limits.maxTotalBits > SweepOptions::kMaxTotalBits)
        return BPSIM_ERROR("max_bits ", limits.maxTotalBits,
                           " exceeds the engine ceiling of ",
                           SweepOptions::kMaxTotalBits);
    return Status();
}

Result<Request>
parseRequest(const JsonValue &root, const ProtocolLimits &limits)
{
    if (!root.isObject())
        return BPSIM_ERROR("request must be a JSON object");

    Request req;
    Result<std::string> op = stringField(root, "op", 32);
    if (!op.ok())
        return op.error();
    if (op.value() == "ping")
        req.op = RequestOp::Ping;
    else if (op.value() == "intern")
        req.op = RequestOp::Intern;
    else if (op.value() == "sweep")
        req.op = RequestOp::Sweep;
    else if (op.value() == "point")
        req.op = RequestOp::Point;
    else if (op.value() == "stats")
        req.op = RequestOp::Stats;
    else if (op.value() == "catalog")
        req.op = RequestOp::Catalog;
    else if (op.value() == "shutdown")
        req.op = RequestOp::Shutdown;
    else
        return BPSIM_ERROR("unknown op \"", op.value(), "\"");

    for (const auto &[key, value] : root.object()) {
        static_cast<void>(value);
        if (!keyAllowed(req.op, key))
            return BPSIM_ERROR("unknown field \"", key, "\" for op \"",
                               op.value(), "\"");
    }

    if (const JsonValue *id = root.find("id")) {
        if (!id->isString())
            return BPSIM_ERROR("field \"id\" must be a string");
        if (id->asString().size() > limits.maxIdBytes)
            return BPSIM_ERROR("field \"id\" longer than ",
                               limits.maxIdBytes, " bytes");
        req.id = id->asString();
    }

    const bool needsTrace = req.op == RequestOp::Intern ||
                            req.op == RequestOp::Sweep ||
                            req.op == RequestOp::Point;
    if (needsTrace) {
        const JsonValue *trace = root.find("trace");
        if (!trace)
            return BPSIM_ERROR("missing required field \"trace\"");
        Result<TraceRef> ref = parseTraceRef(*trace, limits);
        if (!ref.ok())
            return ref.error();
        req.trace = std::move(ref).value();
    }

    if (req.op == RequestOp::Sweep || req.op == RequestOp::Point) {
        Result<std::string> scheme =
            stringField(root, "scheme", limits.maxNameBytes);
        if (!scheme.ok())
            return scheme.error();
        req.scheme = std::move(scheme).value();
        if (const JsonValue *options = root.find("options")) {
            Status s = parseOptions(*options, limits, req.options);
            if (!s.ok())
                return s.error();
        }
        if (req.options.maxTotalBits > limits.maxTotalBits)
            return BPSIM_ERROR("default max_bits exceeds the server "
                               "limit of ",
                               limits.maxTotalBits,
                               "; pass explicit options");
    }

    if (req.op == RequestOp::Sweep) {
        if (const JsonValue *bypass = root.find("bypass_cache")) {
            Result<bool> b = boolField(*bypass, "bypass_cache");
            if (!b.ok())
                return b.error();
            req.bypassCache = b.value();
        }
    }

    if (req.op == RequestOp::Point) {
        const JsonValue *row = root.find("row_bits");
        const JsonValue *col = root.find("col_bits");
        if (!row || !col)
            return BPSIM_ERROR(
                "point requires \"row_bits\" and \"col_bits\"");
        Result<std::uint64_t> r =
            uintField(*row, "row_bits", 0, limits.maxTotalBits);
        if (!r.ok())
            return r.error();
        Result<std::uint64_t> c =
            uintField(*col, "col_bits", 0, limits.maxTotalBits);
        if (!c.ok())
            return c.error();
        if (r.value() + c.value() > limits.maxTotalBits)
            return BPSIM_ERROR("row_bits + col_bits exceeds the "
                               "server limit of ",
                               limits.maxTotalBits);
        req.rowBits = static_cast<unsigned>(r.value());
        req.colBits = static_cast<unsigned>(c.value());
    }

    return req;
}

JsonValue
okResponse(const std::string &id, RequestOp op)
{
    JsonValue::Object obj;
    obj.emplace("id", JsonValue(id));
    obj.emplace("ok", JsonValue(true));
    obj.emplace("op", JsonValue(requestOpName(op)));
    return JsonValue(std::move(obj));
}

JsonValue
errorResponse(const std::string &id, const std::string &code,
              const std::string &message)
{
    JsonValue::Object err;
    err.emplace("code", JsonValue(code));
    err.emplace("message", JsonValue(message));
    JsonValue::Object obj;
    obj.emplace("id", JsonValue(id));
    obj.emplace("ok", JsonValue(false));
    obj.emplace("error", JsonValue(std::move(err)));
    return JsonValue(std::move(obj));
}

JsonValue
surfaceJson(const Surface &surface)
{
    JsonValue::Array tiers;
    for (const SurfaceTier &tier : surface.tiers()) {
        JsonValue::Array points;
        for (const SurfacePoint &pt : tier.points) {
            JsonValue::Object p;
            p.emplace("row_bits", JsonValue(static_cast<std::int64_t>(
                                      pt.rowBits)));
            p.emplace("col_bits", JsonValue(static_cast<std::int64_t>(
                                      pt.colBits)));
            p.emplace("value", JsonValue(pt.value));
            points.emplace_back(std::move(p));
        }
        JsonValue::Object t;
        t.emplace("total_bits", JsonValue(static_cast<std::int64_t>(
                                    tier.totalBits)));
        t.emplace("points", JsonValue(std::move(points)));
        tiers.emplace_back(std::move(t));
    }
    return JsonValue(std::move(tiers));
}

JsonValue
sweepResponseJson(const SweepResponse &response)
{
    JsonValue::Object result;
    result.emplace("bht_miss_rate",
                   JsonValue(response.result.bhtMissRate));
    result.emplace("misprediction",
                   surfaceJson(response.result.misprediction));
    result.emplace("aliasing", surfaceJson(response.result.aliasing));
    result.emplace("harmless", surfaceJson(response.result.harmless));

    JsonValue::Object obj;
    obj.emplace("cache_hit", JsonValue(response.cacheHit));
    obj.emplace("disk_hit", JsonValue(response.diskHit));
    obj.emplace("coalesced", JsonValue(response.coalesced));
    obj.emplace("seconds", JsonValue(response.seconds));
    obj.emplace("result", JsonValue(std::move(result)));
    return JsonValue(std::move(obj));
}

} // namespace bpsim::service
