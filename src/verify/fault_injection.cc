#include "verify/fault_injection.hh"

#include <algorithm>

#include <optional>

#include "cache/result_cache.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "service/server.hh"
#include "trace/trace_io.hh"

namespace bpsim::verify {

// --- FaultInjectingStream ----------------------------------------------

FaultInjectingStream::FaultInjectingStream(
    std::unique_ptr<ByteStream> inner, FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan)
{
    bpsim_assert(inner_, "FaultInjectingStream needs an inner stream");
}

bool
FaultInjectingStream::failing()
{
    std::uint64_t op = ops_++;
    if (plan_.sticky)
        return op >= plan_.failFrom;
    return op == plan_.failFrom;
}

std::size_t
FaultInjectingStream::read(void *dst, std::size_t n)
{
    if (!failing())
        return inner_->read(dst, n);
    // The first failing transfer may be short rather than empty.
    if (plan_.shortTransfer && ops_ - 1 == plan_.failFrom && n > 1)
        return inner_->read(dst, n / 2);
    return 0;
}

std::size_t
FaultInjectingStream::write(const void *src, std::size_t n)
{
    if (!failing())
        return inner_->write(src, n);
    if (plan_.shortTransfer && ops_ - 1 == plan_.failFrom && n > 1)
        return inner_->write(src, n / 2);
    return 0;
}

bool
FaultInjectingStream::seek(std::uint64_t pos)
{
    if (failing())
        return false;
    return inner_->seek(pos);
}

bool
FaultInjectingStream::size(std::uint64_t &out)
{
    if (failing())
        return false;
    return inner_->size(out);
}

bool
FaultInjectingStream::flush()
{
    if (failing())
        return false;
    return inner_->flush();
}

bool
FaultInjectingStream::close()
{
    // Like fclose(): even a failing close releases the stream.
    bool inner_ok = inner_->close();
    return !failing() && inner_ok;
}

const std::string &
FaultInjectingStream::describe() const
{
    return inner_->describe();
}

// --- Corruption fuzzing ------------------------------------------------

namespace {

/** Fixed .bpt header: magic, version, record count, name length. */
constexpr std::size_t fixedHeaderBytes = 4 + 4 + 8 + 4;

/**
 * One mutation attempt: load @p image, record the outcome against the
 * expectation, and append a violation description when the contract is
 * broken.
 */
void
attempt(const std::string &image, bool must_error,
        const std::string &what, CorruptionReport &report)
{
    Status st = tryLoadImage(image);
    if (must_error) {
        ++report.mustErrorMutations;
        if (!st.ok()) {
            ++report.structuredErrors;
        } else {
            report.violations.push_back(
                what + ": loaded cleanly, expected a structured error");
        }
    } else {
        ++report.payloadMutations;
        if (st.ok())
            ++report.payloadCleanLoads;
    }
}

} // namespace

Status
tryLoadImage(const std::string &image)
{
    auto reader = TraceReader::open(
        std::make_unique<MemoryByteStream>(image));
    if (!reader.ok())
        return reader.error();
    // The name may never outgrow the input: the header is validated
    // against the stream size before any allocation.
    bpsim_assert(reader.value().name().size() <= image.size(),
                 "reader allocated a name larger than the input");
    BranchRecord rec;
    while (reader.value().next(rec)) {
    }
    return reader.value().status();
}

CorruptionReport
fuzzTraceImage(const std::string &image, std::uint64_t seed,
               std::size_t truncations, std::size_t payloadFlips)
{
    CorruptionReport report;
    Status pristine = tryLoadImage(image);
    if (!pristine.ok()) {
        report.violations.push_back(
            "pristine image failed to load: " +
            pristine.error().message());
        return report;
    }

    // Every single-bit flip of the fixed header is detectable: magic
    // and version are compared exactly, and any change to the record
    // count or name length breaks the size reconciliation.
    std::size_t header =
        std::min(fixedHeaderBytes, image.size());
    for (std::size_t byte = 0; byte < header; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = image;
            mutant[byte] =
                static_cast<char>(mutant[byte] ^ (1 << bit));
            attempt(mutant, /*must_error=*/true,
                    detail::concat("header bit flip at byte ", byte,
                                   " bit ", bit),
                    report);
        }
    }

    // Any truncated prefix is detectable for the same reason.
    Pcg32 rng(seed);
    for (std::size_t i = 0; i < truncations && image.size() > 1; ++i) {
        auto keep = static_cast<std::size_t>(rng.nextBounded(
            static_cast<std::uint32_t>(image.size())));
        attempt(image.substr(0, keep), /*must_error=*/true,
                detail::concat("truncation to ", keep, " bytes"),
                report);
    }

    // Bit flips in the name or record payload may produce a different
    // but structurally valid trace; the contract is only "no crash,
    // no over-allocation" (enforced inside tryLoadImage, and by the
    // sanitizers when this campaign runs under asan-ubsan).
    for (std::size_t i = 0;
         i < payloadFlips && image.size() > fixedHeaderBytes; ++i) {
        auto span =
            static_cast<std::uint32_t>(image.size() - fixedHeaderBytes);
        std::size_t byte = fixedHeaderBytes + rng.nextBounded(span);
        std::string mutant = image;
        mutant[byte] = static_cast<char>(
            mutant[byte] ^ (1 << rng.nextBounded(8)));
        attempt(mutant, /*must_error=*/false, "payload bit flip",
                report);
    }

    return report;
}

namespace {

/** Fixed .bpc header: magic, format, total length, checksum. */
constexpr std::size_t bpcHeaderBytes = 4 + 4 + 8 + 8 + 8;

/** One .bpc mutation attempt; every .bpc mutation is must-error. */
void
attemptBpc(const std::string &image, const std::string &what,
           CorruptionReport &report)
{
    Status st = tryLoadBpcImage(image);
    ++report.mustErrorMutations;
    if (!st.ok()) {
        ++report.structuredErrors;
    } else {
        report.violations.push_back(
            what + ": loaded cleanly, expected a structured error");
    }
}

} // namespace

Status
tryLoadBpcImage(const std::string &image)
{
    MemoryByteStream stream(image);
    Result<BpcImage> parsed = readBpc(stream);
    if (!parsed.ok())
        return parsed.error();
    return Status();
}

CorruptionReport
fuzzBpcImage(const std::string &image, std::uint64_t seed,
             std::size_t truncations, std::size_t bodyFlips)
{
    CorruptionReport report;
    Status pristine = tryLoadBpcImage(image);
    if (!pristine.ok()) {
        report.violations.push_back(
            "pristine image failed to load: " +
            pristine.error().message());
        return report;
    }

    // Header flips: magic and format are compared exactly, the total
    // length is reconciled with the real stream size, and a flipped
    // checksum no longer matches the body.
    std::size_t header = std::min(bpcHeaderBytes, image.size());
    for (std::size_t byte = 0; byte < header; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = image;
            mutant[byte] =
                static_cast<char>(mutant[byte] ^ (1 << bit));
            attemptBpc(mutant,
                       detail::concat("bpc header bit flip at byte ",
                                      byte, " bit ", bit),
                       report);
        }
    }

    Pcg32 rng(seed);
    for (std::size_t i = 0; i < truncations && image.size() > 1; ++i) {
        auto keep = static_cast<std::size_t>(rng.nextBounded(
            static_cast<std::uint32_t>(image.size())));
        attemptBpc(image.substr(0, keep),
                   detail::concat("bpc truncation to ", keep,
                                  " bytes"),
                   report);
    }

    // Body flips are must-error too: the body is covered by the
    // header checksum, so a tampered result can never be served.
    for (std::size_t i = 0;
         i < bodyFlips && image.size() > bpcHeaderBytes; ++i) {
        auto span =
            static_cast<std::uint32_t>(image.size() - bpcHeaderBytes);
        std::size_t byte = bpcHeaderBytes + rng.nextBounded(span);
        int bit = static_cast<int>(rng.nextBounded(8));
        std::string mutant = image;
        mutant[byte] =
            static_cast<char>(mutant[byte] ^ (1 << bit));
        attemptBpc(mutant,
                   detail::concat("bpc body bit flip at byte ", byte,
                                  " bit ", bit),
                   report);
    }

    // Appending anything breaks the declared-length reconciliation.
    attemptBpc(image + '\0', "bpc trailing garbage", report);

    return report;
}

// --- Protocol fuzzing --------------------------------------------------

namespace {

/**
 * Serve one hostile line and validate the universal response
 * contract: exactly one line back, parseable JSON, boolean "ok".
 * @return the parsed response, or nullopt after recording a
 * violation.
 */
std::optional<service::JsonValue>
serveFuzzLine(service::SweepServer &server, const std::string &line,
              const std::string &what, RequestFuzzReport &report)
{
    std::string response;
    try {
        response = server.handleLine(line);
    } catch (...) {
        report.violations.push_back(
            detail::concat(what, ": handleLine threw"));
        return std::nullopt;
    }
    Result<service::JsonValue> parsed = service::parseJson(response);
    if (!parsed.ok()) {
        report.violations.push_back(detail::concat(
            what, ": response is not valid JSON: ", response));
        return std::nullopt;
    }
    const service::JsonValue *ok = parsed.value().find("ok");
    if (!ok || !ok->isBool()) {
        report.violations.push_back(detail::concat(
            what, ": response lacks a boolean \"ok\": ", response));
        return std::nullopt;
    }
    return std::move(parsed).value();
}

/** Serve a line whose rejection is guaranteed by the protocol. */
void
mustError(service::SweepServer &server, const std::string &line,
          const std::string &what, RequestFuzzReport &report)
{
    ++report.mustErrorLines;
    std::optional<service::JsonValue> response =
        serveFuzzLine(server, line, what, report);
    if (!response)
        return;
    if (response->find("ok")->asBool()) {
        report.violations.push_back(detail::concat(
            what, ": mangled request was served successfully"));
        return;
    }
    const service::JsonValue *error = response->find("error");
    if (!error || !error->isObject() || !error->find("message")) {
        report.violations.push_back(detail::concat(
            what, ": error response lacks an error object"));
        return;
    }
    ++report.structuredErrors;
}

} // namespace

RequestFuzzReport
fuzzRequestLines(service::SweepServer &server,
                 const std::string &valid_line, std::uint64_t seed,
                 std::size_t byteFlips)
{
    RequestFuzzReport report;

    // The seed request must actually be valid, or the campaign's
    // clean-mutant accounting is meaningless.
    {
        std::optional<service::JsonValue> response = serveFuzzLine(
            server, valid_line, "seed request", report);
        if (response && !response->find("ok")->asBool())
            report.violations.push_back(
                "seed request was itself rejected");
    }

    // Every strict prefix of a JSON object line is incomplete JSON.
    for (std::size_t keep = 0; keep < valid_line.size(); ++keep) {
        mustError(server, valid_line.substr(0, keep),
                  detail::concat("truncation to ", keep, " bytes"),
                  report);
    }

    // Random single-bit mutants: any outcome is allowed except a
    // contract violation (crash, non-JSON response, silence).
    Pcg32 rng(seed);
    for (std::size_t i = 0; i < byteFlips; ++i) {
        std::size_t byte = rng.nextBounded(
            static_cast<std::uint32_t>(valid_line.size()));
        int bit = static_cast<int>(rng.nextBounded(8));
        std::string mutant = valid_line;
        mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
        ++report.mutatedLines;
        std::optional<service::JsonValue> response = serveFuzzLine(
            server, mutant,
            detail::concat("bit flip at byte ", byte, " bit ", bit),
            report);
        if (response && response->find("ok")->asBool())
            ++report.cleanResponses;
    }

    // Unknown keys are rejected at every level.
    mustError(server,
              std::string("{\"definitely_unknown_key\":1,") +
                  valid_line.substr(1),
              "unknown top-level key", report);

    // Oversized id and oversized line.
    const service::ProtocolLimits &limits = server.options().limits;
    mustError(server,
              detail::concat("{\"op\":\"ping\",\"id\":\"",
                             std::string(limits.maxIdBytes + 1, 'x'),
                             "\"}"),
              "oversized id", report);
    mustError(server, std::string(limits.maxLineBytes + 1, ' '),
              "oversized line", report);

    // Structurally wrong requests.
    mustError(server, "", "empty line", report);
    mustError(server, "42", "number line", report);
    mustError(server, "\"ping\"", "string line", report);
    mustError(server, "[\"ping\"]", "array line", report);
    mustError(server, "null", "null line", report);
    mustError(server, "{\"op\":7}", "wrong-typed op", report);
    mustError(server, "{\"op\":\"no_such_op\"}", "unknown op",
              report);

    // Options valid field by field but not together, and the retired
    // lane-shard key.
    const std::string sweep_prefix =
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"compress\","
        "\"branches\":20000},\"scheme\":\"PAs(bht)\",\"options\":";
    mustError(server, sweep_prefix + "{\"bht_assoc\":3}}",
              "associativity not dividing the BHT", report);
    mustError(server,
              sweep_prefix + "{\"bht_entries\":2,\"bht_assoc\":4}}",
              "associativity wider than the BHT", report);
    mustError(server, sweep_prefix + "{\"fused_" "threads\":8}}",
              "retired lane-shard options field", report);

    // The server must still be alive and serving.
    {
        std::optional<service::JsonValue> response = serveFuzzLine(
            server, "{\"op\":\"ping\",\"id\":\"post-fuzz\"}",
            "post-campaign ping", report);
        if (response && !response->find("ok")->asBool())
            report.violations.push_back(
                "server stopped serving after the campaign");
    }

    return report;
}

} // namespace bpsim::verify
