/**
 * @file
 * Unit tests for the service line protocol: the JSON layer's parse/
 * render discipline (strict syntax, structural limits, exact double
 * round trips) and the request parser's strictness (unknown keys,
 * range checks, trace-reference forms).  The protocol is the daemon's
 * attack surface; these tests pin its contract at the unit level, the
 * fuzz campaign (test_service_fuzz) attacks it byte by byte.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "service/json.hh"
#include "service/protocol.hh"
#include "service/server.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace {

JsonValue
parseOk(const std::string &text)
{
    Result<JsonValue> v = parseJson(text);
    EXPECT_TRUE(v.ok()) << text << ": "
                        << (v.ok() ? "" : v.error().message());
    return v.ok() ? std::move(v).value() : JsonValue();
}

// --- JSON parsing ------------------------------------------------------

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_EQ(parseOk("42").asInt(), 42);
    EXPECT_EQ(parseOk("-7").asInt(), -7);
    EXPECT_TRUE(parseOk("1.5").isNumber());
    EXPECT_EQ(parseOk("1.5").asDouble(), 1.5);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(Json, IntVersusDoubleKinds)
{
    EXPECT_TRUE(parseOk("42").isInt());
    EXPECT_FALSE(parseOk("42.0").isInt());
    EXPECT_TRUE(parseOk("42.0").isNumber());
    EXPECT_TRUE(parseOk("1e3").isNumber());
    EXPECT_FALSE(parseOk("1e3").isInt());
}

TEST(Json, ParsesContainers)
{
    JsonValue v = parseOk("{\"a\": [1, 2, {\"b\": true}], \"c\": {}}");
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array().size(), 3u);
    EXPECT_EQ(a->array()[1].asInt(), 2);
    EXPECT_TRUE(a->array()[2].find("b")->asBool());
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\nb\\t\\\"c\\\\\"").asString(),
              "a\nb\t\"c\\");
    EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
    // UTF-8 encodings of BMP and astral codepoints.
    EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput)
{
    const char *bad[] = {
        "",          "{",          "}",        "[1,",
        "{\"a\":}",  "{\"a\" 1}",  "tru",      "nul",
        "01",        "1.",         "1e",       "-",
        "\"abc",     "\"\\q\"",    "\"\\u12\"", "{\"a\":1,}",
        "[1 2]",     "{'a':1}",    "1 2",      "{}garbage",
        "\"\\ud800\"", "\"\\udc00\"",
    };
    for (const char *text : bad)
        EXPECT_FALSE(parseJson(text).ok()) << text;
}

TEST(Json, RejectsDuplicateKeys)
{
    Result<JsonValue> v = parseJson("{\"a\":1,\"a\":2}");
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message().find("duplicate"),
              std::string::npos);
}

TEST(Json, EnforcesLimits)
{
    JsonLimits limits;
    limits.maxDepth = 3;
    limits.maxStringBytes = 4;
    limits.maxMembers = 2;
    EXPECT_TRUE(parseJson("[[[1]]]", limits).ok());
    EXPECT_FALSE(parseJson("[[[[1]]]]", limits).ok());
    EXPECT_TRUE(parseJson("\"abcd\"", limits).ok());
    EXPECT_FALSE(parseJson("\"abcde\"", limits).ok());
    EXPECT_TRUE(parseJson("[1,2]", limits).ok());
    EXPECT_FALSE(parseJson("[1,2,3]", limits).ok());
    EXPECT_FALSE(
        parseJson("{\"a\":1,\"b\":2,\"c\":3}", limits).ok());
}

TEST(Json, RejectsUnescapedControlCharacters)
{
    EXPECT_FALSE(parseJson("\"a\nb\"").ok());
    EXPECT_EQ(parseOk("\"a\\u0001b\"").asString(),
              std::string("a\x01"
                          "b"));
}

// --- JSON rendering ----------------------------------------------------

TEST(Json, RenderRoundTripsStructure)
{
    const std::string text =
        "{\"a\":[1,2.5,true,null],\"b\":\"x\\ny\"}";
    JsonValue v = parseOk(text);
    EXPECT_EQ(v.render(), text);
}

TEST(Json, DoublesRoundTripExactly)
{
    const double values[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        0.1,
        1e-300,
        1e300,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        0.042899999999999987,
        123456789.0, // integral double must come back as Double
    };
    for (double value : values) {
        JsonValue rendered(value);
        JsonValue parsed = parseOk(rendered.render());
        ASSERT_TRUE(parsed.isNumber()) << rendered.render();
        EXPECT_FALSE(parsed.isInt()) << rendered.render();
        const double back = parsed.asDouble();
        EXPECT_EQ(std::memcmp(&back, &value, sizeof(double)), 0)
            << rendered.render();
    }
}

TEST(Json, EscapesOnRender)
{
    JsonValue v(std::string("a\"b\\c\nd\x01"));
    EXPECT_EQ(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    JsonValue back = parseOk(v.render());
    EXPECT_EQ(back.asString(), v.asString());
}

// --- Request parsing ---------------------------------------------------

Result<Request>
parseLine(const std::string &text)
{
    Result<JsonValue> json = parseJson(text);
    if (!json.ok())
        return json.error();
    return parseRequest(json.value());
}

TEST(Protocol, LimitsAboveTheEngineCeilingAreRejected)
{
    // A daemon configured with max_bits past the engine's table
    // ceiling refuses to start (sweep_server checks this first).
    ProtocolLimits limits;
    EXPECT_TRUE(checkLimits(limits).ok());
    limits.maxTotalBits = SweepOptions::kMaxTotalBits;
    EXPECT_TRUE(checkLimits(limits).ok());
    limits.maxTotalBits = SweepOptions::kMaxTotalBits + 2;
    Status status = checkLimits(limits);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().message(),
              "max_bits 28 exceeds the engine ceiling of 26");
}

TEST(Protocol, ParsesMinimalOps)
{
    for (const char *op :
         {"ping", "stats", "catalog", "shutdown"}) {
        Result<Request> req = parseLine(
            std::string("{\"op\":\"") + op + "\",\"id\":\"i\"}");
        ASSERT_TRUE(req.ok()) << op;
        EXPECT_EQ(std::string(requestOpName(req.value().op)), op);
        EXPECT_EQ(req.value().id, "i");
    }
}

TEST(Protocol, ParsesSweepRequest)
{
    Result<Request> req = parseLine(
        "{\"op\":\"sweep\",\"id\":\"s\",\"trace\":{\"profile\":"
        "\"gcc\",\"branches\":5000},\"scheme\":\"gshare\","
        "\"options\":{\"min_bits\":5,\"max_bits\":9,\"aliasing\":"
        "false},\"bypass_cache\":true}");
    ASSERT_TRUE(req.ok()) << (req.ok() ? "" : req.error().message());
    const Request &r = req.value();
    EXPECT_EQ(r.op, RequestOp::Sweep);
    EXPECT_TRUE(r.trace.byProfile());
    EXPECT_EQ(r.trace.profile, "gcc");
    EXPECT_EQ(r.trace.branches, 5000u);
    EXPECT_EQ(r.scheme, "gshare");
    EXPECT_EQ(r.options.minTotalBits, 5u);
    EXPECT_EQ(r.options.maxTotalBits, 9u);
    EXPECT_FALSE(r.options.trackAliasing);
    EXPECT_TRUE(r.bypassCache);
}

TEST(Protocol, SegmentOptionsAreUnknownFields)
{
    // Every sweep is exact and the pool's threads are the only
    // execution knob: the retired speculative-segment keys and the
    // retired lane-shard key are unknown options fields, each a
    // bad_request that names the field.
    const std::string retired[] = {"\"segments\":4",
                                   "\"segment_warmup\":512",
                                   "\"fused_" "threads\":8"};
    SweepServer server;
    for (const std::string &option : retired) {
        const std::string field = option.substr(0, option.find(':'));
        JsonValue response = parseOk(server.handleLine(
            "{\"op\":\"sweep\",\"trace\":{\"profile\":\"compress\","
            "\"branches\":2000},\"scheme\":\"gshare\",\"options\":{" +
            option + "}}"));
        const JsonValue *error = response.find("error");
        ASSERT_NE(error, nullptr) << option;
        EXPECT_EQ(error->find("code")->asString(), "bad_request")
            << option;
        EXPECT_NE(error->find("message")->asString().find(
                      "unknown options field " + field),
                  std::string::npos)
            << error->find("message")->asString();
    }
}

TEST(Protocol, RejectsOptionsInvalidOnlyTogether)
{
    // Each field is in range alone; together they would abort the
    // planner or the BHT, so the parser rejects them as a request.
    const char *bad[] = {
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"PAs(bht)\",\"options\":{\"bht_assoc\":3}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"PAs(bht)\",\"options\":{\"bht_entries\":2,"
        "\"bht_assoc\":4}}",
        "{\"op\":\"point\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"PAs(bht)\",\"row_bits\":2,\"col_bits\":2,"
        "\"options\":{\"bht_assoc\":3}}",
    };
    for (const char *text : bad) {
        Result<Request> req = parseLine(text);
        ASSERT_FALSE(req.ok()) << text;
        EXPECT_NE(req.error().message().find("must divide"),
                  std::string::npos)
            << req.error().message();
    }
    EXPECT_TRUE(parseLine("{\"op\":\"sweep\",\"trace\":{\"profile\":"
                          "\"gcc\"},\"scheme\":\"PAs(bht)\",\"options\":"
                          "{\"bht_entries\":2,\"bht_assoc\":2}}")
                    .ok());
}

TEST(Protocol, OptionRangesAreBadRequestsAtBothEnds)
{
    // Every bounded option field just past each end of its range, and
    // 2^32 + 1 for the integer fields: a value its C++ field cannot
    // hold is rejected, never wrapped ("path_bits": 2^32 + 1 must not
    // become 1).  Each is a bad_request; the in-range ends parse.
    const char *bad[] = {
        "\"min_bits\":0",
        "\"min_bits\":25",
        "\"min_bits\":4294967297",
        "\"max_bits\":0",
        "\"max_bits\":25",
        "\"max_bits\":4294967297",
        "\"path_bits\":0",
        "\"path_bits\":17",
        "\"path_bits\":4294967297",
        "\"bht_entries\":0",
        "\"bht_entries\":33554432",
        "\"bht_entries\":4294967297",
        "\"bht_assoc\":0",
        "\"bht_assoc\":65",
        "\"bht_assoc\":4294967297",
        "\"tage_tag_bits\":1",
        "\"tage_tag_bits\":17",
        "\"tage_tag_bits\":4294967297",
        "\"tage_histories\":[]",
        "\"tage_histories\":[1,2,3,4,5,6,7,8,9]",
        "\"tage_histories\":[0]",
        "\"tage_histories\":[65]",
        "\"tage_histories\":[4294967297]",
        "\"tage_histories\":[4,4]",
        "\"perceptron_tables\":1",
        "\"perceptron_tables\":17",
        "\"perceptron_tables\":4294967297",
    };
    const char *good[] = {
        "\"min_bits\":1",
        "\"min_bits\":24,\"max_bits\":24",
        "\"path_bits\":1",
        "\"path_bits\":16",
        "\"bht_entries\":1,\"bht_assoc\":1",
        "\"bht_entries\":16777216",
        "\"bht_assoc\":64",
        "\"tage_tag_bits\":2",
        "\"tage_tag_bits\":16",
        "\"tage_histories\":[1]",
        "\"tage_histories\":[57,58,59,60,61,62,63,64]",
        "\"perceptron_tables\":2",
        "\"perceptron_tables\":16",
    };
    auto line = [](const char *option) {
        return std::string("{\"op\":\"sweep\",\"trace\":{\"profile\":"
                           "\"compress\",\"branches\":2000},\"scheme\":"
                           "\"gshare\",\"options\":{") +
               option + "}}";
    };
    SweepServer server;
    for (const char *option : bad) {
        JsonValue response = parseOk(server.handleLine(line(option)));
        const JsonValue *error = response.find("error");
        ASSERT_NE(error, nullptr) << option;
        EXPECT_EQ(error->find("code")->asString(), "bad_request")
            << option;
    }
    for (const char *option : good) {
        Result<Request> req = parseLine(line(option));
        EXPECT_TRUE(req.ok())
            << option << ": " << (req.ok() ? "" : req.error().message());
    }
}

TEST(Protocol, ParsesTraceForms)
{
    Result<Request> by_hash = parseLine(
        "{\"op\":\"intern\",\"trace\":{\"hash\":"
        "\"00000000000000010000000000000002\"}}");
    ASSERT_TRUE(by_hash.ok());
    EXPECT_TRUE(by_hash.value().trace.byHash());
    EXPECT_EQ(by_hash.value().trace.hash.hi, 1u);
    EXPECT_EQ(by_hash.value().trace.hash.lo, 2u);

    Result<Request> by_file = parseLine(
        "{\"op\":\"intern\",\"trace\":{\"file\":\"t.bpt\"}}");
    ASSERT_TRUE(by_file.ok());
    EXPECT_TRUE(by_file.value().trace.byFile());
}

TEST(Protocol, RejectsBadRequests)
{
    const char *bad[] = {
        // unknown / missing / wrong-typed fields
        "{\"id\":\"x\"}",
        "{\"op\":\"teleport\"}",
        "{\"op\":7}",
        "{\"op\":\"ping\",\"bogus\":1}",
        "{\"op\":\"ping\",\"trace\":{\"profile\":\"gcc\"}}",
        "{\"op\":\"sweep\",\"scheme\":\"gshare\"}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"}}",
        "{\"op\":\"sweep\",\"trace\":{},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"a\",\"hash\":"
        "\"00000000000000010000000000000002\"},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"branches\":5,\"file\":"
        "\"t.bpt\"},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"wat\":1},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"hash\":\"xyz\"},"
        "\"scheme\":\"g\"}",
        // options discipline
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"min_bits\":9,"
        "\"max_bits\":5}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"max_bits\":60}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"bht_entries\":100}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"turbo\":true}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"min_bits\":-3}}",
        // point discipline
        "{\"op\":\"point\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\"}",
        "{\"op\":\"point\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"row_bits\":20,\"col_bits\":20}",
        // sweep-only fields leaking onto other ops
        "{\"op\":\"point\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"row_bits\":1,\"col_bits\":1,"
        "\"bypass_cache\":true}",
    };
    for (const char *text : bad)
        EXPECT_FALSE(parseLine(text).ok()) << text;
}

TEST(Protocol, EnforcesFieldLimits)
{
    ProtocolLimits limits;
    const std::string big_id(limits.maxIdBytes + 1, 'x');
    Result<Request> req = parseLine(
        "{\"op\":\"ping\",\"id\":\"" + big_id + "\"}");
    EXPECT_FALSE(req.ok());

    const std::string ok_id(limits.maxIdBytes, 'x');
    EXPECT_TRUE(
        parseLine("{\"op\":\"ping\",\"id\":\"" + ok_id + "\"}")
            .ok());
}

TEST(Protocol, ResponseBuilders)
{
    JsonValue ok = okResponse("abc", RequestOp::Sweep);
    EXPECT_TRUE(ok.find("ok")->asBool());
    EXPECT_EQ(ok.find("id")->asString(), "abc");
    EXPECT_EQ(ok.find("op")->asString(), "sweep");

    JsonValue err =
        errorResponse("abc", errcode::kBadRequest, "broken");
    EXPECT_FALSE(err.find("ok")->asBool());
    const JsonValue *error = err.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("code")->asString(), "bad_request");
    EXPECT_EQ(error->find("message")->asString(), "broken");
}

TEST(Protocol, SurfaceJsonPreservesShapeAndBits)
{
    Surface s("misp");
    s.add(4, 0, 4, 0.25);
    s.add(4, 1, 3, 1.0 / 3.0);
    s.add(5, 2, 3, 0.1);
    JsonValue v = surfaceJson(s);
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.array().size(), 2u);
    const JsonValue &tier = v.array()[0];
    EXPECT_EQ(tier.find("total_bits")->asInt(), 4);
    ASSERT_EQ(tier.find("points")->array().size(), 2u);
    const double value =
        tier.find("points")->array()[1].find("value")->asDouble();
    const double expect = 1.0 / 3.0;
    EXPECT_EQ(std::memcmp(&value, &expect, sizeof(double)), 0);
}

} // namespace
