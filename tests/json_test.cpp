//===- tests/json_test.cpp - The wire format's JSON reader -----------------===//
//
// Every request line and every persisted result goes through Json::parse.
// These tests pin its edges -- escapes at the boundaries of plain string
// runs, control characters, unterminated strings, the int64 range, the
// nesting bound, duplicate keys and trailing garbage, each error with its
// message and byte offset -- and then check two properties over seeded
// random input: a dumped value parses back to the same bytes, and a
// mutated protocol line either parses or is rejected with an error,
// never a crash.
//
//===----------------------------------------------------------------------===//

#include "service/Json.h"
#include "service/Protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

using namespace cai;
using namespace cai::service;

namespace {

/// The error Json::parse reports for \p Text ("" if it parses).
std::string parseError(const std::string &Text) {
  std::string Error;
  std::optional<Json> J = Json::parse(Text, &Error);
  EXPECT_EQ(J.has_value(), Error.empty()) << Text;
  return Error;
}

/// The string \p Text parses to.
std::string parsedString(const std::string &Text) {
  std::optional<Json> J = Json::parse(Text);
  EXPECT_TRUE(J && J->isString()) << Text;
  return J && J->isString() ? J->asString() : std::string();
}

TEST(JsonParse, EscapesAtTheEdgesOfPlainRuns) {
  EXPECT_EQ(parsedString(R"("a\"b")"), "a\"b");
  EXPECT_EQ(parsedString(R"("\\")"), "\\");
  EXPECT_EQ(parsedString(R"("\u00e9x")"), "\xc3\xa9x");
  EXPECT_EQ(parsedString(R"("x\u00e9")"), "x\xc3\xa9");
  EXPECT_EQ(parsedString(R"("\n\t\/\b\f\r")"), "\n\t/\b\f\r");
  EXPECT_EQ(parsedString(R"("ab\u0041cd\u20ac")"), "abAcd\xe2\x82\xac");
  EXPECT_EQ(parsedString(R"("")"), "");
  // Bytes past ASCII pass through a run unchanged.
  EXPECT_EQ(parsedString("\"\xc3\xa9t\xc3\xa9\""), "\xc3\xa9t\xc3\xa9");
}

TEST(JsonParse, StringErrorsKeepTheirOffsets) {
  // A raw control character inside a run is rejected where it stands.
  EXPECT_EQ(parseError("\"ab\x01" "cd\""),
            "raw control character in string at offset 3");
  EXPECT_EQ(parseError("\"ab\ncd\""),
            "raw control character in string at offset 3");
  EXPECT_EQ(parseError("\"abc"), "unterminated string at offset 4");
  EXPECT_EQ(parseError("\""), "unterminated string at offset 1");
  // A backslash that ends the input is reported at the backslash.
  EXPECT_EQ(parseError("\"ab\\"), "unterminated string at offset 3");
  EXPECT_EQ(parseError(R"("ab\q")"), "unknown escape at offset 5");
  EXPECT_EQ(parseError(R"("\u12")"), "truncated \\u escape at offset 3");
  EXPECT_EQ(parseError(R"("\u12g4")"), "bad \\u escape at offset 3");
  EXPECT_EQ(parseError(R"({"a":1,"b)"), "unterminated string at offset 9");
  EXPECT_EQ(parseError(R"({"a\x":1})"), "unknown escape at offset 5");
}

TEST(JsonParse, IntegersAndDoubles) {
  std::optional<Json> Max = Json::parse("9223372036854775807");
  ASSERT_TRUE(Max);
  EXPECT_EQ(Max->kind(), Json::Kind::Int);
  EXPECT_EQ(Max->asInt(), std::numeric_limits<int64_t>::max());
  std::optional<Json> Min = Json::parse("-9223372036854775808");
  ASSERT_TRUE(Min);
  EXPECT_EQ(Min->kind(), Json::Kind::Int);
  EXPECT_EQ(Min->asInt(), std::numeric_limits<int64_t>::min());
  // One past the int64 range reads as a double.
  std::optional<Json> Past = Json::parse("9223372036854775808");
  ASSERT_TRUE(Past);
  EXPECT_EQ(Past->kind(), Json::Kind::Double);
  EXPECT_EQ(Past->asDouble(), 9223372036854775808.0);
  std::optional<Json> Below = Json::parse("-9223372036854775809");
  ASSERT_TRUE(Below);
  EXPECT_EQ(Below->kind(), Json::Kind::Double);
  std::optional<Json> NegZero = Json::parse("-0");
  ASSERT_TRUE(NegZero);
  EXPECT_EQ(NegZero->kind(), Json::Kind::Int);
  EXPECT_EQ(NegZero->asInt(), 0);
  EXPECT_EQ(Json::parse("007")->asInt(), 7);
  for (const char *Text : {"1e3", "1E3", "1e+3", "1000.0", "10e2"}) {
    std::optional<Json> J = Json::parse(Text);
    ASSERT_TRUE(J) << Text;
    EXPECT_EQ(J->kind(), Json::Kind::Double) << Text;
    EXPECT_EQ(J->asDouble(), 1000.0) << Text;
  }
  EXPECT_EQ(Json::parse("2.5e-1")->asDouble(), 0.25);
  EXPECT_EQ(Json::parse("-1.5")->asDouble(), -1.5);
  EXPECT_EQ(Json::parse("[1,-2]")->items()[1].asInt(), -2);
  EXPECT_EQ(parseError("-"), "expected a JSON value at offset 1");
  EXPECT_EQ(parseError("-x"), "expected a JSON value at offset 1");
  EXPECT_EQ(parseError(".5"), "expected a JSON value at offset 2");
  EXPECT_EQ(parseError("1e999"), "unparsable number at offset 5");
  EXPECT_EQ(parseError("x"), "expected a JSON value at offset 0");
}

TEST(JsonParse, NestingIsBoundedAt64) {
  auto Nested = [](unsigned Depth, char Open, const std::string &Inner) {
    std::string Text;
    for (unsigned I = 0; I < Depth; ++I)
      Text += Open == '[' ? "[" : "{\"k\":";
    Text += Inner;
    Text += std::string(Depth, Open == '[' ? ']' : '}');
    return Text;
  };
  EXPECT_EQ(parseError(Nested(64, '[', "1")), "");
  EXPECT_EQ(parseError(Nested(65, '[', "1")), "nesting too deep at offset 65");
  EXPECT_EQ(parseError(Nested(64, '{', "1")), "");
  EXPECT_EQ(parseError(Nested(65, '{', "1")),
            "nesting too deep at offset 325");
}

TEST(JsonParse, DuplicateKeysGetTheFirst) {
  std::optional<Json> J = Json::parse(R"({"a":1,"b":2,"a":3})");
  ASSERT_TRUE(J);
  ASSERT_NE(J->get("a"), nullptr);
  EXPECT_EQ(J->get("a")->asInt(), 1);
  EXPECT_EQ(J->fields().size(), 3u);
  EXPECT_EQ(J->dump(), R"({"a":1,"b":2,"a":3})");
}

TEST(JsonParse, TrailingGarbageIsAnError) {
  EXPECT_EQ(parseError("{} x"),
            "trailing characters after JSON document at offset 3");
  EXPECT_EQ(parseError("1 2"),
            "trailing characters after JSON document at offset 2");
  EXPECT_EQ(parseError(R"("a""b")"),
            "trailing characters after JSON document at offset 3");
  EXPECT_EQ(parseError(" [1] \n"), "");
  EXPECT_EQ(parseError(""), "unexpected end of input at offset 0");
  EXPECT_EQ(parseError("[1,"), "unexpected end of input at offset 3");
  EXPECT_EQ(parseError("[1 2]"), "expected ',' or ']' in array at offset 3");
  EXPECT_EQ(parseError(R"({"a" 1})"),
            "expected ':' after object key at offset 5");
  EXPECT_EQ(parseError("{1:2}"), "expected object key at offset 1");
  EXPECT_EQ(parseError("nul"), "bad literal at offset 0");
}

/// A random JSON value of at most \p Depth levels.  Doubles stay normal
/// and nonzero: a dumped -0.0 reads back as the integer 0, and glibc
/// reports subnormals out of range.
Json randomValue(std::mt19937_64 &Rng, unsigned Depth) {
  auto Pick = [&](uint64_t N) { return Rng() % N; };
  auto RandomString = [&] {
    static const char Alphabet[] = "ab\"\\/\n\t\x01\x1f \xc3\xa9{}[]:,0u";
    std::string S;
    for (uint64_t I = 0, N = Pick(12); I < N; ++I)
      S += Alphabet[Pick(sizeof(Alphabet) - 1)];
    return S;
  };
  switch (Pick(Depth ? 7 : 5)) {
  case 0:
    return Json::null();
  case 1:
    return Json::boolean(Pick(2));
  case 2: {
    static const int64_t Edges[] = {0, -1, 1,
                                    std::numeric_limits<int64_t>::max(),
                                    std::numeric_limits<int64_t>::min()};
    return Json::integer(Pick(3) ? int64_t(Rng()) >> Pick(64)
                                 : Edges[Pick(5)]);
  }
  case 3: {
    double D = std::ldexp(double(Rng() >> 11) + 1.0, int(Pick(200)) - 150);
    return Json::number(Pick(2) ? D : -D);
  }
  case 4:
    return Json::str(RandomString());
  case 5: {
    Json A = Json::array();
    for (uint64_t I = 0, N = Pick(4); I < N; ++I)
      A.push(randomValue(Rng, Depth - 1));
    return A;
  }
  default: {
    Json O = Json::object();
    for (uint64_t I = 0, N = Pick(4); I < N; ++I)
      O.set(RandomString(), randomValue(Rng, Depth - 1));
    return O;
  }
  }
}

TEST(JsonParse, DumpedValuesParseBackToTheSameBytes) {
  std::mt19937_64 Rng(20061);
  for (unsigned I = 0; I < 3000; ++I) {
    std::string Text = randomValue(Rng, 5).dump();
    std::string Error;
    std::optional<Json> J = Json::parse(Text, &Error);
    ASSERT_TRUE(J) << Error << "\n" << Text;
    ASSERT_EQ(J->dump(), Text);
  }
}

TEST(JsonParse, MutatedProtocolLinesParseOrFailCleanly) {
  // Request lines of every kind, and a result line as the persist tier
  // stores it; each mutation must come back as a value or an error.
  JobResult R;
  R.Fingerprint = std::string(32, 'a');
  R.Status = JobStatus::AssertionsFailed;
  R.Domain = "affine >< uf";
  R.Assertions = {{"assert@10", true}, {"assert@20", false}};
  R.Linted = true;
  R.Findings.push_back({"dead-branch", "warning", 12, 3, 5,
                        "branch \"never\" taken", "poly >< uf"});
  R.Error = "\xc3\xa9";
  const std::vector<std::string> Lines = {
      R"({"id":1,"name":"fig1","program":"x := 0;\ny := F(x);\n)"
      R"(assert(y = F(x));\n","domain":"logical:poly,uf","options":)"
      R"({"encode":"comm","widening_delay":4,"timeout_ms":500}})",
      R"({"cmd":"analyze_edit","id":3,"program_id":"loops","program":)"
      R"("x := 0;\nwhile (x <= 5) {\n  x := x + 1;\n}\n",)"
      R"("domain":"logical:affine,uf"})",
      R"({"cmd":"lint","id":4,"program":"x := 1;\nif (x <= 0) {\n)"
      R"(  y := 9;\n}\n","domain":"logical:poly,uf"})",
      R"({"cmd":"stats"})",
      resultToJsonLine(R),
  };
  static const char Specials[] = "\"\\{}[]:,-0123456789eE.u \x01\x7f\xc3";
  std::mt19937_64 Rng(42);
  unsigned Parsed = 0, Rejected = 0;
  for (unsigned I = 0; I < 20000; ++I) {
    std::string Line = Lines[Rng() % Lines.size()];
    for (uint64_t M = 0, N = 1 + Rng() % 4; M < N && !Line.empty(); ++M) {
      size_t At = Rng() % Line.size();
      switch (Rng() % 5) {
      case 0: // Flip one bit.
        Line[At] = char(Line[At] ^ (1 << (Rng() % 8)));
        break;
      case 1: // Insert a byte the grammar cares about.
        Line.insert(At, 1, Specials[Rng() % (sizeof(Specials) - 1)]);
        break;
      case 2: // Delete a run.
        Line.erase(At, 1 + Rng() % 8);
        break;
      case 3: // Truncate.
        Line.resize(At);
        break;
      default: // Duplicate a slice in place.
        Line.insert(At, Line.substr(Rng() % Line.size(), 1 + Rng() % 16));
        break;
      }
    }
    std::string Error;
    if (Json::parse(Line, &Error)) {
      ++Parsed;
      EXPECT_TRUE(Error.empty());
    } else {
      ++Rejected;
      EXPECT_NE(Error.find(" at offset "), std::string::npos) << Line;
    }
    // The readers above the parser must cope with whatever it accepts.
    std::string RequestError;
    (void)parseRequest(Line, 1, &RequestError);
    (void)resultFromJsonLine(Line);
  }
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}

} // namespace
