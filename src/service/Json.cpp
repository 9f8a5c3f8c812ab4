//===- service/Json.cpp - Minimal JSON value model -------------------------===//

#include "service/Json.h"

#include "support/TextIO.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace cai;
using namespace cai::service;

void Json::write(std::ostream &OS) const {
  switch (K) {
  case Kind::Null:
    OS << "null";
    return;
  case Kind::Bool:
    OS << (B ? "true" : "false");
    return;
  case Kind::Int:
    OS << I;
    return;
  case Kind::Double: {
    // %.17g round-trips doubles; trim to %g-style for whole values.
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    OS << Buf;
    return;
  }
  case Kind::String:
    writeJsonString(OS, S);
    return;
  case Kind::Array: {
    OS << '[';
    for (size_t J = 0; J < Arr.size(); ++J) {
      if (J)
        OS << ',';
      Arr[J].write(OS);
    }
    OS << ']';
    return;
  }
  case Kind::Object: {
    OS << '{';
    for (size_t J = 0; J < Fields.size(); ++J) {
      if (J)
        OS << ',';
      writeJsonString(OS, Fields[J].first);
      OS << ':';
      Fields[J].second.write(OS);
    }
    OS << '}';
    return;
  }
  }
}

std::string Json::dump() const {
  std::ostringstream OS;
  write(OS);
  return OS.str();
}

namespace {

/// Recursive-descent parser over a byte string.  Depth-limited so a hostile
/// request line cannot blow the stack.
class Parser {
public:
  Parser(std::string_view S, std::string *Error) : S(S), Error(Error) {}

  std::optional<Json> run() {
    std::optional<Json> V = value(0);
    if (!V)
      return std::nullopt;
    skipWs();
    if (Pos != S.size())
      return fail("trailing characters after JSON document");
    return V;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  std::nullopt_t fail(const std::string &Msg) {
    if (Error && Error->empty())
      *Error = Msg + " at offset " + std::to_string(Pos);
    return std::nullopt;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (S.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  std::optional<Json> value(unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input");
    switch (S[Pos]) {
    case 'n':
      return literal("null") ? std::optional<Json>(Json::null())
                             : fail("bad literal");
    case 't':
      return literal("true") ? std::optional<Json>(Json::boolean(true))
                             : fail("bad literal");
    case 'f':
      return literal("false") ? std::optional<Json>(Json::boolean(false))
                              : fail("bad literal");
    case '"': {
      std::optional<std::string> Text = string();
      if (!Text)
        return std::nullopt;
      return Json::str(std::move(*Text));
    }
    case '[':
      return array(Depth);
    case '{':
      return object(Depth);
    default:
      return number();
    }
  }

  /// The text of the string literal whose opening quote is at Pos.
  std::optional<std::string> string() {
    ++Pos; // opening quote
    std::string Out;
    while (Pos < S.size()) {
      unsigned char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return Out;
      }
      if (C == '\\') {
        if (Pos + 1 >= S.size())
          break;
        char E = S[++Pos];
        ++Pos;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 > S.size())
            return fail("truncated \\u escape");
          unsigned V = 0;
          for (int K = 0; K < 4; ++K) {
            char H = S[Pos + K];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= unsigned(H - '0');
            else if (H >= 'a' && H <= 'f')
              V |= unsigned(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              V |= unsigned(H - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          Pos += 4;
          // Encode the code point as UTF-8 (no surrogate pairing: the
          // protocol is ASCII in practice, and lone surrogates degrade to
          // replacement-free 3-byte forms rather than erroring).
          if (V < 0x80) {
            Out += char(V);
          } else if (V < 0x800) {
            Out += char(0xC0 | (V >> 6));
            Out += char(0x80 | (V & 0x3F));
          } else {
            Out += char(0xE0 | (V >> 12));
            Out += char(0x80 | ((V >> 6) & 0x3F));
            Out += char(0x80 | (V & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      // Append the run of plain characters that starts here whole.
      size_t Run = Pos + 1;
      while (Run < S.size() && S[Run] != '"' && S[Run] != '\\' &&
             static_cast<unsigned char>(S[Run]) >= 0x20)
        ++Run;
      Out.append(S, Pos, Run - Pos);
      Pos = Run;
    }
    return fail("unterminated string");
  }

  std::optional<Json> number() {
    size_t Begin = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    bool Digits = false;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos]))) {
      ++Pos;
      Digits = true;
    }
    bool Integral = true;
    if (Pos < S.size() && S[Pos] == '.') {
      Integral = false;
      ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      Integral = false;
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (!Digits)
      return fail("expected a JSON value");
    if (Integral) {
      int64_t V = 0;
      auto [End, Err] = std::from_chars(S.data() + Begin, S.data() + Pos, V);
      if (Err == std::errc() && End == S.data() + Pos)
        return Json::integer(V);
      // Out of int64 range: fall through to double.
    }
    try {
      return Json::number(std::stod(std::string(S.substr(Begin, Pos - Begin))));
    } catch (...) {
      return fail("unparsable number");
    }
  }

  std::optional<Json> array(unsigned Depth) {
    ++Pos; // '['
    Json Out = Json::array();
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return Out;
    }
    while (true) {
      std::optional<Json> V = value(Depth + 1);
      if (!V)
        return std::nullopt;
      Out.push(std::move(*V));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated array");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return Out;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<Json> object(unsigned Depth) {
    ++Pos; // '{'
    Json Out = Json::object();
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return Out;
    }
    while (true) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"')
        return fail("expected object key");
      std::optional<std::string> Key = string();
      if (!Key)
        return std::nullopt;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      std::optional<Json> V = value(Depth + 1);
      if (!V)
        return std::nullopt;
      Out.set(std::move(*Key), std::move(*V));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return Out;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  std::string_view S;
  std::string *Error;
  size_t Pos = 0;
};

} // namespace

std::optional<Json> Json::parse(std::string_view Text, std::string *Error) {
  if (Error)
    Error->clear();
  return Parser(Text, Error).run();
}
