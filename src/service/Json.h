//===- service/Json.h - Minimal JSON value model -----------------*- C++ -*-===//
///
/// \file
/// A small JSON value (parse + serialize) for the analysis service's wire
/// protocol and batch manifests.  Scope is deliberately tight: UTF-8
/// pass-through, 64-bit integers plus doubles, objects keep insertion
/// order on write (the service emits fields in a fixed order so two runs
/// produce byte-identical lines).  The obs layer keeps its hand-rolled
/// writers, and they and this class share one string escaper
/// (writeJsonString, support/TextIO.h); this exists because cai-serve
/// must *read* JSON, which no other subsystem needed before.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_JSON_H
#define CAI_SERVICE_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cai {
namespace service {

/// One JSON value.  Numbers remember whether they were integral so ids
/// round-trip exactly.
class Json {
public:
  enum class Kind : uint8_t { Null, Bool, Int, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  static Json null() { return Json(); }
  static Json boolean(bool B) {
    Json J;
    J.K = Kind::Bool;
    J.B = B;
    return J;
  }
  static Json integer(int64_t I) {
    Json J;
    J.K = Kind::Int;
    J.I = I;
    return J;
  }
  static Json number(double D) {
    Json J;
    J.K = Kind::Double;
    J.D = D;
    return J;
  }
  static Json str(std::string S) {
    Json J;
    J.K = Kind::String;
    J.S = std::move(S);
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isBool() const { return K == Kind::Bool; }

  bool asBool() const { return B; }
  int64_t asInt() const { return K == Kind::Double ? int64_t(D) : I; }
  double asDouble() const { return K == Kind::Int ? double(I) : D; }
  const std::string &asString() const { return S; }
  const std::vector<Json> &items() const { return Arr; }

  /// Object access; returns nullptr when absent or not an object.
  const Json *get(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[F, V] : Fields)
      if (F == Key)
        return &V;
    return nullptr;
  }
  const std::vector<std::pair<std::string, Json>> &fields() const {
    return Fields;
  }

  /// Builder-style mutation (objects keep insertion order).
  Json &set(std::string Key, Json V) {
    Fields.emplace_back(std::move(Key), std::move(V));
    return *this;
  }
  Json &push(Json V) {
    Arr.push_back(std::move(V));
    return *this;
  }

  /// Serializes compactly (no whitespace), escaping per RFC 8259.
  void write(std::ostream &OS) const;
  std::string dump() const;

  /// Parses one JSON document from \p Text.  On failure returns
  /// std::nullopt and, when \p Error is non-null, a one-line message with
  /// the byte offset.  Trailing garbage after the document is an error.
  static std::optional<Json> parse(std::string_view Text,
                                   std::string *Error = nullptr);

private:
  Kind K;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Arr;
  std::vector<std::pair<std::string, Json>> Fields;
};

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_JSON_H
