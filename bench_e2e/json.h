// Minimal JSON reader and number emitter for the benchmark's own files:
// the known answers, BENCHMARK.json, run reports and the Chrome trace it
// writes.  Strings are written with check::jsonStr (check/jsonio.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

struct Json {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool isNumber() const { return type == Type::Number; }
  bool isString() const { return type == Type::String; }
  bool isArray() const { return type == Type::Array; }
  bool isObject() const { return type == Type::Object; }

  /// Member of an object, nullptr when absent or not an object.
  const Json* get(const std::string& key) const;
  /// Typed member lookups with a fallback for absent/mistyped members.
  double num(const std::string& key, double fallback = 0.0) const;
  std::string str(const std::string& key,
                  const std::string& fallback = "") const;
};

/// Parse one JSON document (trailing whitespace allowed).  nullopt with
/// `err` set (when non-null) on malformed input.
std::optional<Json> parseJson(std::string_view text, std::string* err);

/// Read and parse a file.
std::optional<Json> readJsonFile(const std::string& path, std::string* err);

/// A double with every significant digit (round-trips exactly);
/// non-finite values render as null, never as a made-up number.
std::string jsonNumber(double v);

}  // namespace bench
