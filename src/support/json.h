// Minimal JSON reader and string escaper: parses the documents the tool
// itself emits (the worker envelope, cache entries, `--stats-json`
// metrics) and the daemon's requests back into a small value tree. This
// is a strict RFC-8259 subset reader — objects, arrays, strings with the
// escapes our writer produces, numbers, booleans, null — with a depth
// cap so a corrupted or adversarial worker stream cannot blow the stack.
// It is not a general-purpose JSON library and does not preserve number
// formatting round-trips; documents are always rendered anew.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace safeflow::support::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> array;
  /// Members in document order (our writers emit deterministic order).
  std::vector<std::pair<std::string, Value>> members;

  [[nodiscard]] bool isObject() const { return kind == Kind::kObject; }
  [[nodiscard]] bool isArray() const { return kind == Kind::kArray; }
  [[nodiscard]] bool isString() const { return kind == Kind::kString; }
  [[nodiscard]] bool isNumber() const { return kind == Kind::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Typed accessors with defaults (tolerate absent/mistyped members so
  /// the supervisor degrades instead of crashing on a torn report).
  [[nodiscard]] double numberOr(double fallback) const {
    return isNumber() ? number_value : fallback;
  }
  [[nodiscard]] std::uint64_t uintOr(std::uint64_t fallback) const;
  [[nodiscard]] const std::string& stringOr(
      const std::string& fallback) const {
    return isString() ? string_value : fallback;
  }
  [[nodiscard]] bool boolOr(bool fallback) const {
    return kind == Kind::kBool ? bool_value : fallback;
  }

  /// Convenience: member `key` as string/number/uint with a default.
  [[nodiscard]] std::string memberString(std::string_view key,
                                         const std::string& fallback = {}) const;
  [[nodiscard]] double memberNumber(std::string_view key,
                                    double fallback = 0.0) const;
  [[nodiscard]] std::uint64_t memberUint(std::string_view key,
                                         std::uint64_t fallback = 0) const;
};

/// Escapes `s` for use inside a JSON string literal: quote, backslash,
/// newline and tab by name, every other control byte as \u00XX. The one
/// escaper behind every document the tool writes.
[[nodiscard]] std::string escape(std::string_view s);

/// Parses `text` into `*out`. On failure returns false and, when `error`
/// is non-null, stores a one-line description with byte offset.
bool parse(std::string_view text, Value* out, std::string* error = nullptr);

}  // namespace safeflow::support::json
