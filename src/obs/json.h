#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uniq::obs {

/// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;                                         ///< kString, UTF-8
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// First member named `key` of an object, or nullptr.
  const JsonValue* find(std::string_view key) const;
};

/// Strict RFC 8259 parser: objects, arrays, strings, numbers,
/// true/false/null; no trailing commas, comments, or leading zeros, and at
/// most 64 nested values (rules files come from outside the program).
/// Strings decode every escape, `\uXXXX` to UTF-8 with surrogate pairs
/// combined; a lone surrogate is an error. Returns the value tree when
/// `text` is exactly one JSON value, else nullopt with `error` (when
/// non-null) set to "invalid JSON at byte N: reason". A successful parse is
/// the validity check for the CLI's own exports.
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* error = nullptr);

/// Escape a string for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(const std::string& s);

}  // namespace uniq::obs
