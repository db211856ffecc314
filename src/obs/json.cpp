#include "obs/json.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace uniq::obs {

namespace {

/// Recursive-descent parser over a string_view. Errors unwind as false
/// with the cursor on the first offending byte.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue root;
    skipWs();
    bool ok = value(&root);
    if (ok) {
      skipWs();
      if (pos_ != text_.size())
        ok = fail("trailing characters after top-level value");
    }
    if (ok) return root;
    if (error) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "invalid JSON at byte %zu: %s", pos_,
                    reason_ ? reason_ : "malformed value");
      *error = buf;
    }
    return std::nullopt;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  bool fail(const char* reason) {
    if (!reason_) reason_ = reason;
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool isDigit() const { return !eof() && peek() >= '0' && peek() <= '9'; }

  void skipWs() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("unknown literal");
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue* out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    bool ok;
    if (eof()) {
      ok = fail("unexpected end of input");
    } else {
      switch (peek()) {
        case '{':
          ok = object(out);
          break;
        case '[':
          ok = array(out);
          break;
        case '"':
          out->type = JsonValue::Type::kString;
          ok = string(&out->str);
          break;
        case 't':
          out->type = JsonValue::Type::kBool;
          out->boolean = true;
          ok = literal("true");
          break;
        case 'f':
          out->type = JsonValue::Type::kBool;
          ok = literal("false");
          break;
        case 'n':
          ok = literal("null");
          break;
        default:
          ok = number(out);
      }
    }
    --depth_;
    return ok;
  }

  bool object(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skipWs();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (eof() || peek() != '"') return fail("expected object key string");
      std::string key;
      if (!string(&key)) return false;
      skipWs();
      if (eof() || peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skipWs();
      JsonValue member;
      if (!value(&member)) return false;
      out->members.emplace_back(std::move(key), std::move(member));
      skipWs();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skipWs();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      out->items.emplace_back();
      if (!value(&out->items.back())) return false;
      skipWs();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  /// Four hex digits of a \u escape, cursor on the first digit.
  bool hex4(std::uint32_t* unit) {
    if (text_.size() - pos_ < 4) return fail("bad \\u escape");
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      const char h = text_[pos_ + i];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= static_cast<std::uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        v |= static_cast<std::uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        v |= static_cast<std::uint32_t>(h - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    pos_ += 4;
    *unit = v;
    return true;
  }

  /// Decode a \u escape (cursor after the 'u'), pairing a high surrogate
  /// with the \u escape that must follow it, and append it as UTF-8.
  bool unicodeEscape(std::string* out) {
    std::uint32_t cp = 0;
    if (!hex4(&cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("lone surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      std::uint32_t low = 0;
      if (text_.substr(pos_, 2) != "\\u") return fail("lone surrogate");
      pos_ += 2;
      if (!hex4(&low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("lone surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    const auto put = [out](std::uint32_t byte) {
      out->push_back(static_cast<char>(byte));
    };
    if (cp < 0x80) {
      put(cp);
    } else if (cp < 0x800) {
      put(0xC0 | (cp >> 6));
      put(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      put(0xE0 | (cp >> 12));
      put(0x80 | ((cp >> 6) & 0x3F));
      put(0x80 | (cp & 0x3F));
    } else {
      put(0xF0 | (cp >> 18));
      put(0x80 | ((cp >> 12) & 0x3F));
      put(0x80 | ((cp >> 6) & 0x3F));
      put(0x80 | (cp & 0x3F));
    }
    return true;
  }

  bool string(std::string* out) {
    ++pos_;  // opening quote
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(peek());
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("raw control character in string");
      ++pos_;
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        continue;
      }
      if (eof()) return fail("unterminated escape");
      switch (peek()) {
        case '"':
        case '\\':
        case '/':
          out->push_back(peek());
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u':
          ++pos_;
          if (!unicodeEscape(out)) return false;
          continue;
        default:
          return fail("unknown escape character");
      }
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool digits() {
    if (!isDigit()) return fail("expected digit");
    while (isDigit()) ++pos_;
    return true;
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof()) return fail("expected number");
    if (peek() == '0') {
      ++pos_;  // leading zero must stand alone
    } else if (!digits()) {
      return false;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    // The grammar is checked; strtod only converts (on a NUL-terminated
    // copy, since the view need not be terminated).
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(
        std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  const char* reason_ = nullptr;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* error) {
  return Parser(text).run(error);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace uniq::obs
