#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace safeflow::support::json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::uint64_t Value::uintOr(std::uint64_t fallback) const {
  if (!isNumber() || number_value < 0.0) return fallback;
  return static_cast<std::uint64_t>(number_value);
}

std::string Value::memberString(std::string_view key,
                                const std::string& fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->stringOr(fallback) : fallback;
}

double Value::memberNumber(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->numberOr(fallback) : fallback;
}

std::uint64_t Value::memberUint(std::string_view key,
                                std::uint64_t fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->uintOr(fallback) : fallback;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool run(Value* out, std::string* error) {
    skipWs();
    if (!parseValue(out, 0)) {
      if (error != nullptr) {
        *error = error_ + " at byte " + std::to_string(pos_);
      }
      return false;
    }
    skipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at byte " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  bool consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parseObject(out, depth);
      case '[': return parseArray(out, depth);
      case '"':
        out->kind = Value::Kind::kString;
        return parseString(&out->string_value);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out->kind = Value::Kind::kBool;
        out->bool_value = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out->kind = Value::Kind::kBool;
        out->bool_value = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out->kind = Value::Kind::kNull;
        return true;
      default: return parseNumber(out);
    }
  }

  bool parseObject(Value* out, int depth) {
    ++pos_;  // '{'
    out->kind = Value::Kind::kObject;
    skipWs();
    if (consume('}')) return true;
    while (true) {
      skipWs();
      std::string key;
      if (!parseString(&key)) return fail("expected object key");
      skipWs();
      if (!consume(':')) return fail("expected ':'");
      skipWs();
      Value member;
      if (!parseValue(&member, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(member));
      skipWs();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool parseArray(Value* out, int depth) {
    ++pos_;  // '['
    out->kind = Value::Kind::kArray;
    skipWs();
    if (consume(']')) return true;
    while (true) {
      skipWs();
      Value element;
      if (!parseValue(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      skipWs();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string* out) {
    if (!consume('"')) return fail("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Our writer only emits \u00xx for control bytes; decode the
          // BMP point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Value* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      return fail("bad number");
    }
    out->kind = Value::Kind::kNumber;
    out->number_value = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse(std::string_view text, Value* out, std::string* error) {
  *out = Value{};
  return Parser(text).run(out, error);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace safeflow::support::json
