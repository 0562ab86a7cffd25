#include "src/telemetry/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace dspcam::telemetry::json {

/// Recursive-descent parser over a string_view; recursion is bounded by
/// kMaxDepth.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result run() {
    Result r;
    skip_ws();
    if (value(r.value, 0)) {
      skip_ws();
      if (pos_ == text_.size()) {
        r.ok = true;
        return r;
      }
      error_ = "trailing characters after document";
    }
    r.value = Value{};
    r.error_offset = pos_;
    r.error = error_.empty() ? "malformed JSON" : error_;
    return r;
  }

 private:
  bool fail(std::string why) {
    error_ = std::move(why);
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool digit() const {
    return !eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0;
  }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  /// Appends code unit `cp` as UTF-8 (a surrogate half is encoded on its
  /// own; the writers here escape only control characters).
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string& out) {
    if (eof() || peek() != '"') return fail("expected string");
    ++pos_;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': case '\\': case '/': out += esc; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof() || std::isxdigit(static_cast<unsigned char>(peek())) == 0) {
              return fail("bad \\u escape");
            }
            const char h = text_[pos_++];
            cp = cp * 16 + static_cast<unsigned>(
                               h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (!digit()) return fail("expected digit");
    // Strict JSON: the integer part is "0" or starts with a nonzero digit.
    if (peek() == '0') {
      ++pos_;
      if (digit()) return fail("leading zero in number");
    } else {
      while (digit()) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digit()) return fail("expected fraction digits");
      while (digit()) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digit()) return fail("expected exponent digits");
      while (digit()) ++pos_;
    }
    out.kind_ = Value::Kind::kNumber;
    out.text_ = text_.substr(start, pos_ - start);
    return true;
  }

  /// `depth` counts the containers around the value.
  bool value(Value& out, std::size_t depth) {
    if (eof()) return fail("unexpected end of document");
    switch (peek()) {
      case '{':
      case '[':
        if (depth == kMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                      " levels");
        }
        return peek() == '{' ? object(out, depth + 1) : array(out, depth + 1);
      case '"':
        out.kind_ = Value::Kind::kString;
        return string(out.text_);
      case 't':
      case 'f':
        out.kind_ = Value::Kind::kBool;
        out.flag_ = peek() == 't';
        return literal(out.flag_ ? "true" : "false");
      case 'n':
        return literal("null");
      default:
        return number(out);
    }
  }

  bool object(Value& out, std::size_t depth) {
    ++pos_;  // '{'
    out.kind_ = Value::Kind::kObject;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      Value::Member& m = out.members_.emplace_back();
      if (!string(m.key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':' in object");
      ++pos_;
      skip_ws();
      if (!value(m.value, depth)) return false;
      skip_ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(Value& out, std::size_t depth) {
    ++pos_;  // '['
    out.kind_ = Value::Kind::kArray;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value(out.items_.emplace_back(), depth)) return false;
      skip_ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::optional<bool> Value::boolean() const {
  if (kind_ != Kind::kBool) return std::nullopt;
  return flag_;
}

std::optional<double> Value::number() const {
  if (kind_ != Kind::kNumber) return std::nullopt;
  return std::strtod(text_.c_str(), nullptr);
}

std::optional<std::uint64_t> Value::u64() const {
  if (kind_ != Kind::kNumber) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text_) {
    if (c < '0' || c > '9') return std::nullopt;
    const unsigned digit = static_cast<unsigned>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    v = v * 10 + digit;
  }
  return v;
}

std::optional<std::string_view> Value::str() const {
  if (kind_ != Kind::kString) return std::nullopt;
  return std::string_view(text_);
}

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members_) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

Result parse(std::string_view text) { return Parser(text).run(); }

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace dspcam::telemetry::json
