// The one JSON reader and writer behind every artifact the repository
// writes or reads: metric snapshots, Chrome traces, black boxes,
// checkpoint files and bench rows (no JSON library dependency).
//
// Reader: parse() builds a small strict DOM - null, bool, number, string,
// array or object - or reports the first error with its byte offset. The
// syntax is strict RFC 8259: no trailing commas, no leading zeros, no raw
// control characters in strings, nothing after the document. Containers
// nested deeper than kMaxDepth are refused, so no input can exhaust the
// stack. Numbers keep their token text: number() is strtod of it, and u64()
// reads it exactly (digits only, overflow refused), which the checkpoint
// file's 64-bit words and checksums need.
//
// Writer: the exporters hand-serialise their JSON around quote(), which
// escapes every control character, and number(), so any name and any value
// comes out as valid JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dspcam::telemetry::json {

/// Deepest container nesting parse() accepts; deeper input is an error.
inline constexpr std::size_t kMaxDepth = 512;

class Parser;

/// One parsed JSON value.
class Value {
 public:
  struct Member;

  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// A bool's value; nullopt for any other kind.
  std::optional<bool> boolean() const;
  /// strtod of a number's token; nullopt for any other kind.
  std::optional<double> number() const;
  /// A number token of decimal digits only that fits 64 bits; nullopt for
  /// a sign, a fraction, an exponent, an overflow or any other kind.
  std::optional<std::uint64_t> u64() const;
  /// A string's unescaped text; nullopt for any other kind.
  std::optional<std::string_view> str() const;

  /// An array's elements (empty for any other kind).
  const std::vector<Value>& items() const noexcept { return items_; }
  /// An object's members in document order (empty for any other kind).
  const std::vector<Member>& members() const noexcept { return members_; }
  /// The first member named `key` of an object; nullptr when there is none
  /// or this is not an object.
  const Value* find(std::string_view key) const;

 private:
  friend class Parser;
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind_ = Kind::kNull;
  bool flag_ = false;  ///< A bool's value.
  std::string text_;   ///< A string's text or a number's token.
  std::vector<Value> items_;
  std::vector<Member> members_;
};

struct Value::Member {
  std::string key;
  Value value;
};

/// Outcome of parse().
struct Result {
  bool ok = false;
  Value value;                   ///< The document (null unless ok).
  std::size_t error_offset = 0;  ///< Byte offset of the first error.
  std::string error;             ///< Empty when ok.
};

/// Parses one JSON document (object, array or scalar).
Result parse(std::string_view text);

/// `s` as a JSON string literal, quotes included.
std::string quote(std::string_view s);

/// `v` as a JSON number ("%.6g"), or null when it is NaN or infinite.
std::string number(double v);

}  // namespace dspcam::telemetry::json
