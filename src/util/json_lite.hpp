// Minimal recursive-descent JSON parser for the library's own artifacts.
//
// The pipeline emits JSON (Chrome traces, metrics snapshots, bench
// results) and a few consumers read it back: the
// benchdiff regression tool parses `BENCH_<suite>.json` files, and the
// tests prove every exported document is well-formed and carries the right
// values. Supports the full JSON value grammar; numbers are held as double
// (every value the exporters emit fits exactly or is only compared
// loosely). Throws std::runtime_error on malformed input.
#pragma once

#include <cctype>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace weakkeys::jsonlite {

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v;

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v);
  }

  [[nodiscard]] const Object& object() const { return std::get<Object>(v); }
  [[nodiscard]] const Array& array() const { return std::get<Array>(v); }
  [[nodiscard]] double number() const { return std::get<double>(v); }
  [[nodiscard]] bool boolean() const { return std::get<bool>(v); }
  [[nodiscard]] std::int64_t integer() const {
    return static_cast<std::int64_t>(std::get<double>(v));
  }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return is_object() && object().count(key) > 0;
  }
  /// Member access; throws if this is not an object or the key is absent.
  [[nodiscard]] const Value& at(const std::string& key) const {
    const auto& obj = object();
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json_lite: " + what + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void literal(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value{parse_string()};
      case 't': literal("true"); return Value{true};
      case 'f': literal("false"); return Value{false};
      case 'n': literal("null"); return Value{nullptr};
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    if (!consume('}')) {
      do {
        if (peek() != '"') fail("expected object key");
        std::string key = parse_string();
        expect(':');
        obj.emplace(std::move(key), parse_value());
      } while (consume(','));
      expect('}');
    }
    return Value{std::move(obj)};
  }

  Value parse_array() {
    expect('[');
    Array arr;
    if (!consume(']')) {
      do {
        arr.push_back(parse_value());
      } while (consume(','));
      expect(']');
    }
    return Value{std::move(arr)};
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("truncated escape");
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                fail("bad \\u digit");
            }
            // The exporters only \u-escape control characters, so a raw
            // byte append is enough for the tests' purposes.
            out += static_cast<char>(code & 0xff);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    try {
      return Value{std::stod(s_.substr(start, pos_ - start))};
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses `text` as a complete JSON document; throws std::runtime_error on
/// any syntax error.
inline Value parse(const std::string& text) {
  return detail::Parser(text).parse();
}

}  // namespace weakkeys::jsonlite
