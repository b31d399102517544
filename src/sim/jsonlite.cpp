#include "sim/jsonlite.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace decentnet::sim::jsonlite {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::invalid_argument("JSON parse error at offset " +
                              std::to_string(offset) + ": " + what);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "', got '" + text_[pos_] +
                     "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
        if (consume_literal("true")) {
          JsonValue v;
          v.kind = JsonValue::Kind::Bool;
          v.boolean = true;
          return v;
        }
        fail(pos_, "expected 'true'");
      case 'f':
        if (consume_literal("false")) {
          JsonValue v;
          v.kind = JsonValue::Kind::Bool;
          return v;
        }
        fail(pos_, "expected 'false'");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail(pos_, "expected 'null'");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    const std::size_t start = pos_;
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail(pos_, "expected a quoted object key");
      std::string key = parse_string().str;
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == '}') {
        ++pos_;
        return v;
      }
      fail(pos_, "expected ',' or '}' in object started at offset " +
                     std::to_string(start));
    }
  }

  JsonValue parse_array() {
    const std::size_t start = pos_;
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == ']') {
        ++pos_;
        return v;
      }
      fail(pos_, "expected ',' or ']' in array started at offset " +
                     std::to_string(start));
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else fail(pos_ - 1, "bad hex digit in \\u escape");
          }
          // The serializers only emit \u00XX control escapes; decode the
          // Latin-1 range and reject the rest rather than mis-decode.
          if (code > 0xFF) fail(pos_, "\\u escape above \\u00ff unsupported");
          v.str += static_cast<char>(code);
          break;
        }
        default:
          fail(pos_ - 1, std::string("unknown escape '\\") + esc + "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail(start, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail(start, "malformed number '" + token + "'");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = parsed;
    // Integral literals additionally keep their exact value: the double
    // alone cannot represent uint64 seeds above 2^53.
    const bool neg = token[0] == '-';
    const std::string_view digits =
        std::string_view(token).substr(neg ? 1 : 0);
    if (!digits.empty() &&
        digits.find_first_not_of("0123456789") == std::string::npos) {
      std::uint64_t mag = 0;
      const auto [p, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), mag);
      if (ec == std::errc() && p == digits.data() + digits.size()) {
        v.is_integer = true;
        v.negative = neg && mag != 0;
        v.magnitude = mag;
      }
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_fail(std::string_view context, const char* wanted,
                            const char* got) {
  throw std::invalid_argument(std::string(context) + ": expected " + wanted +
                              ", got " + got);
}

}  // namespace

const char* JsonValue::kind_name() const {
  switch (kind) {
    case Kind::Null: return "null";
    case Kind::Bool: return "a boolean";
    case Kind::Number: return "a number";
    case Kind::String: return "a string";
    case Kind::Array: return "an array";
    case Kind::Object: return "an object";
  }
  return "unknown";
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key,
                               std::string_view context) const {
  if (kind != Kind::Object) type_fail(context, "an object", kind_name());
  if (const JsonValue* v = find(key)) return *v;
  throw std::invalid_argument(std::string(context) + ": missing key '" +
                              std::string(key) + "'");
}

double JsonValue::as_number(std::string_view context) const {
  if (kind != Kind::Number) type_fail(context, "a number", kind_name());
  return number;
}

std::int64_t JsonValue::as_int(std::string_view context) const {
  if (kind == Kind::Number && is_integer) {
    if (negative) {
      if (magnitude > 0x8000'0000'0000'0000ull) {
        type_fail(context, "an int64", "a smaller value");
      }
      return -static_cast<std::int64_t>(magnitude - 1) - 1;
    }
    if (magnitude > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max())) {
      type_fail(context, "an int64", "a larger value");
    }
    return static_cast<std::int64_t>(magnitude);
  }
  const double v = as_number(context);
  if (v != std::floor(v)) type_fail(context, "an integer", "a fraction");
  return static_cast<std::int64_t>(v);
}

std::uint64_t JsonValue::as_uint(std::string_view context) const {
  if (kind == Kind::Number && is_integer) {
    if (negative) {
      type_fail(context, "a non-negative integer", "a negative one");
    }
    return magnitude;
  }
  const std::int64_t v = as_int(context);
  if (v < 0) type_fail(context, "a non-negative integer", "a negative one");
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string(std::string_view context) const {
  if (kind != Kind::String) type_fail(context, "a string", kind_name());
  return str;
}

const std::vector<JsonValue>& JsonValue::as_array(
    std::string_view context) const {
  if (kind != Kind::Array) type_fail(context, "an array", kind_name());
  return items;
}

JsonValue parse(std::string_view text) { return Parser(text).parse_document(); }

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace decentnet::sim::jsonlite
