#include "rcb/cli/json_parse.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "rcb/common/contracts.hpp"

namespace rcb {

JsonValue::JsonValue(JsonArray a)
    : type_(Type::kArray),
      array_(std::make_shared<const JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : type_(Type::kObject),
      object_(std::make_shared<const JsonObject>(std::move(o))) {}

bool JsonValue::as_bool() const {
  RCB_REQUIRE(is_bool());
  return bool_;
}

double JsonValue::as_number() const {
  RCB_REQUIRE(is_number());
  return number_;
}

const std::string& JsonValue::as_string() const {
  RCB_REQUIRE(is_string());
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  RCB_REQUIRE(is_array());
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  RCB_REQUIRE(is_object());
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

namespace {

/// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_whitespace();
    JsonValue value;
    if (!parse_value(value, /*depth=*/0)) {
      result.error = error_;
      result.error_offset = pos_;
      return result;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      result.error = "trailing characters after document";
      result.error_offset = pos_;
      return result;
    }
    result.ok = true;
    result.value = std::move(value);
    return result;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume(char expected) {
    if (at_end() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) return fail("invalid literal");
        out = JsonValue();
        return true;
      case 't':
        if (!consume_literal("true")) return fail("invalid literal");
        out = JsonValue(true);
        return true;
      case 'f':
        if (!consume_literal("false")) return fail("invalid literal");
        out = JsonValue(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          // Encode as UTF-8 (surrogate pairs unsupported — config files
          // have no use for astral-plane characters; reject cleanly).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return fail("surrogate pairs unsupported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("invalid number");
    }
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digits required after decimal point");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digits required in exponent");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      return fail("number out of range");
    }
    out = JsonValue(value);
    return true;
  }

  bool parse_array(JsonValue& out, int depth) {
    consume('[');
    JsonArray items;
    skip_whitespace();
    if (consume(']')) {
      out = JsonValue(std::move(items));
      return true;
    }
    for (;;) {
      JsonValue item;
      if (!parse_value(item, depth + 1)) return false;
      items.push_back(std::move(item));
      skip_whitespace();
      if (consume(']')) break;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
    out = JsonValue(std::move(items));
    return true;
  }

  bool parse_object(JsonValue& out, int depth) {
    consume('{');
    JsonObject members;
    skip_whitespace();
    if (consume('}')) {
      out = JsonValue(std::move(members));
      return true;
    }
    for (;;) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!consume(':')) return fail("expected ':' after object key");
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      // Reject duplicates: first-wins or last-wins semantics would let two
      // documents that look different parse identically, which is poison
      // for repro records.
      if (!members.emplace(std::move(key), std::move(value)).second) {
        return fail("duplicate object key");
      }
      skip_whitespace();
      if (consume('}')) break;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
    out = JsonValue(std::move(members));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult json_parse(std::string_view text) {
  return Parser(text).run();
}

bool json_exact_u64(double d, std::uint64_t& out) {
  if (!(d >= 0.0 && d <= static_cast<double>(kMaxExactJsonInt)) ||
      d != std::floor(d)) {
    return false;
  }
  out = static_cast<std::uint64_t>(d);
  return true;
}

}  // namespace rcb
