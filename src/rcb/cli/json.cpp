#include "rcb/cli/json.hpp"

#include <charconv>
#include <cmath>

#include "rcb/common/contracts.hpp"

namespace rcb {

void JsonWriter::push(bool is_object) {
  RCB_REQUIRE(depth_ < kMaxDepth);
  const std::uint64_t bit = std::uint64_t{1} << depth_;
  object_bits_ = is_object ? object_bits_ | bit : object_bits_ & ~bit;
  empty_bits_ |= bit;
  ++depth_;
}

/// Comma-separates siblings inside the innermost container.
void JsonWriter::separate() {
  const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
  if ((empty_bits_ & bit) == 0) out_->push_back(',');
  empty_bits_ &= ~bit;
}

void JsonWriter::pre_value() {
  if (depth_ == 0) {
    RCB_REQUIRE(!wrote_top_level_);  // only one top-level value
    wrote_top_level_ = true;
    return;
  }
  if (in_object()) {
    RCB_REQUIRE(pending_key_);  // object values need a key
    pending_key_ = false;
    return;
  }
  separate();
}

void JsonWriter::write_escaped(std::string_view s) {
  std::string& out = *out_;
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_->push_back('{');
  push(/*is_object=*/true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  RCB_REQUIRE(depth_ > 0 && in_object());
  RCB_REQUIRE(!pending_key_);
  out_->push_back('}');
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_->push_back('[');
  push(/*is_object=*/false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  RCB_REQUIRE(depth_ > 0 && !in_object());
  out_->push_back(']');
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  RCB_REQUIRE(depth_ > 0 && in_object());
  RCB_REQUIRE(!pending_key_);
  separate();
  write_escaped(k);
  out_->push_back(':');
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  pre_value();
  write_escaped(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  if (std::isfinite(v)) {
    // Longest "%.17g" output is 24 chars ("-2.2250738585072014e-308").
    char buf[32];
    const auto r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    out_->append(buf, r.ptr);
  } else {
    *out_ += "null";  // JSON has no inf/nan
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  *out_ += v ? "true" : "false";
  return *this;
}

}  // namespace rcb
