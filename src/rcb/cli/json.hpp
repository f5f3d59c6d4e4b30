// Minimal streaming JSON writer for tool output and the on-disk codecs.
//
// Writes syntactically valid JSON with string escaping and nesting checks;
// no DOM, no parsing.  The sink is a caller-owned std::string the writer
// appends to; callers write the finished string wherever it goes (stdout,
// a file, a journal frame).  Numbers are formatted with std::to_chars:
// doubles as printf "%.17g" (chars_format::general, precision 17 -- the
// standard defines it as that conversion), so every finite double
// round-trips bit-exactly; non-finite doubles are written as null.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rcb {

class JsonWriter {
 public:
  /// Appends to `out`, which must outlive the writer.
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits a key inside an object; must be followed by a value or
  /// begin_object/begin_array.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);

  /// True when every container has been closed.
  bool complete() const { return depth_ == 0 && wrote_top_level_; }

 private:
  /// Deepest container nesting the writer supports (one bit per level).
  static constexpr int kMaxDepth = 64;

  void push(bool is_object);
  void pre_value();
  void separate();
  /// Appends `s` quoted, copying each run that needs no escaping in bulk.
  void write_escaped(std::string_view s);
  bool in_object() const { return (object_bits_ >> (depth_ - 1)) & 1; }

  std::string* out_;
  // One bit per open container, innermost at bit depth_ - 1: whether it is
  // an object, and whether it has no member yet.
  std::uint64_t object_bits_ = 0;
  std::uint64_t empty_bits_ = 0;
  int depth_ = 0;
  bool pending_key_ = false;
  bool wrote_top_level_ = false;
};

}  // namespace rcb
