// Minimal recursive-descent JSON parser (RFC 8259 subset) for tool config
// files.  Paired with the writer in json.hpp; round-trips everything the
// writer emits.  No exceptions: parse() returns an error description with
// position on malformed input.  Hardened for adversarial input (crash-repro
// records travel through logs): nesting is depth-capped, duplicate object
// keys are rejected, and no input can make the parser read out of bounds —
// fuzz_test.cpp exercises random, truncated and mutated documents.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rcb {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

/// A parsed JSON value.  Numbers are stored as double (as in JSON itself).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; precondition: matching type.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<const JsonArray> array_;
  std::shared_ptr<const JsonObject> object_;
};

/// Result of parsing: either a value or an error with byte offset.
struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;
  std::size_t error_offset = 0;
};

/// Parses a complete JSON document (leading/trailing whitespace allowed;
/// trailing garbage is an error).
JsonParseResult json_parse(std::string_view text);

/// Largest integer a JSON number (an IEEE double) holds exactly: 2^53.
/// Integer fields that matter for replay (seeds, budgets, trial indices)
/// are bounded by it instead of silently losing precision.
inline constexpr std::uint64_t kMaxExactJsonInt = std::uint64_t{1} << 53;

/// Reads `d` as an exact non-negative integer no larger than
/// kMaxExactJsonInt.  Returns false, leaving `out` untouched, for anything
/// else (negative, fractional, too large, NaN); the range is checked before
/// the conversion, so no input reaches an out-of-range cast.
bool json_exact_u64(double d, std::uint64_t& out);

}  // namespace rcb
