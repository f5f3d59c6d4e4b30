// Minimal command-line flag parsing for the tools and examples.
//
// Supports --name=value and --name value forms, typed defaults, --help
// generation, and strict rejection of unknown flags (a typo silently
// falling back to a default would corrupt an experiment).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcb {

class FlagSet {
 public:
  explicit FlagSet(std::string program_description);

  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  /// `min_value`/`max_value` bound accepted inputs (inclusive); an
  /// out-of-range value is rejected at parse time with a one-line error
  /// naming the bound, so e.g. --threads=-4 fails loudly instead of
  /// wrapping through an unsigned cast deep inside the tool.
  void add_int(const std::string& name, std::int64_t default_value,
               std::string help, std::int64_t min_value = INT64_MIN,
               std::int64_t max_value = INT64_MAX);
  void add_double(const std::string& name, double default_value,
                  std::string help);
  void add_bool(const std::string& name, bool default_value, std::string help);
  /// A string flag that takes one of `choices`; the first is the default.
  /// Any other value is rejected at parse time with a one-line error
  /// naming the accepted values, which the help text lists after `help`.
  void add_choice(const std::string& name, std::vector<std::string> choices,
                  const std::string& help);

  /// Parses argv.  Returns false (after printing a message) on --help or on
  /// any malformed/unknown flag; the caller should exit.
  bool parse(int argc, const char* const* argv);

  /// Sets one flag from its textual representation (same validation as
  /// parse); used for config-file support.  Returns false on unknown flag
  /// or malformed value.
  bool set(const std::string& name, const std::string& value);

  const std::string& get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Renders the --help text.
  std::string help_text() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };

  struct Flag {
    Type type;
    std::string help;
    std::string default_repr;
    std::string string_value;
    std::vector<std::string> choices;  ///< empty: any string
    std::int64_t int_value = 0;
    std::int64_t int_min = INT64_MIN;
    std::int64_t int_max = INT64_MAX;
    double double_value = 0.0;
    bool bool_value = false;
  };

  const Flag& find(const std::string& name, Type type) const;
  bool set_value(const std::string& name, const std::string& value);

  std::string description_;
  std::string program_name_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace rcb
