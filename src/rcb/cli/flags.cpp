#include "rcb/cli/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "rcb/common/contracts.hpp"

namespace rcb {
namespace {

std::string join_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const std::string& c : choices) out += (out.empty() ? "" : " | ") + c;
  return out;
}

}  // namespace

FlagSet::FlagSet(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagSet::add_string(const std::string& name, std::string default_value,
                         std::string help) {
  RCB_REQUIRE(!flags_.count(name));
  Flag f;
  f.type = Type::kString;
  f.help = std::move(help);
  f.default_repr = default_value;
  f.string_value = std::move(default_value);
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void FlagSet::add_int(const std::string& name, std::int64_t default_value,
                      std::string help, std::int64_t min_value,
                      std::int64_t max_value) {
  RCB_REQUIRE(!flags_.count(name));
  RCB_REQUIRE(min_value <= default_value && default_value <= max_value);
  Flag f;
  f.type = Type::kInt;
  f.help = std::move(help);
  f.default_repr = std::to_string(default_value);
  f.int_value = default_value;
  f.int_min = min_value;
  f.int_max = max_value;
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void FlagSet::add_double(const std::string& name, double default_value,
                         std::string help) {
  RCB_REQUIRE(!flags_.count(name));
  Flag f;
  f.type = Type::kDouble;
  f.help = std::move(help);
  std::ostringstream os;
  os << default_value;
  f.default_repr = os.str();
  f.double_value = default_value;
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void FlagSet::add_bool(const std::string& name, bool default_value,
                       std::string help) {
  RCB_REQUIRE(!flags_.count(name));
  Flag f;
  f.type = Type::kBool;
  f.help = std::move(help);
  f.default_repr = default_value ? "true" : "false";
  f.bool_value = default_value;
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void FlagSet::add_choice(const std::string& name,
                         std::vector<std::string> choices,
                         const std::string& help) {
  RCB_REQUIRE(!choices.empty());
  add_string(name, choices.front(), help + ": " + join_choices(choices));
  flags_.at(name).choices = std::move(choices);
}

bool FlagSet::set_value(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    return false;
  }
  Flag& f = it->second;
  errno = 0;
  char* end = nullptr;
  switch (f.type) {
    case Type::kString:
      if (!f.choices.empty() &&
          std::find(f.choices.begin(), f.choices.end(), value) ==
              f.choices.end()) {
        std::fprintf(stderr, "--%s must be one of %s, got '%s'\n",
                     name.c_str(), join_choices(f.choices).c_str(),
                     value.c_str());
        return false;
      }
      f.string_value = value;
      return true;
    case Type::kInt: {
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "--%s expects an integer, got '%s'\n",
                     name.c_str(), value.c_str());
        return false;
      }
      if (v < f.int_min || v > f.int_max) {
        if (f.int_max == INT64_MAX) {
          std::fprintf(stderr, "--%s must be >= %lld, got '%s'\n",
                       name.c_str(), static_cast<long long>(f.int_min),
                       value.c_str());
        } else {
          std::fprintf(stderr, "--%s must be in [%lld, %lld], got '%s'\n",
                       name.c_str(), static_cast<long long>(f.int_min),
                       static_cast<long long>(f.int_max), value.c_str());
        }
        return false;
      }
      f.int_value = v;
      return true;
    }
    case Type::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "--%s expects a number, got '%s'\n", name.c_str(),
                     value.c_str());
        return false;
      }
      f.double_value = v;
      return true;
    }
    case Type::kBool: {
      if (value == "true" || value == "1") {
        f.bool_value = true;
      } else if (value == "false" || value == "0") {
        f.bool_value = false;
      } else {
        std::fprintf(stderr, "--%s expects true/false, got '%s'\n",
                     name.c_str(), value.c_str());
        return false;
      }
      return true;
    }
  }
  return false;
}

bool FlagSet::set(const std::string& name, const std::string& value) {
  return set_value(name, value);
}

bool FlagSet::parse(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n",
                   arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      auto it = flags_.find(arg);
      if (it != flags_.end() && it->second.type == Type::kBool) {
        value = "true";  // bare --flag sets a boolean
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "--%s is missing a value\n", arg.c_str());
        return false;
      }
    }
    if (!set_value(arg, value)) return false;
  }
  return true;
}

const FlagSet::Flag& FlagSet::find(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  RCB_REQUIRE(it != flags_.end());
  RCB_REQUIRE(it->second.type == type);
  return it->second;
}

const std::string& FlagSet::get_string(const std::string& name) const {
  return find(name, Type::kString).string_value;
}

std::int64_t FlagSet::get_int(const std::string& name) const {
  return find(name, Type::kInt).int_value;
}

double FlagSet::get_double(const std::string& name) const {
  return find(name, Type::kDouble).double_value;
}

bool FlagSet::get_bool(const std::string& name) const {
  return find(name, Type::kBool).bool_value;
}

std::string FlagSet::help_text() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << "  (default: " << f.default_repr << ")\n      "
       << f.help << '\n';
  }
  return os.str();
}

}  // namespace rcb
