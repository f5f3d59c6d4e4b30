#include "config.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "rcb/cli/json_parse.hpp"
#include "rcb/runtime/thread_pool.hpp"

namespace perfbench {
namespace {

using rcb::JsonValue;

double number_or(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string string_or(const JsonValue& obj, const char* key,
                      const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

/// Sets the swept field of `s` to `x`; false for a field no workload sweeps.
bool apply_sweep(rcb::Scenario& s, const std::string& field, double x) {
  if (field == "budget") {
    s.budget = static_cast<rcb::Cost>(x);
  } else if (field == "channels") {
    s.channels = static_cast<std::uint32_t>(x);
  } else if (field == "eps") {
    s.eps = x;
  } else {
    return false;
  }
  return true;
}

std::string parse_workload(const JsonValue& obj, WorkloadConfig& w) {
  w.name = string_or(obj, "name", "");
  if (w.name.empty()) return "workload without a name";
  const JsonValue* sc = obj.find("scenario");
  if (sc == nullptr || !sc->is_object()) {
    return w.name + ": missing scenario object";
  }
  rcb::Scenario& s = w.base;
  s.protocol = string_or(*sc, "protocol", s.protocol);
  s.adversary = string_or(*sc, "adversary", s.adversary);
  s.n = static_cast<std::uint32_t>(number_or(*sc, "n", s.n));
  s.q = number_or(*sc, "q", s.q);
  s.rate = number_or(*sc, "rate", s.rate);
  s.budget = static_cast<rcb::Cost>(
      number_or(*sc, "budget", static_cast<double>(s.budget)));
  s.eps = number_or(*sc, "eps", s.eps);
  s.channels = static_cast<std::uint32_t>(number_or(*sc, "channels", 1));

  w.sweep = string_or(obj, "sweep", "");
  const JsonValue* values = obj.find("values");
  if (values == nullptr || !values->is_array() || values->as_array().empty()) {
    return w.name + ": missing sweep values";
  }
  if (rcb::Scenario probe = s; !apply_sweep(probe, w.sweep, 1.0)) {
    return w.name + ": unknown sweep field '" + w.sweep + "'";
  }
  for (const JsonValue& v : values->as_array()) {
    if (!v.is_number()) return w.name + ": non-numeric sweep value";
    w.values.push_back(v.as_number());
  }
  w.trials = static_cast<std::size_t>(number_or(obj, "trials", 0));
  if (w.trials == 0) return w.name + ": trials must be >= 1";
  const std::string mode = string_or(obj, "mode", "in_process");
  if (mode != "in_process" && mode != "sharded") {
    return w.name + ": mode must be in_process or sharded";
  }
  w.sharded = mode == "sharded";
  w.workers = static_cast<std::size_t>(number_or(obj, "workers", 0));
  w.worker_threads =
      static_cast<std::size_t>(number_or(obj, "worker_threads", 0));
  if (w.sharded && (w.workers == 0 || w.worker_threads == 0)) {
    return w.name + ": sharded mode needs workers and worker_threads";
  }
  if (const JsonValue* pins = obj.find("pinned_digests");
      pins != nullptr && pins->is_array()) {
    for (const JsonValue& p : pins->as_array()) {
      if (!p.is_string()) return w.name + ": digests are hex strings";
      w.pinned_digests.push_back(
          std::strtoull(p.as_string().c_str(), nullptr, 16));
    }
    if (!w.pinned_digests.empty() &&
        w.pinned_digests.size() != w.values.size()) {
      return w.name + ": one pinned digest per sweep point";
    }
  }
  for (const rcb::Scenario& p : make_points(w, kDefaultSeed)) {
    if (const std::string err = rcb::validate_scenario(p); !err.empty()) {
      return w.name + ": " + err;
    }
  }
  return "";
}

}  // namespace

const WorkloadConfig* BenchConfig::find(const std::string& name) const {
  for (const WorkloadConfig& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string load_config(const std::string& path, BenchConfig& out) {
  std::ifstream in(path);
  if (!in) return "cannot read " + path;
  std::stringstream text;
  text << in.rdbuf();
  const rcb::JsonParseResult parsed = rcb::json_parse(text.str());
  if (!parsed.ok) return path + ": " + parsed.error;
  const JsonValue& root = parsed.value;
  const JsonValue* list = root.find("workloads");
  if (list == nullptr || !list->is_array()) return path + ": no workloads";
  for (const JsonValue& obj : list->as_array()) {
    WorkloadConfig w;
    if (std::string err = parse_workload(obj, w); !err.empty()) return err;
    out.workloads.push_back(std::move(w));
  }
  return "";
}

std::vector<rcb::Scenario> make_points(const WorkloadConfig& w,
                                       std::uint64_t seed) {
  std::vector<rcb::Scenario> points;
  for (std::size_t i = 0; i < w.values.size(); ++i) {
    rcb::Scenario s = w.base;
    apply_sweep(s, w.sweep, w.values[i]);
    s.trials = w.trials;
    s.seed = seed + static_cast<std::uint64_t>(i) * 1000003;
    points.push_back(s);
  }
  return points;
}

std::size_t trial_threads(const WorkloadConfig& w) {
  if (w.sharded) return w.workers * w.worker_threads;
  return rcb::ThreadPool::default_concurrency();
}

}  // namespace perfbench
