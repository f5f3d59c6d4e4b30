// bench_compare — diff two BENCH_*.json perf reports and gate regressions.
//
// The perf benches (bench_m1_micro, bench_m2_engine_scaling) emit
// machine-readable reports in the bench_util.hpp schema.  This tool matches
// entries across two such files by (name, config) identity and compares a
// metric:
//
//   bench_compare --baseline=bench/baselines/BENCH_m1_baseline.json
//                 --current=build/BENCH_m1.json --threshold=0.25
//
// Exit codes: 0 = within threshold (or --warn_only), 1 = usage/parse error,
// 2 = at least one regression beyond the threshold.  tools/ci.sh runs this
// in warn-only mode against the committed baseline so perf drift is visible
// on every CI run without flaking on machine noise.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "rcb/cli/flags.hpp"
#include "rcb/cli/json_parse.hpp"
#include "rcb/runtime/retry_io.hpp"
#include "rcb/stats/table.hpp"

namespace rcb {
namespace {

struct Entry {
  std::string key;  ///< name + serialized config (the match identity)
  double wall_ms = 0;
  double slots_per_sec = 0;
  double events_per_sec = 0;
};

/// Loads a report; returns false after a diagnostic on any malformed input.
bool load_report(const std::string& path, std::map<std::string, Entry>& out) {
  std::string text;
  if (const std::string err = read_file_fully(path, text); !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return false;
  }
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                 parsed.error.c_str());
    return false;
  }
  const JsonValue* schema = parsed.value.find("rcb_bench");
  if (schema == nullptr || !schema->is_number() ||
      schema->as_number() != 1.0) {
    std::fprintf(stderr, "%s: not an rcb_bench schema-1 report\n",
                 path.c_str());
    return false;
  }
  const JsonValue* entries = parsed.value.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    std::fprintf(stderr, "%s: missing 'entries' array\n", path.c_str());
    return false;
  }
  for (const JsonValue& v : entries->as_array()) {
    const JsonValue* name = v.find("name");
    if (name == nullptr || !name->is_string()) {
      std::fprintf(stderr, "%s: entry without a string 'name'\n",
                   path.c_str());
      return false;
    }
    Entry e;
    e.key = name->as_string();
    if (const JsonValue* config = v.find("config");
        config != nullptr && config->is_object()) {
      for (const auto& [k, val] : config->as_object()) {
        e.key += "|" + k + "=" +
                 (val.is_number() ? Table::num(val.as_number(), 6) : "?");
      }
    }
    auto metric = [&](const char* field, double& slot) {
      const JsonValue* m = v.find(field);
      if (m != nullptr && m->is_number()) slot = m->as_number();
    };
    metric("wall_ms", e.wall_ms);
    metric("slots_per_sec", e.slots_per_sec);
    metric("events_per_sec", e.events_per_sec);
    out[e.key] = e;
  }
  return true;
}

double metric_of(const Entry& e, const std::string& metric) {
  if (metric == "wall_ms") return e.wall_ms;
  if (metric == "slots_per_sec") return e.slots_per_sec;
  return e.events_per_sec;
}

int run_tool(int argc, const char* const* argv) {
  FlagSet flags(
      "bench_compare: diff two BENCH_*.json perf reports and fail above a "
      "regression threshold");
  flags.add_string("baseline", "", "baseline report (the reference run)");
  flags.add_string("current", "", "current report (the run under test)");
  flags.add_string("metric", "wall_ms",
                   "wall_ms (lower is better) | slots_per_sec | "
                   "events_per_sec (higher is better)");
  flags.add_double("threshold", 0.25,
                   "maximum tolerated relative regression (0.25 = 25%)");
  flags.add_bool("warn_only", false,
                 "report regressions but always exit 0 (CI soft gate)");
  if (!flags.parse(argc, argv)) return 1;

  const std::string metric = flags.get_string("metric");
  if (metric != "wall_ms" && metric != "slots_per_sec" &&
      metric != "events_per_sec") {
    std::fprintf(stderr, "unknown --metric '%s'\n", metric.c_str());
    return 1;
  }
  const double threshold = flags.get_double("threshold");
  if (flags.get_string("baseline").empty() ||
      flags.get_string("current").empty()) {
    std::fprintf(stderr, "--baseline and --current are required\n");
    return 1;
  }

  std::map<std::string, Entry> baseline, current;
  if (!load_report(flags.get_string("baseline"), baseline)) return 1;
  if (!load_report(flags.get_string("current"), current)) return 1;

  const bool lower_is_better = metric == "wall_ms";
  Table table({"entry", "baseline", "current", "change", "verdict"});
  std::size_t compared = 0, regressions = 0, improvements = 0, skipped = 0;
  std::vector<std::string> baseline_only, current_only;
  for (const auto& [key, base] : baseline) {
    const auto it = current.find(key);
    if (it == current.end()) {
      baseline_only.push_back(key);
      continue;
    }
    const double b = metric_of(base, metric);
    const double c = metric_of(it->second, metric);
    if (b <= 0.0 || c <= 0.0) {  // metric not applicable to this entry
      ++skipped;
      continue;
    }
    ++compared;
    // Positive `change` always means "got worse by this fraction".
    const double change = lower_is_better ? c / b - 1.0 : b / c - 1.0;
    const char* verdict = "ok";
    if (change > threshold) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (change < -threshold) {
      verdict = "improved";
      ++improvements;
    }
    table.add_row({key, Table::num(b), Table::num(c),
                   Table::num(change * 100.0, 3) + "%", verdict});
  }
  table.print(std::cout);

  for (const auto& [key, e] : current) {
    (void)e;
    if (baseline.find(key) == baseline.end()) current_only.push_back(key);
  }
  // One-sided entries are loud warnings, not silent skips: a renamed bench
  // or a stale baseline would otherwise pass the gate with no coverage.
  for (const std::string& key : baseline_only) {
    std::fprintf(stderr,
                 "warning: baseline-only entry '%s' (removed or renamed? "
                 "refresh the baseline)\n",
                 key.c_str());
  }
  for (const std::string& key : current_only) {
    std::fprintf(stderr,
                 "warning: current-only entry '%s' (new bench not in the "
                 "baseline; add it on the next refresh)\n",
                 key.c_str());
  }
  std::printf(
      "\nmetric %s: %zu compared, %zu regressions, %zu improvements "
      "(threshold %.0f%%); %zu baseline-only, %zu current-only entries\n",
      metric.c_str(), compared, regressions, improvements, threshold * 100.0,
      baseline_only.size(), current_only.size());
  if (compared == 0) {
    std::fprintf(stderr, "no comparable entries — wrong file pair?\n");
    return flags.get_bool("warn_only") ? 0 : 1;
  }
  if (regressions > 0 && !flags.get_bool("warn_only")) return 2;
  return 0;
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) { return rcb::run_tool(argc, argv); }
