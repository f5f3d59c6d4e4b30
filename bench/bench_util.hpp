// Shared helpers for the experiment benches (E1..E13) and perf benches (M*).
//
// Each experiment bench regenerates one row of DESIGN.md's experiment
// index: it prints a header naming the paper claim, a table of measured
// values, and the paper-predicted vs fitted scaling where applicable.  Keep
// runtimes in the seconds-to-a-minute range so `for b in build/bench/*; do
// $b; done` stays usable.
//
// Perf benches additionally emit a machine-readable BENCH_<id>.json via
// BenchReport so that tools/bench_compare can diff two runs and CI can gate
// on regressions.  Schema (stable; bump `rcb_bench` on breaking change):
//
//   {"rcb_bench": 1, "bench": "<id>",
//    "entries": [{"name": "...", "config": {"n": 32, ...},
//                 "wall_ms": 1.5, "slots_per_sec": 1e9,
//                 "events_per_sec": 1e6}, ...]}
//
// `wall_ms` is mean wall time per run (always present; lower is better);
// the throughput fields are 0 when not applicable.  (name, config) is the
// identity bench_compare matches entries by.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "rcb/cli/json.hpp"
#include "rcb/stats/regression.hpp"
#include "rcb/stats/summary.hpp"
#include "rcb/stats/table.hpp"

namespace rcb::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n==============================================================\n"
            << id << ": " << claim << "\n"
            << "==============================================================\n";
}

inline void print_fit(const std::string& what, const PowerLawFit& fit,
                      double predicted) {
  std::printf("%s: measured exponent %.3f (R^2 %.3f), paper predicts %.3f\n",
              what.c_str(), fit.exponent, fit.r_squared, predicted);
}

/// Mean of a double vector (0 for empty).
inline double mean_of(const std::vector<double>& xs) {
  return summarize(xs).mean;
}

/// One measured configuration of a perf bench.
struct BenchEntry {
  std::string name;  ///< e.g. "m2/slotwise_event/cca" or a gbench name
  std::vector<std::pair<std::string, double>> config;  ///< numeric axes
  double wall_ms = 0.0;         ///< mean wall time per run
  double slots_per_sec = 0.0;   ///< simulated-slot throughput (0 = n/a)
  double events_per_sec = 0.0;  ///< node-event throughput (0 = n/a)
};

/// Collects BenchEntry rows and writes the BENCH_<id>.json document.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_id) : bench_id_(std::move(bench_id)) {}

  void add(BenchEntry e) { entries_.push_back(std::move(e)); }
  const std::vector<BenchEntry>& entries() const { return entries_; }

  /// Writes the report; returns false (after a diagnostic) on I/O failure.
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
      return false;
    }
    std::string out;
    JsonWriter w(out);
    w.begin_object();
    w.key("rcb_bench").value(std::int64_t{1});
    w.key("bench").value(bench_id_);
    w.key("entries").begin_array();
    for (const BenchEntry& e : entries_) {
      w.begin_object();
      w.key("name").value(e.name);
      w.key("config").begin_object();
      for (const auto& [k, v] : e.config) w.key(k).value(v);
      w.end_object();
      w.key("wall_ms").value(e.wall_ms);
      w.key("slots_per_sec").value(e.slots_per_sec);
      w.key("events_per_sec").value(e.events_per_sec);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << out << "\n";
    os.flush();
    if (!os) {
      std::fprintf(stderr, "write to '%s' failed\n", path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
    return true;
  }

 private:
  std::string bench_id_;
  std::vector<BenchEntry> entries_;
};

}  // namespace rcb::bench
