// rcb_perfbench — end-to-end sweep benchmark of the rcbroadcast simulator.
//
//   rcb_perfbench --config perfbench/workloads.json --workload broadcast_budget
//       --seed 7 --seconds 10 --trace 0 --work_dir .bench_build/work
//
// Prints every metric as "name value unit", then one JSON line
// {"correct", "attempted", "failed", "metrics"} as the last line of
// stdout.  --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
// split.  Several comma-separated workloads prefix each metric with
// "<workload>/".  Exits 1 when any correctness check failed.
//
// The same binary is the shard worker of the sharded workload: the
// coordinator re-enters it with --shard_worker=<root> --shard_id=<i>.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "config.hpp"
#include "runs.hpp"
#include "workload.hpp"

namespace {

struct Args {
  std::string config;
  std::string workloads;
  std::uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  bool print_digests = false;
  std::string shard_root;
  std::size_t shard_id = 0;
  bool shard_worker = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--print_digests" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--config") {
      a.config = value;
    } else if (arg == "--workload") {
      a.workloads = value;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      a.has_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (arg == "--work_dir") {
      a.work_dir = value;
    } else if (arg == "--print_digests") {
      a.print_digests = true;
    } else if (arg == "--shard_worker") {
      a.shard_root = value;
      a.shard_worker = true;
    } else if (arg == "--shard_id") {
      a.shard_id = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) parts.push_back(item);
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.shard_worker) {
    return perfbench::shard_worker_main(args.shard_root, args.shard_id);
  }
  if (args.config.empty() || args.workloads.empty()) {
    std::fprintf(stderr,
                 "usage: rcb_perfbench --config FILE --workload NAME[,NAME] "
                 "[--seed N] [--seconds S] [--trace 0|1] [--work_dir DIR] "
                 "[--print_digests]\n");
    return 2;
  }
  perfbench::BenchConfig cfg;
  if (const std::string err = perfbench::load_config(args.config, cfg);
      !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const std::vector<std::string> names = split(args.workloads);
  for (const std::string& name : names) {
    if (cfg.find(name) == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", name.c_str());
      return 2;
    }
  }

  perfbench::RunOptions opt;
  opt.seed = args.has_seed ? args.seed : perfbench::kDefaultSeed;
  opt.seconds = args.seconds;
  opt.work_dir = args.work_dir;
  opt.print_digests = args.print_digests;

  perfbench::RunReport total;
  std::string metrics_json;
  for (const std::string& name : names) {
    const perfbench::WorkloadConfig& w = *cfg.find(name);
    const perfbench::RunReport r = args.trace != 0
                                       ? perfbench::traced_run(w, opt)
                                       : perfbench::untraced_run(w, opt);
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    const std::string prefix = names.size() > 1 ? name + "/" : "";
    for (const perfbench::Metric& m : r.metrics) {
      std::printf("%s%s %.9g %s\n", prefix.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      char entry[512];
      std::snprintf(entry, sizeof entry,
                    "\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    prefix.c_str(), m.name.c_str(), m.value, m.unit.c_str());
      metrics_json += (metrics_json.empty() ? "" : ", ") + std::string(entry);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      total.correct ? "true" : "false", total.attempted, total.failed,
      metrics_json.c_str());
  return total.correct ? 0 : 1;
}
